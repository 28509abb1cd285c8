#include "snapshot/async_loader.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;
using Cell = GenerationCell<Index>;

/// A codec whose reads block until the gate opens, and which counts
/// blocked readers — the instrument that lets a test hold a snapshot load
/// mid-deserialization while it probes the serving path.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int waiters = 0;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }

  bool AwaitWaiter(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [this] { return waiters > 0; });
  }
};

struct GatedVectorCodec {
  Gate* gate = nullptr;

  void Write(BinaryWriter& w, const Vector& v) const {
    VectorCodec().Write(w, v);
  }
  Status Read(BinaryReader& r, Vector* out) const {
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      if (!gate->open) {
        ++gate->waiters;
        gate->cv.notify_all();
        gate->cv.wait(lock, [this] { return gate->open; });
        --gate->waiters;
      }
    }
    return VectorCodec().Read(r, out);
  }
};

class AsyncLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/asyncload_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Index BuildIndex(std::size_t n, std::uint64_t seed) {
    Index::Options options;
    options.num_shards = 3;
    options.tree.leaf_capacity = 6;
    options.tree.seed = seed;
    auto built =
        Index::Build(dataset::UniformVectors(n, 5, seed + 100), L2(), options);
    EXPECT_TRUE(built.ok());
    return std::move(built).ValueOrDie();
  }

  std::string dir_;
};

TEST_F(AsyncLoaderTest, QueriesServeOldGenerationDuringLoadThenSwap) {
  // A generation in the MVPT stream layout, which LoadSharded decodes
  // through the (gated) codec.
  const Index next = BuildIndex(120, 2);
  ASSERT_NO_FATAL_FAILURE(WriteHeapGeneration(dir_, next));
  SnapshotStore store(dir_);

  // Old generation the server starts with (different data than the
  // snapshot, so the swap is observable in results too).
  auto old_gen = std::make_shared<const Index>(BuildIndex(40, 1));
  Cell cell{old_gen};
  ASSERT_EQ(cell.version(), 1u);

  // The server's Refresh, on another thread: LoadSharded decodes the
  // shards on the pool, then the result is published into the cell.
  serve::ThreadPool pool(2);
  Gate gate;
  auto loader = std::async(std::launch::async, [&]() -> Status {
    auto loaded = store.LoadSharded<Vector>(L2(), GatedVectorCodec{&gate},
                                            &pool);
    if (!loaded.ok()) return loaded.status();
    cell.Publish(
        std::make_shared<const Index>(std::move(loaded).ValueOrDie().index));
    return Status::OK();
  });
  // Destroyed before `loader`, whose destructor joins: a failed assertion
  // below must not leave the load blocked on the gate.
  struct OpenOnExit {
    Gate* gate;
    ~OpenOnExit() { gate->Open(); }
  } open_on_exit{&gate};

  // Hold until a loader thread is provably blocked mid-deserialization.
  ASSERT_TRUE(gate.AwaitWaiter(std::chrono::seconds(30)));

  // The search path must not touch any lock the loader holds: queries run
  // to completion against the old generation while the load is in flight.
  const auto queries = dataset::UniformQueryVectors(5, 5, 9);
  for (const auto& q : queries) {
    auto generation = cell.Get();
    ASSERT_NE(generation, nullptr);
    EXPECT_EQ(generation->size(), 40u);
    const auto hits = generation->RangeSearch(q, 0.9);
    const auto knn = generation->KnnSearch(q, 3);
    EXPECT_LE(knn.size(), 3u);
    for (const auto& h : hits) EXPECT_LT(h.id, 40u);
  }
  EXPECT_EQ(cell.version(), 1u);  // no swap observed yet

  gate.Open();
  ASSERT_TRUE(loader.get().ok());
  EXPECT_EQ(cell.version(), 2u);

  // New generation serves, bit-identical to the index that was saved.
  auto generation = cell.Get();
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(generation->size(), 120u);
  for (const auto& q : queries) {
    const auto expected = next.RangeSearch(q, 0.9);
    const auto got = generation->RangeSearch(q, 0.9);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_EQ(got[i].distance, expected[i].distance);
    }
  }

  // The old generation stayed alive for its holders (RCU grace period via
  // shared_ptr), and is released once they drop it.
  EXPECT_EQ(old_gen->size(), 40u);
  EXPECT_GE(old_gen.use_count(), 1);
}

TEST_F(AsyncLoaderTest, GenerationCellKeepsOldAliveAcrossPublish) {
  auto first = std::make_shared<const Index>(BuildIndex(20, 6));
  const Index* raw = first.get();
  Cell cell{std::move(first)};
  auto held = cell.Get();

  cell.Publish(std::make_shared<const Index>(BuildIndex(35, 7)));
  // `held` still valid and queryable after the swap.
  EXPECT_EQ(held.get(), raw);
  EXPECT_EQ(held->size(), 20u);
  EXPECT_EQ(cell.Get()->size(), 35u);
  held.reset();
}

}  // namespace
}  // namespace mvp::snapshot
