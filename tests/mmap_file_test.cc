// MmapFile's two read paths — the kernel mapping and the always-compiled
// heap fallback — must be interchangeable: bit-identical bytes for the
// same file, and a snapshot loaded through either path answers queries
// identically. The fallback is forced per process via ForceHeapFallback,
// which is how platforms without mmap (and fault drills on platforms with
// it) run the load path.

#include "snapshot/mmap_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

/// RAII guard so a test can never leak the process-wide fallback switch.
class ForcedFallback {
 public:
  ForcedFallback() { MmapFile::ForceHeapFallback(true); }
  ~ForcedFallback() { MmapFile::ForceHeapFallback(false); }
};

class MmapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/mmapfile_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    MmapFile::ForceHeapFallback(false);
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(MmapFileTest, BothPathsReadTheSameBytes) {
  std::vector<std::uint8_t> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  const std::string path = dir_ + "/blob";
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());

  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
#if MVPTREE_HAS_MMAP
  EXPECT_TRUE(mapped.value().mapped());
#endif

  ForcedFallback forced;
  EXPECT_TRUE(MmapFile::heap_fallback_forced());
  auto heap = MmapFile::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_FALSE(heap.value().mapped());

  ASSERT_EQ(mapped.value().size(), payload.size());
  ASSERT_EQ(heap.value().size(), payload.size());
  EXPECT_EQ(std::memcmp(mapped.value().data(), heap.value().data(),
                        payload.size()),
            0);
  EXPECT_EQ(std::memcmp(heap.value().data(), payload.data(), payload.size()),
            0);
}

TEST_F(MmapFileTest, EmptyFileYieldsZeroLengthViewOnBothPaths) {
  const std::string path = dir_ + "/empty";
  ASSERT_TRUE(WriteFileAtomic(path, std::vector<std::uint8_t>{}).ok());

  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size(), 0u);

  ForcedFallback forced;
  auto heap = MmapFile::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ(heap.value().size(), 0u);
}

TEST_F(MmapFileTest, MissingFileFailsOnBothPaths) {
  EXPECT_FALSE(MmapFile::Open(dir_ + "/nope").ok());
  ForcedFallback forced;
  EXPECT_FALSE(MmapFile::Open(dir_ + "/nope").ok());
}

TEST_F(MmapFileTest, MoveTransfersOwnershipOfTheMapping) {
  const std::string path = dir_ + "/blob";
  ASSERT_TRUE(WriteFileAtomic(path, std::vector<std::uint8_t>(64, 7)).ok());
  auto opened = MmapFile::Open(path);
  ASSERT_TRUE(opened.ok());
  MmapFile a = std::move(opened).ValueOrDie();
  const auto* data = a.data();
  MmapFile b = std::move(a);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST_F(MmapFileTest, SnapshotLoadsIdenticallyThroughBothPaths) {
  Index::Options options;
  options.num_shards = 3;
  options.tree.leaf_capacity = 8;
  const auto data = dataset::UniformVectors(200, 5, 31);
  auto built = Index::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());

  // Both snapshot layouts: flat arenas, which every writer emits, and the
  // MVPT stream (index kind 1) that earlier releases wrote.
  SnapshotStore flat_store(dir_ + "/flat");
  ASSERT_TRUE(flat_store.SaveFlat(built.value()).ok());
  SnapshotStore heap_store(dir_ + "/heap");
  ASSERT_NO_FATAL_FAILURE(WriteHeapGeneration(heap_store.dir(), built.value()));

  const std::pair<SnapshotStore*, IndexKind> layouts[] = {
      {&flat_store, IndexKind::kFlatShardedMvpIndex},
      {&heap_store, IndexKind::kShardedMvpIndex}};
  for (const auto& [store, kind] : layouts) {
    SCOPED_TRACE(store->dir());
    auto via_mmap = store->LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();

    ForcedFallback forced;
    auto via_heap = store->LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(via_heap.ok()) << via_heap.status().ToString();

    EXPECT_EQ(via_mmap.value().generation, via_heap.value().generation);
    EXPECT_EQ(via_mmap.value().manifest.index_kind, kind);
    EXPECT_EQ(via_heap.value().manifest.index_kind, kind);
    EXPECT_EQ(via_mmap.value().index.size(), via_heap.value().index.size());
    const auto queries = dataset::UniformQueryVectors(8, 5, 32);
    for (const auto& q : queries) {
      const auto a = via_mmap.value().index.RangeSearch(q, 0.8);
      const auto b = via_heap.value().index.RangeSearch(q, 0.8);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].distance, b[i].distance);
      }
      EXPECT_EQ(via_mmap.value().index.KnnSearch(q, 5),
                via_heap.value().index.KnnSearch(q, 5));
    }
  }
}

}  // namespace
}  // namespace mvp::snapshot
