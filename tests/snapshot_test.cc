#include "snapshot/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "dynamic/mvp_forest.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;
using Forest = dynamic::MvpForest<Vector, L2>;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/snap_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

Index BuildIndex(std::size_t n, std::size_t shards, std::uint64_t seed) {
  Index::Options options;
  options.num_shards = shards;
  options.tree.order = 3;
  options.tree.leaf_capacity = 8;
  options.tree.num_path_distances = 4;
  options.tree.seed = seed;
  auto built = Index::Build(dataset::UniformVectors(n, 6, 11), L2(), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).ValueOrDie();
}

void ExpectIdenticalResults(const Index& a, const Index& b) {
  const auto queries = dataset::UniformQueryVectors(8, 6, 29);
  for (const auto& q : queries) {
    for (const double r : {0.2, 0.6, 1.1}) {
      const auto ea = a.RangeSearch(q, r);
      const auto eb = b.RangeSearch(q, r);
      ASSERT_EQ(ea.size(), eb.size());
      for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].id, eb[i].id);
        EXPECT_EQ(ea[i].distance, eb[i].distance);  // bit-identical
      }
    }
    const auto ka = a.KnnSearch(q, 9);
    const auto kb = b.KnnSearch(q, 9);
    ASSERT_EQ(ka.size(), kb.size());
    for (std::size_t i = 0; i < ka.size(); ++i) {
      EXPECT_EQ(ka[i].id, kb[i].id);
      EXPECT_EQ(ka[i].distance, kb[i].distance);
    }
  }
}

TEST_F(SnapshotTest, ShardedRoundTripBitIdentical) {
  const Index index = BuildIndex(400, 4, 7);
  SnapshotStore store(dir_);
  auto gen = store.SaveSharded(index, VectorCodec());
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.value(), 1u);

  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().generation, 1u);
  EXPECT_EQ(loaded.value().index.size(), index.size());
  EXPECT_EQ(loaded.value().index.num_shards(), index.num_shards());
  EXPECT_EQ(loaded.value().index.build_params(), index.build_params());
  EXPECT_EQ(loaded.value().manifest.object_count, index.size());
  ExpectIdenticalResults(index, loaded.value().index);
}

TEST_F(SnapshotTest, ShardedRoundTripParallelLoadIdentical) {
  const Index index = BuildIndex(300, 5, 3);
  SnapshotStore store(dir_);
  ASSERT_TRUE(store.SaveSharded(index, VectorCodec()).ok());
  serve::ThreadPool pool(3);
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec(), &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalResults(index, loaded.value().index);
}

TEST_F(SnapshotTest, SingleShardAndEmptyDatasetRoundTrip) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{17}}) {
    const Index index = BuildIndex(n, 1, 5);
    SnapshotStore store(dir_ + "/n" + std::to_string(n));
    std::filesystem::create_directories(store.dir());
    ASSERT_TRUE(store.SaveSharded(index, VectorCodec()).ok());
    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().index.size(), n);
    ExpectIdenticalResults(index, loaded.value().index);
  }
}

TEST_F(SnapshotTest, GenerationsAdvanceAndOldOnesSurvive) {
  SnapshotStore store(dir_);
  const Index first = BuildIndex(100, 2, 1);
  const Index second = BuildIndex(200, 3, 2);
  ASSERT_TRUE(store.SaveSharded(first, VectorCodec()).ok());
  auto gen2 = store.SaveSharded(second, VectorCodec());
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(gen2.value(), 2u);
  EXPECT_EQ(store.CurrentGeneration().value(), 2u);
  EXPECT_EQ(store.ListGenerations().size(), 2u);

  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().index.size(), 200u);

  EXPECT_EQ(store.PruneStaleGenerations(), 1u);
  EXPECT_EQ(store.ListGenerations(), std::vector<std::uint64_t>{2});
  ASSERT_TRUE(store.LoadSharded<Vector>(L2(), VectorCodec()).ok());
}

TEST_F(SnapshotTest, EmptyStoreReportsNotFound) {
  SnapshotStore store(dir_);
  EXPECT_EQ(store.CurrentGeneration().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LoadSharded<Vector>(L2(), VectorCodec()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SnapshotTest, InterruptedSaveLeavesPriorGenerationLoadable) {
  SnapshotStore store(dir_);
  const Index index = BuildIndex(150, 3, 9);
  ASSERT_TRUE(store.SaveSharded(index, VectorCodec()).ok());

  // Simulate a crash mid-save of generation 2: the generation directory and
  // even a stray CURRENT.tmp exist, but the CURRENT rename never happened.
  const std::string gen2 = store.GenerationDir(2);
  std::filesystem::create_directories(gen2);
  const std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(WriteFile(gen2 + "/" + SnapshotStore::kContainerFile, junk).ok());
  ASSERT_TRUE(
      WriteFile(dir_ + "/" + std::string(SnapshotStore::kCurrentFile) + ".tmp",
                junk)
          .ok());

  EXPECT_EQ(store.CurrentGeneration().value(), 1u);
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().generation, 1u);
  ExpectIdenticalResults(index, loaded.value().index);

  // The next save reclaims the orphaned generation number cleanly.
  auto gen = store.SaveSharded(index, VectorCodec());
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value(), 2u);
  ASSERT_TRUE(store.LoadSharded<Vector>(L2(), VectorCodec()).ok());
}

TEST_F(SnapshotTest, KindMismatchRejected) {
  // A healthy generation of a kind the loader cannot serve is a caller
  // mistake, not damaged bytes: InvalidArgument, naming both kinds.
  SnapshotStore store(dir_);
  const Index index = BuildIndex(60, 2, 4);
  ASSERT_TRUE(store.SaveSharded(index, VectorCodec()).ok());
  const Status as_delta = store.LoadDelta<Vector>(L2(), VectorCodec()).status();
  EXPECT_EQ(as_delta.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(as_delta.message().find("holds a heap sharded (kind 1)"),
            std::string::npos)
      << as_delta.message();
  EXPECT_NE(as_delta.message().find("expected dynamic delta (kind 4)"),
            std::string::npos)
      << as_delta.message();

  Forest forest{L2()};
  forest.Insert({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(store
                  .SaveDelta(forest, {60}, {}, /*base_generation=*/1,
                             /*last_applied_seq=*/1, /*next_stable_id=*/61,
                             VectorCodec())
                  .ok());
  const Status as_sharded =
      store.LoadSharded<Vector>(L2(), VectorCodec()).status();
  EXPECT_EQ(as_sharded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(as_sharded.message().find(
                "gen-000002 holds a dynamic delta (kind 4) generation; "
                "expected heap sharded (kind 1) or flat sharded (kind 3)"),
            std::string::npos)
      << as_sharded.message();
  EXPECT_EQ(store.OpenFlat(L2()).status().code(),
            StatusCode::kInvalidArgument);

  // A flat generation is served only by instantiations that can search
  // flat arenas (vector objects only); edit-distance strings cannot.
  SnapshotStore flat_store(dir_ + "/flat");
  ASSERT_TRUE(flat_store.SaveFlat(index).ok());
  EXPECT_EQ(flat_store
                .LoadSharded<std::string>(metric::Levenshtein(), StringCodec())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, ManifestRecordsBuildParams) {
  SnapshotStore store(dir_);
  Index::Options options;
  options.num_shards = 3;
  options.tree.order = 4;
  options.tree.leaf_capacity = 12;
  options.tree.num_path_distances = 6;
  options.tree.seed = 42;
  options.tree.store_exact_bounds = true;
  auto built =
      Index::Build(dataset::UniformVectors(120, 6, 15), L2(), options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(store.SaveSharded(built.value(), VectorCodec()).ok());

  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SnapshotManifest& m = loaded.value().manifest;
  EXPECT_EQ(m.index_kind, IndexKind::kShardedMvpIndex);
  EXPECT_EQ(m.num_shards, 3u);
  EXPECT_EQ(m.order, 4);
  EXPECT_EQ(m.leaf_capacity, 12);
  EXPECT_EQ(m.num_path_distances, 6);
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.store_exact_bounds, 1u);
  EXPECT_EQ(m.num_chunks, 3u);
  EXPECT_EQ(loaded.value().index.build_params(), built.value().build_params());
}

TEST_F(SnapshotTest, ForestLoadAppliesManifestTreeParams) {
  // A delta generation's forest is rebuilt with the tree parameters its
  // manifest records, whatever tree options the caller loads it with.
  SnapshotStore store(dir_);
  Forest::Options options;
  options.tree.order = 4;
  options.tree.leaf_capacity = 10;
  options.tree.num_path_distances = 3;
  options.tree.seed = 77;
  options.tree.store_exact_bounds = true;
  Forest forest{L2(), options};
  std::vector<std::uint64_t> stable_ids;
  for (const auto& v : dataset::UniformVectors(90, 6, 21)) {
    stable_ids.push_back(forest.Insert(v));
  }
  ASSERT_TRUE(store
                  .SaveDelta(forest, stable_ids, {}, /*base_generation=*/0,
                             /*last_applied_seq=*/90, /*next_stable_id=*/90,
                             VectorCodec())
                  .ok());

  // Load with default options: the manifest's tree params must win.
  auto loaded = store.LoadDelta<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& tree = loaded.value().forest.options().tree;
  EXPECT_EQ(tree.order, 4);
  EXPECT_EQ(tree.leaf_capacity, 10);
  EXPECT_EQ(tree.num_path_distances, 3);
  EXPECT_EQ(tree.seed, 77u);
  EXPECT_TRUE(tree.store_exact_bounds);
  EXPECT_EQ(loaded.value().forest_stable_ids, stable_ids);
  EXPECT_EQ(loaded.value().forest.size(), 90u);
}

}  // namespace
}  // namespace mvp::snapshot
