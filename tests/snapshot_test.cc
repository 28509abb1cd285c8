#include "snapshot/snapshot_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "dynamic/mvp_forest.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/flat_tree.h"
#include "snapshot_fixtures.h"

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

/// The two layouts a vector generation can hold: flat arenas (index kind
/// 3), which every writer emits, and the MVPT stream (index kind 1), which
/// only earlier releases wrote and which stays readable.
enum class Layout { kFlat, kHeap };

/// Commits `index` into the empty store at `store.dir()` as generation 1 in
/// `layout`.
void SaveAs(Layout layout, SnapshotStore& store, const Index& index) {
  if (layout == Layout::kFlat) {
    auto gen = store.SaveFlat(index);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(gen.value(), 1u);
  } else {
    WriteHeapGeneration(store.dir(), index);
  }
}

constexpr Layout kLayouts[] = {Layout::kFlat, Layout::kHeap};

const char* LayoutName(Layout layout) {
  return layout == Layout::kFlat ? "flat" : "heap";
}

TEST_F(SnapshotTest, ShardedRoundTripBitIdentical) {
  const Index index = BuildIndex(400, 4, 7);
  for (const Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    SnapshotStore store(dir_ + "/" + LayoutName(layout));
    ASSERT_NO_FATAL_FAILURE(SaveAs(layout, store, index));

    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().generation, 1u);
    EXPECT_EQ(loaded.value().manifest.index_kind,
              layout == Layout::kFlat ? IndexKind::kFlatShardedMvpIndex
                                      : IndexKind::kShardedMvpIndex);
    EXPECT_EQ(loaded.value().index.size(), index.size());
    EXPECT_EQ(loaded.value().index.num_shards(), index.num_shards());
    EXPECT_EQ(loaded.value().index.build_params(), index.build_params());
    EXPECT_EQ(loaded.value().manifest.object_count, index.size());
    ExpectIdenticalResults(index, loaded.value().index);
  }
}

TEST_F(SnapshotTest, ShardedRoundTripParallelLoadIdentical) {
  const Index index = BuildIndex(300, 5, 3);
  serve::ThreadPool pool(3);
  for (const Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    SnapshotStore store(dir_ + "/" + LayoutName(layout));
    ASSERT_NO_FATAL_FAILURE(SaveAs(layout, store, index));
    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec(), &pool);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectIdenticalResults(index, loaded.value().index);
  }
}

TEST_F(SnapshotTest, SingleShardAndEmptyDatasetRoundTrip) {
  for (const Layout layout : kLayouts) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{17}}) {
      SCOPED_TRACE(std::string(LayoutName(layout)) + " n=" +
                   std::to_string(n));
      const Index index = BuildIndex(n, 1, 5);
      SnapshotStore store(dir_ + "/" + LayoutName(layout) + std::to_string(n));
      std::filesystem::create_directories(store.dir());
      ASSERT_NO_FATAL_FAILURE(SaveAs(layout, store, index));
      auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.value().index.size(), n);
      ExpectIdenticalResults(index, loaded.value().index);
    }
  }
}

TEST_F(SnapshotTest, GenerationsAdvanceAndOldOnesSurvive) {
  SnapshotStore store(dir_);
  const Index first = BuildIndex(100, 2, 1);
  const Index second = BuildIndex(200, 3, 2);
  ASSERT_TRUE(store.SaveFlat(first).ok());
  auto gen2 = store.SaveFlat(second);
  ASSERT_TRUE(gen2.ok());
  EXPECT_EQ(gen2.value(), 2u);
  EXPECT_EQ(store.CurrentGeneration().value(), 2u);
  EXPECT_EQ(store.ListGenerations().size(), 2u);

  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().index.size(), 200u);

  EXPECT_EQ(store.PruneStaleGenerations().value(), 1u);
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
  ASSERT_TRUE(store.SaveFlat(index).ok());

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
  auto gen = store.SaveFlat(index);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen.value(), 2u);
  ASSERT_TRUE(store.LoadSharded<Vector>(L2(), VectorCodec()).ok());
}

TEST_F(SnapshotTest, DamagedCurrentFailsSaveAndPruneLeavingGenerations) {
  // CURRENT names no generation: garbage, a name without digits, or
  // generation 0, which no commit writes. None of them is an empty store,
  // so a save must not restart at generation 1 (deleting gen-000001 as an
  // orphan first) and a prune must not treat every generation as stale.
  const Index index = BuildIndex(60, 2, 4);
  for (const std::string damaged : {"garbage", "gen-", "gen-000000"}) {
    SCOPED_TRACE(damaged);
    const std::string dir = dir_ + "/" + damaged;
    SnapshotStore store(dir);
    ASSERT_TRUE(store.SaveFlat(index).ok());
    const std::string container =
        store.GenerationDir(1) + "/" + SnapshotStore::kContainerFile;
    const auto committed = ReadFile(container);
    ASSERT_TRUE(committed.ok());
    const std::string text = damaged + "\n";
    ASSERT_TRUE(WriteFile(dir + "/" + SnapshotStore::kCurrentFile,
                          std::vector<std::uint8_t>(text.begin(), text.end()))
                    .ok());

    EXPECT_EQ(store.CurrentGeneration().status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(store.SaveFlat(index).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(store.PruneStaleGenerations().status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(store.ListGenerations(), std::vector<std::uint64_t>{1});
    const auto after = ReadFile(container);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), committed.value());
    EXPECT_TRUE(store.LoadSharded<Vector>(L2(), VectorCodec(), nullptr, 1)
                    .ok());
  }
}

TEST_F(SnapshotTest, KindMismatchRejected) {
  // A healthy generation of a kind the loader cannot serve is a caller
  // mistake, not damaged bytes: InvalidArgument, naming both kinds.
  SnapshotStore store(dir_);
  const Index index = BuildIndex(60, 2, 4);
  ASSERT_TRUE(store.SaveFlat(index).ok());
  const Status as_delta = store.LoadDelta<Vector>(L2(), VectorCodec()).status();
  EXPECT_EQ(as_delta.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(as_delta.message().find("holds a flat sharded (kind 3)"),
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
  EXPECT_EQ(store
                .LoadSharded<std::string>(metric::Levenshtein(), StringCodec(),
                                          nullptr, /*at_generation=*/1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, ManifestRecordsBuildParams) {
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
  for (const Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    SnapshotStore store(dir_ + "/" + LayoutName(layout));
    ASSERT_NO_FATAL_FAILURE(SaveAs(layout, store, built.value()));

    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const SnapshotManifest& m = loaded.value().manifest;
    EXPECT_EQ(m.num_shards, 3u);
    EXPECT_EQ(m.order, 4);
    EXPECT_EQ(m.leaf_capacity, 12);
    EXPECT_EQ(m.num_path_distances, 6);
    EXPECT_EQ(m.seed, 42u);
    EXPECT_EQ(m.store_exact_bounds, 1u);
    if (layout == Layout::kFlat) {
      EXPECT_EQ(m.index_kind, IndexKind::kFlatShardedMvpIndex);
      EXPECT_EQ(m.num_chunks, 6u);  // an arena and an id map per shard
    } else {
      EXPECT_EQ(m.index_kind, IndexKind::kShardedMvpIndex);
      EXPECT_EQ(m.num_chunks, 3u);  // one stream chunk per shard
    }
    EXPECT_EQ(loaded.value().index.build_params(),
              built.value().build_params());
  }
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

// ---- compaction generations ------------------------------------------------

using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;

/// Stable ids 0, 2, 4, ...: one per object of `index`.
std::vector<std::uint64_t> EvenStableIds(const Index& index) {
  std::vector<std::uint64_t> ids(index.size());
  for (std::size_t g = 0; g < ids.size(); ++g) ids[g] = 2 * g;
  return ids;
}

/// Commits `index` twice as a compaction: once in full, then again offering
/// the first for reuse, so every shard of the second is a kShardTreeRef.
/// Returns the second generation.
std::uint64_t SaveCompactedTwice(SnapshotStore& store, const Index& index) {
  const auto ids = EvenStableIds(index);
  const std::uint64_t next = 2 * index.size();
  auto full = store.SaveCompacted(index, ids, 9, next);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  std::uint64_t reused = 0;
  auto refs = store.SaveCompacted(index, ids, 9, next, full.value(), &reused);
  EXPECT_TRUE(refs.ok()) << refs.status().ToString();
  EXPECT_EQ(reused, index.num_shards());
  return refs.value();
}

TEST_F(SnapshotTest, CompactedFlatGenerationOfRefsOpensAndSurvivesPrune) {
  SnapshotStore store(dir_);
  const Index index = BuildIndex(200, 3, 5);
  ASSERT_TRUE(store.SaveFlat(BuildIndex(50, 2, 6)).ok());  // stale gen 1
  const std::uint64_t gen = SaveCompactedTwice(store, index);
  ASSERT_EQ(gen, 3u);
  {
    auto container = ReadFile(store.GenerationDir(gen) + "/" +
                              SnapshotStore::kContainerFile);
    ASSERT_TRUE(container.ok());
    auto parsed = ContainerReader::Parse(container.value().data(),
                                         container.value().size());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().ChunksOfKind(ChunkKind::kShardTreeRef).size(),
              3u);
    EXPECT_TRUE(parsed.value().ChunksOfKind(ChunkKind::kFlatShard).empty());
  }
  // The ref target (gen 2) is the lineage's base; only gen 1 is stale.
  EXPECT_EQ(store.PruneStaleGenerations().value(), 1u);
  EXPECT_EQ(store.ListGenerations(), (std::vector<std::uint64_t>{2, 3}));

  serve::ThreadPool pool(2);
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec(), &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SnapshotManifest& m = loaded.value().manifest;
  EXPECT_EQ(m.index_kind, IndexKind::kFlatShardedMvpIndex);
  EXPECT_EQ(m.version(), kManifestVersionFlatLineage);
  EXPECT_EQ(m.base_generation, 2u);
  EXPECT_EQ(m.next_stable_id, 400u);
  EXPECT_EQ(m.last_applied_seq, 9u);
  EXPECT_EQ(loaded.value().stable_ids, EvenStableIds(index));
  ExpectIdenticalResults(index, loaded.value().index);

  // The overlay restarts on it, serving the stable ids.
  auto overlay = Overlay::Open(dir_, L2(), VectorCodec());
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  EXPECT_EQ(overlay.value()->size(), 200u);
  EXPECT_EQ(overlay.value()->next_stable_id(), 400u);
  for (const auto& q : dataset::UniformQueryVectors(8, 6, 31)) {
    auto want = index.KnnSearch(q, 6);
    for (Neighbor& hit : want) hit.id *= 2;
    EXPECT_EQ(overlay.value()->KnnSearch(q, 6), want);
  }
}

TEST_F(SnapshotTest, DamagedRefTargetChunkIsCorruption) {
  // Flip one bit of a stored coordinate in a chunk that generation 2 names
  // by reference. The arena stays structurally valid and generation 2's
  // fingerprint does not cover generation 1's container, so only the
  // referenced chunk's own CRC32C can notice.
  SnapshotStore store(dir_);
  const Index index = BuildIndex(120, 2, 8);
  ASSERT_EQ(SaveCompactedTwice(store, index), 2u);
  const std::string path =
      store.GenerationDir(1) + "/" + SnapshotStore::kContainerFile;
  auto container = ReadFile(path);
  ASSERT_TRUE(container.ok());
  std::vector<std::uint8_t> bytes = std::move(container).ValueOrDie();
  auto parsed = ContainerReader::Parse(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok());
  const auto arenas = parsed.value().ChunksOfKind(ChunkKind::kFlatShard);
  const ChunkEntry entry = parsed.value().chunk(arenas[1]);
  flat::FlatHeaderRec header;
  std::memcpy(&header, bytes.data() + entry.offset + sizeof(std::uint64_t),
              sizeof(header));
  bytes[entry.offset + sizeof(std::uint64_t) + header.objects_offset] ^= 0x01;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  const Status loaded = store.LoadSharded<Vector>(L2(), VectorCodec()).status();
  EXPECT_EQ(loaded.code(), StatusCode::kCorruption) << loaded.ToString();
  EXPECT_NE(loaded.message().find("of gen-000001 CRC32C mismatch"),
            std::string::npos)
      << loaded.ToString();
  EXPECT_EQ(Overlay::Open(dir_, L2(), VectorCodec()).status().code(),
            StatusCode::kCorruption);
}

TEST_F(SnapshotTest, ManifestV5RoundTrips) {
  SnapshotManifest manifest;
  manifest.index_kind = IndexKind::kFlatShardedMvpIndex;
  manifest.object_count = 45;
  manifest.num_chunks = 5;
  manifest.payload_bytes = 4096;
  manifest.dataset_fingerprint = 0x1234;
  manifest.num_shards = 2;
  manifest.order = 3;
  manifest.leaf_capacity = 4;
  manifest.num_path_distances = 2;
  manifest.seed = 7;
  manifest.next_stable_id = 48;
  manifest.last_applied_seq = 51;
  for (const bool partitioned : {false, true}) {
    if (partitioned) {
      manifest.partition = ShardPartition{1, 5, {{0.0, 0.4}, {0.4, 1.3}}};
      manifest.base_generation = 3;
      manifest.leader_epoch = 2;
    }
    const auto bytes = manifest.Serialize();
    EXPECT_EQ(manifest.version(), kManifestVersionFlatLineage);
    auto parsed = SnapshotManifest::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().partition, manifest.partition);
    EXPECT_EQ(parsed.value().next_stable_id, 48u);
    EXPECT_EQ(parsed.value().base_generation, manifest.base_generation);
    EXPECT_EQ(parsed.value().leader_epoch, manifest.leader_epoch);
    EXPECT_EQ(parsed.value().Serialize(), bytes);
  }
  // A flat generation without lineage keeps its v1/v4 bytes, and so does a
  // lineage-bearing generation of another kind.
  SnapshotManifest plain = manifest;
  plain.next_stable_id = plain.last_applied_seq = plain.base_generation = 0;
  plain.leader_epoch = 0;
  EXPECT_EQ(plain.version(), kManifestVersionPartition);
  SnapshotManifest delta = manifest;
  delta.index_kind = IndexKind::kDynamicDelta;
  EXPECT_EQ(delta.version(), kManifestVersionPartition);
}

}  // namespace
}  // namespace mvp::snapshot
