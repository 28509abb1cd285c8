#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "dynamic/mvp_forest.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

/// Golden-file layer for the snapshot formats: canonical fixture stores
/// (heap-tree and flat-arena) are COMMITTED under tests/testdata/, and this
/// suite regenerates each from its fixed recipe and byte-compares every
/// file. Any change to the on-disk encoding — field order, alignment,
/// checksum placement, container layout — fails here first, forcing an
/// explicit decision: bump the format version and re-bless, or fix the
/// accidental incompatibility.
///
/// golden_heap and golden_flat hold the recipe's shard partition (version-4
/// manifests; flat id maps). golden_heap_round_robin, golden_flat_round_robin
/// and golden_flat_v1 are FROZEN: written by earlier releases, which dealt
/// objects out round-robin, they are never re-blessed and must keep opening
/// and answering exactly. golden_flat_v2 is frozen too: golden_flat as the
/// v2 arena writer wrote it, before arenas stored rows in leaf order (v3).
/// So is golden_flat_v3: golden_flat as the v3 arena writer wrote it.
/// golden_heap and golden_heap_compacted are frozen as well: they hold the
/// MVPT stream layout (index kind 1), which no current writer emits, so
/// they pin that the layout keeps opening.
/// golden_delta is frozen too: a delta generation over a flat base, whose
/// memtable levels are MVPT streams SaveDelta still writes, so it pins
/// those bytes as well as that they keep opening.
///
/// Re-bless (after an INTENTIONAL format change):
///   MVPT_BLESS_GOLDEN=1 ./flat_format_golden_test
/// then commit the rewritten tests/testdata/ contents (only golden_flat).

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

#if !defined(MVPT_TESTDATA_DIR) || !defined(MVPT_CORPUS_DIR)
#error "flat_format_golden_test requires MVPT_TESTDATA_DIR and MVPT_CORPUS_DIR"
#endif

/// The fixture recipe. Everything is pinned — dataset seed, build
/// parameters, shard count — so the snapshot bytes are a pure function of
/// the format. Small on purpose: the fixtures live in the repository.
std::vector<Vector> GoldenData() { return dataset::UniformVectors(48, 4, 7); }

Index GoldenIndex() {
  Index::Options options;
  options.num_shards = 2;
  options.tree.order = 3;
  options.tree.leaf_capacity = 4;
  options.tree.num_path_distances = 2;
  auto built = Index::Build(GoldenData(), L2(), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).ValueOrDie();
}

bool BlessMode() {
  const char* env = std::getenv("MVPT_BLESS_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string GoldenDir(const std::string& name) {
  return std::string(MVPT_TESTDATA_DIR) + "/" + name;
}

/// Writes the recipe's snapshot into `dir` with the given saver.
template <typename SaveFn>
void WriteStore(const std::string& dir, const SaveFn& save) {
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  const auto saved = save(store);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved.value(), 1u);  // fixture is always generation 1
}

std::vector<std::uint8_t> MustRead(const std::string& path) {
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString()
                          << " (run with MVPT_BLESS_GOLDEN=1 to create)";
  return bytes.ok() ? std::move(bytes).ValueOrDie()
                    : std::vector<std::uint8_t>{};
}

void ExpectFileBytesEqual(const std::string& golden,
                          const std::string& fresh) {
  const auto want = MustRead(golden);
  const auto got = MustRead(fresh);
  ASSERT_EQ(want.size(), got.size())
      << golden << ": size drifted — the on-disk format changed";
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i])
        << golden << ": byte " << i << " drifted — the on-disk format changed";
  }
}

void CheckGolden(const std::string& name,
                 const std::function<Result<std::uint64_t>(SnapshotStore&)>&
                     save) {
  const std::string golden = GoldenDir(name);
  if (BlessMode()) {
    WriteStore(golden, save);
    GTEST_SKIP() << "blessed " << golden;
  }
  const std::string fresh = ::testing::TempDir() + "/golden_" + name;
  WriteStore(fresh, save);
  for (const char* file :
       {"CURRENT", "gen-000001/MANIFEST", "gen-000001/shards.mvps"}) {
    ExpectFileBytesEqual(golden + "/" + file, fresh + "/" + file);
  }
  std::filesystem::remove_all(fresh);
}

/// golden_heap is FROZEN and never re-blessed: no writer in the library
/// emits the MVPT stream layout any more. WriteHeapGeneration, the suites'
/// kind-1 writer, must reproduce every byte of it from the recipe.
TEST(FlatFormatGoldenTest, HeapSnapshotBytesStable) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  const std::string golden = GoldenDir("golden_heap");
  const std::string fresh = ::testing::TempDir() + "/golden_heap_rewritten";
  std::filesystem::remove_all(fresh);
  ASSERT_NO_FATAL_FAILURE(WriteHeapGeneration(fresh, GoldenIndex()));
  for (const char* file :
       {"CURRENT", "gen-000001/MANIFEST", "gen-000001/shards.mvps"}) {
    ExpectFileBytesEqual(golden + "/" + file, fresh + "/" + file);
  }
  std::filesystem::remove_all(fresh);
}

TEST(FlatFormatGoldenTest, FlatSnapshotBytesStable) {
  CheckGolden("golden_flat", [](SnapshotStore& store) {
    return store.SaveFlat(GoldenIndex());
  });
}

TEST(FlatFormatGoldenTest, GoldenHeapFixtureLoadsAndMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP();
  SnapshotStore store(GoldenDir("golden_heap"));
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Index rebuilt = GoldenIndex();
  const auto queries = dataset::UniformQueryVectors(40, 4, 11);
  for (const auto& q : queries) {
    const auto a = loaded.value().index.KnnSearch(q, 5);
    const auto b = rebuilt.KnnSearch(q, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(FlatFormatGoldenTest, GoldenFixturesRecordThePartition) {
  if (BlessMode()) GTEST_SKIP();
  const auto partition = GoldenIndex().partition();
  ASSERT_TRUE(partition.has_value());
  for (const char* name : {"golden_heap", "golden_flat"}) {
    SnapshotStore store(GoldenDir(name));
    auto manifest = store.ReadManifest(1);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest.value().version(), kManifestVersionPartition) << name;
    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().index.partition(), partition) << name;
  }
}

/// Results and all four SearchStats counters of two searches agree.
void ExpectSameSearch(const std::vector<Neighbor>& a,
                      const std::vector<Neighbor>& b, const SearchStats& sa,
                      const SearchStats& sb) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
  EXPECT_EQ(sa.distance_computations, sb.distance_computations);
  EXPECT_EQ(sa.nodes_visited, sb.nodes_visited);
  EXPECT_EQ(sa.leaf_points_seen, sb.leaf_points_seen);
  EXPECT_EQ(sa.leaf_points_filtered, sb.leaf_points_filtered);
}

/// Results of two searches agree (ids and bit-identical distances).
void ExpectSameResults(const std::vector<Neighbor>& a,
                       const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);
  }
}

// ---- golden_heap_compacted ---------------------------------------------
//
// FROZEN, never re-blessed: written by a release whose compaction wrote the
// MVPT stream layout, through a DynamicOverlay whose rebuild options are
// GoldenIndex's. The recipe's 48 points were inserted in order (stable ids
// 0..47), stable ids 5, 17 and 40 erased, then Compact() committed
// generation 1 (two kShardTree chunks and a kStableIds chunk that is not the
// identity) and a second Compact(), with nothing changed, committed
// generation 2: two kShardTreeRef chunks naming generation 1's shard chunks,
// plus the same kStableIds chunk. The WAL was not kept.

constexpr std::size_t kCompactedErased[] = {5, 17, 40};

/// The compacted fixture's live set, ascending by stable id.
std::vector<std::uint64_t> CompactedStableIds() {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; id < 48; ++id) {
    if (std::find(std::begin(kCompactedErased), std::end(kCompactedErased),
                  id) == std::end(kCompactedErased)) {
      ids.push_back(id);
    }
  }
  return ids;
}

/// A rebuild of the compacted fixture's live set, dense id g standing for
/// stable id CompactedStableIds()[g].
Index CompactedRebuild() {
  const auto data = GoldenData();
  std::vector<Vector> live;
  for (const std::uint64_t id : CompactedStableIds()) live.push_back(data[id]);
  auto built = Index::Build(std::move(live), L2(), GoldenIndex().options());
  EXPECT_TRUE(built.ok());
  return std::move(built).ValueOrDie();
}

/// `hits` of a rebuild, with dense id g mapped to stable id `stable[g]`.
std::vector<Neighbor> ToStable(std::vector<Neighbor> hits,
                               const std::vector<std::uint64_t>& stable) {
  for (Neighbor& hit : hits) hit.id = static_cast<std::size_t>(stable[hit.id]);
  return hits;
}

TEST(FlatFormatGoldenTest, FrozenCompactedHeapFixtureMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  SnapshotStore store(GoldenDir("golden_heap_compacted"));
  const Index rebuilt = CompactedRebuild();
  for (const std::uint64_t gen : {1, 2}) {
    auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec(), nullptr, gen);
    ASSERT_TRUE(loaded.ok()) << gen << ": " << loaded.status().ToString();
    const auto& m = loaded.value().manifest;
    EXPECT_EQ(m.index_kind, IndexKind::kShardedMvpIndex);
    EXPECT_EQ(m.next_stable_id, 48u);
    EXPECT_EQ(m.base_generation, gen == 2 ? 1u : 0u);
    EXPECT_EQ(loaded.value().stable_ids, CompactedStableIds());
    const auto container = MustRead(store.GenerationDir(gen) + "/" +
                                    SnapshotStore::kContainerFile);
    auto parsed = ContainerReader::Parse(container.data(), container.size());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value()
                  .ChunksOfKind(gen == 2 ? ChunkKind::kShardTreeRef
                                         : ChunkKind::kShardTree)
                  .size(),
              2u);
    const Index& index = loaded.value().index;
    for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
      SearchStats ls, rs;
      const auto range = index.RangeSearch(q, 0.5, &ls);
      ExpectSameSearch(range, rebuilt.RangeSearch(q, 0.5, &rs), ls, rs);
      SearchStats lks, rks;
      const auto knn = index.KnnSearch(q, 5, &lks);
      ExpectSameSearch(knn, rebuilt.KnnSearch(q, 5, &rks), lks, rks);
    }
  }
}

TEST(FlatFormatGoldenTest, FrozenCompactedHeapFixtureServesThroughOverlay) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  const std::string dir = CopyFixtureStore(
      GoldenDir("golden_heap_compacted"),
      ::testing::TempDir() + "/golden_heap_compacted_overlay");
  {
    auto overlay = Overlay::Open(dir, L2(), VectorCodec());
    ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
    Overlay& o = *overlay.value();
    EXPECT_EQ(o.generation(), 2u);
    EXPECT_EQ(o.size(), 45u);
    EXPECT_EQ(o.next_stable_id(), 48u);
    const Index rebuilt = CompactedRebuild();
    const auto stable = CompactedStableIds();
    for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
      ExpectSameResults(o.RangeSearch(q, 0.5),
                        ToStable(rebuilt.RangeSearch(q, 0.5), stable));
      ExpectSameResults(o.KnnSearch(q, 5),
                        ToStable(rebuilt.KnnSearch(q, 5), stable));
    }
    EXPECT_EQ(o.Erase(17).code(), StatusCode::kNotFound);
    EXPECT_TRUE(o.Erase(16).ok());
  }
  std::filesystem::remove_all(dir);
}

// ---- golden_delta -------------------------------------------------------
//
// FROZEN, never re-blessed: a delta generation over a flat base.
// Generation 1 is the recipe's flat snapshot (SaveFlat of GoldenIndex()).
// Generation 2 is SaveDeltaRecipe's SaveDelta: a kForest chunk holding
// DeltaForest() — its levels as MVPT streams (MvpForest::Serialize, one
// MvpTree::Serialize per level) — the stable ids 48.. of the forest's
// inserts, and the base tombstones kDeltaBaseErased. The WAL was not kept.

using Forest = dynamic::MvpForest<Vector, L2>;

constexpr std::size_t kDeltaInserts = 27;
constexpr std::uint64_t kDeltaBaseErased[] = {5, 17, 40};
constexpr std::size_t kDeltaForestErased[] = {3, 20};

/// The delta recipe's inserted points: forest id f is stable id 48 + f.
std::vector<Vector> DeltaInserts() {
  return dataset::UniformVectors(kDeltaInserts, 4, 13);
}

/// The memtable the delta generation holds: DeltaInserts() in order, with
/// a buffer of 8, so levels of 8 and 16 points and 3 buffered, and then
/// forest ids kDeltaForestErased erased. The levels' trees take the
/// recipe's tree options.
Forest DeltaForest() {
  Forest::Options options;
  options.tree = GoldenIndex().options().tree;
  options.buffer_capacity = 8;
  Forest forest(L2(), options);
  for (Vector& v : DeltaInserts()) forest.Insert(std::move(v));
  for (const std::size_t id : kDeltaForestErased) {
    EXPECT_TRUE(forest.Erase(id).ok());
  }
  EXPECT_EQ(forest.num_trees(), 2u);
  EXPECT_EQ(forest.buffered(), 3u);
  return forest;
}

/// Writes the recipe's delta generation into `store`, whose committed
/// generation 1 is the base.
Result<std::uint64_t> SaveDeltaRecipe(SnapshotStore& store) {
  std::vector<std::uint64_t> forest_ids(kDeltaInserts);
  std::iota(forest_ids.begin(), forest_ids.end(), 48);
  const std::vector<std::uint64_t> tombstones(std::begin(kDeltaBaseErased),
                                              std::end(kDeltaBaseErased));
  const std::uint64_t writes =
      kDeltaInserts + std::size(kDeltaBaseErased) + std::size(kDeltaForestErased);
  return store.SaveDelta(DeltaForest(), forest_ids, tombstones,
                         /*base_generation=*/1, /*last_applied_seq=*/writes,
                         /*next_stable_id=*/48 + kDeltaInserts, VectorCodec());
}

/// SaveDelta of the recipe over the fixture's base reproduces every byte
/// of the fixture's delta generation, so MvpForest::Serialize and the
/// MVPT stream of each memtable level keep their exact encoding.
TEST(FlatFormatGoldenTest, DeltaSnapshotBytesStable) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  const std::string golden = GoldenDir("golden_delta");
  const std::string fresh = CopyFixtureStore(
      golden, ::testing::TempDir() + "/golden_delta_rewritten");
  std::filesystem::remove_all(fresh + "/gen-000002");
  const std::string base = "gen-000001\n";
  ASSERT_TRUE(WriteFile(fresh + "/" + SnapshotStore::kCurrentFile,
                        std::vector<std::uint8_t>(base.begin(), base.end()))
                  .ok());
  SnapshotStore store(fresh);
  const auto saved = SaveDeltaRecipe(store);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved.value(), 2u);
  for (const char* file :
       {"CURRENT", "gen-000002/MANIFEST", "gen-000002/shards.mvps"}) {
    ExpectFileBytesEqual(golden + "/" + file, fresh + "/" + file);
  }
  std::filesystem::remove_all(fresh);
}

/// The delta fixture opens through DynamicOverlay (base, tombstones and
/// memtable) and answers exactly as a rebuild of its live set does.
TEST(FlatFormatGoldenTest, FrozenDeltaFixtureServesThroughOverlay) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  // The live set ascending by stable id, so a rebuild's dense ids keep
  // the stable ids' order and its ties.
  std::vector<Vector> live;
  std::vector<std::uint64_t> stable;
  const auto keep = [&](auto&& points, std::uint64_t first, const auto& erased) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (std::find(std::begin(erased), std::end(erased), i) !=
          std::end(erased)) {
        continue;
      }
      live.push_back(points[i]);
      stable.push_back(first + i);
    }
  };
  keep(GoldenData(), 0, kDeltaBaseErased);
  keep(DeltaInserts(), 48, kDeltaForestErased);
  auto rebuilt = Index::Build(std::move(live), L2(), GoldenIndex().options());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  const std::string dir = CopyFixtureStore(
      GoldenDir("golden_delta"), ::testing::TempDir() + "/golden_delta_overlay");
  {
    auto overlay = Overlay::Open(dir, L2(), VectorCodec());
    ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
    Overlay& o = *overlay.value();
    EXPECT_EQ(o.generation(), 2u);
    EXPECT_EQ(o.base_generation(), 1u);
    EXPECT_EQ(o.size(), stable.size());
    EXPECT_EQ(o.next_stable_id(), 48 + kDeltaInserts);
    for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
      ExpectSameResults(o.RangeSearch(q, 0.5),
                        ToStable(rebuilt.value().RangeSearch(q, 0.5), stable));
      ExpectSameResults(o.KnnSearch(q, 5),
                        ToStable(rebuilt.value().KnnSearch(q, 5), stable));
    }
  }
  std::filesystem::remove_all(dir);
}

/// The frozen round-robin fixtures open through LoadSharded with no
/// partition, answer exactly as a partitioned rebuild does, and agree with
/// each other in all four counters.
TEST(FlatFormatGoldenTest, FrozenRoundRobinFixturesOpenAndMatchRebuild) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixtures are never re-blessed";
  SnapshotStore heap_store(GoldenDir("golden_heap_round_robin"));
  SnapshotStore flat_store(GoldenDir("golden_flat_round_robin"));
  auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
  auto flat = flat_store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(heap.value().manifest.index_kind, IndexKind::kShardedMvpIndex);
  ASSERT_EQ(flat.value().manifest.index_kind, IndexKind::kFlatShardedMvpIndex);
  EXPECT_FALSE(heap.value().index.partition().has_value());
  EXPECT_FALSE(flat.value().index.partition().has_value());
  const Index rebuilt = GoldenIndex();
  for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
    SearchStats hs, fs, hks, fks;
    const auto heap_range = heap.value().index.RangeSearch(q, 0.5, &hs);
    ExpectSameSearch(heap_range, flat.value().index.RangeSearch(q, 0.5, &fs),
                     hs, fs);
    ExpectSameResults(heap_range, rebuilt.RangeSearch(q, 0.5));
    const auto heap_knn = heap.value().index.KnnSearch(q, 5, &hks);
    ExpectSameSearch(heap_knn, flat.value().index.KnnSearch(q, 5, &fks), hks,
                     fks);
    ExpectSameResults(heap_knn, rebuilt.KnnSearch(q, 5));
  }
}

TEST(FlatFormatGoldenTest, GoldenFlatFixtureLoadsAndMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP();
  SnapshotStore store(GoldenDir("golden_flat"));
  auto loaded = store.OpenFlat(L2());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().manifest.index_kind,
            IndexKind::kFlatShardedMvpIndex);
  const Index rebuilt = GoldenIndex();
  const auto queries = dataset::UniformQueryVectors(40, 4, 11);
  for (const auto& q : queries) {
    const auto a = loaded.value().index.RangeSearch(q, 0.5);
    const auto b = rebuilt.RangeSearch(q, 0.5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

/// The v1 arena fixture is FROZEN: it was blessed before the v2 SoA-leaf
/// layout existed and is never re-blessed, so this test proves the current
/// reader keeps opening real v1 snapshots from the field — upgraded to v3
/// at open. It answers queries exactly as a fresh build does, and as the
/// frozen round-robin v2 fixture of the same trees does, stats included.
/// (Bless mode leaves the directory untouched on purpose.)
TEST(FlatFormatGoldenTest, FrozenV1FixtureStillOpensAndMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  SnapshotStore store(GoldenDir("golden_flat_v1"));
  auto loaded = store.OpenFlat(L2());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Index& index = loaded.value().index;
  ASSERT_EQ(loaded.value().manifest.index_kind,
            IndexKind::kFlatShardedMvpIndex);
  SnapshotStore v2_store(GoldenDir("golden_flat_round_robin"));
  auto v2 = v2_store.OpenFlat(L2());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  const Index rebuilt = GoldenIndex();
  const auto queries = dataset::UniformQueryVectors(40, 4, 11);
  for (const auto& q : queries) {
    SearchStats vs, rs;
    const auto range = index.RangeSearch(q, 0.5, &vs);
    ExpectSameSearch(range, v2.value().index.RangeSearch(q, 0.5, &rs), vs, rs);
    ExpectSameResults(range, rebuilt.RangeSearch(q, 0.5));
    SearchStats vks, rks;
    const auto knn = index.KnnSearch(q, 5, &vks);
    ExpectSameSearch(knn, v2.value().index.KnnSearch(q, 5, &rks), vks, rks);
    ExpectSameResults(knn, rebuilt.KnnSearch(q, 5));
  }
}

/// The frozen v2 fixture opens through the one upgrade path and answers
/// exactly as golden_flat, the v3 arenas of the same trees, does, stats
/// included, and as a fresh build does.
TEST(FlatFormatGoldenTest, FrozenV2FixtureStillOpensAndMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  SnapshotStore v2_store(GoldenDir("golden_flat_v2"));
  SnapshotStore v3_store(GoldenDir("golden_flat"));
  auto v2 = v2_store.OpenFlat(L2());
  auto v3 = v3_store.OpenFlat(L2());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v2.value().index.partition(), v3.value().index.partition());
  const Index rebuilt = GoldenIndex();
  for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
    SearchStats vs, cs;
    const auto range = v2.value().index.RangeSearch(q, 0.5, &vs);
    ExpectSameSearch(range, v3.value().index.RangeSearch(q, 0.5, &cs), vs,
                     cs);
    ExpectSameResults(range, rebuilt.RangeSearch(q, 0.5));
    SearchStats vks, cks;
    const auto knn = v2.value().index.KnnSearch(q, 5, &vks);
    ExpectSameSearch(knn, v3.value().index.KnnSearch(q, 5, &cks), vks, cks);
    ExpectSameResults(knn, rebuilt.KnnSearch(q, 5));
  }
}

/// The frozen v3 fixture answers exactly as golden_flat, the current
/// arenas of the same trees, does, stats included, and as a fresh build
/// does.
TEST(FlatFormatGoldenTest, FrozenV3FixtureStillOpensAndMatchesRebuild) {
  if (BlessMode()) GTEST_SKIP() << "frozen fixture is never re-blessed";
  SnapshotStore v3_store(GoldenDir("golden_flat_v3"));
  SnapshotStore current_store(GoldenDir("golden_flat"));
  auto v3 = v3_store.OpenFlat(L2());
  auto current = current_store.OpenFlat(L2());
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(v3.value().index.partition(), current.value().index.partition());
  const Index rebuilt = GoldenIndex();
  for (const auto& q : dataset::UniformQueryVectors(40, 4, 11)) {
    SearchStats vs, cs;
    const auto range = v3.value().index.RangeSearch(q, 0.5, &vs);
    ExpectSameSearch(range, current.value().index.RangeSearch(q, 0.5, &cs),
                     vs, cs);
    ExpectSameResults(range, rebuilt.RangeSearch(q, 0.5));
    SearchStats vks, cks;
    const auto knn = v3.value().index.KnnSearch(q, 5, &vks);
    ExpectSameSearch(knn, current.value().index.KnnSearch(q, 5, &cks), vks,
                     cks);
    ExpectSameResults(knn, rebuilt.KnnSearch(q, 5));
  }
}

/// A v1, v2 or v3 arena's bytes, validated and upgraded to v4.
std::vector<std::uint8_t> MustUpgrade(const std::vector<std::uint8_t>& legacy,
                                      std::uint32_t version) {
  auto parts = flat::ParseFlatArena(legacy.data(), legacy.size());
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  if (!parts.ok()) return {};
  EXPECT_EQ(parts.value().header.version, version);
  auto upgraded = flat::UpgradeFlatArena(parts.value());
  EXPECT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  return upgraded.ok() ? std::move(upgraded).ValueOrDie()
                       : std::vector<std::uint8_t>{};
}

/// The arena BuildFlatArena writes for each shard tree of the frozen kind-1
/// store `name`.
std::vector<std::vector<std::uint8_t>> HeapStoreArenas(
    const std::string& name) {
  SnapshotStore store(GoldenDir(name));
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<std::vector<std::uint8_t>> arenas;
  if (!loaded.ok()) return arenas;
  const Index& index = loaded.value().index;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const auto& tree = index.shard(s);
    arenas.push_back(flat::BuildFlatArena(tree.options(), tree.rows(),
                                          tree.dim(), tree.arrays()));
  }
  return arenas;
}

/// The frozen v1 arenas and their frozen round-robin v2 twins upgrade byte
/// for byte to the current (v4) arenas BuildFlatArena writes for the same
/// trees, which the frozen round-robin heap fixture holds as MVPT streams.
TEST(FlatFormatGoldenTest, FrozenV1AndV2ArenasUpgradeToBuiltV3Bytes) {
  if (BlessMode()) GTEST_SKIP();
  const auto v1 = GoldenShardArenas(GoldenDir("golden_flat_v1"));
  const auto v2 = GoldenShardArenas(GoldenDir("golden_flat_round_robin"));
  const auto v3 = HeapStoreArenas("golden_heap_round_robin");
  ASSERT_EQ(v1.size(), 2u);
  ASSERT_EQ(v2.size(), v1.size());
  ASSERT_EQ(v3.size(), v1.size());
  for (std::size_t s = 0; s < v1.size(); ++s) {
    EXPECT_EQ(MustUpgrade(v1[s], flat::kFlatVersionV1), v3[s]) << "shard " << s;
    EXPECT_EQ(MustUpgrade(v2[s], flat::kFlatVersionV2), v3[s]) << "shard " << s;
  }
}

/// Each frozen golden_flat_v2 arena upgrades byte for byte to the current
/// (v4) arena BuildFlatArena writes for the same tree: the recipe's shard,
/// which golden_flat holds.
TEST(FlatFormatGoldenTest, FrozenV2ArenasUpgradeToGoldenV3Bytes) {
  if (BlessMode()) GTEST_SKIP();
  const auto v2 = GoldenShardArenas(GoldenDir("golden_flat_v2"));
  const auto v3 = GoldenShardArenas(GoldenDir("golden_flat"));
  const Index rebuilt = GoldenIndex();
  ASSERT_EQ(v2.size(), rebuilt.num_shards());
  ASSERT_EQ(v3.size(), v2.size());
  for (std::size_t s = 0; s < v2.size(); ++s) {
    const auto& tree = rebuilt.shard(s);
    const auto built = flat::BuildFlatArena(tree.options(), tree.rows(),
                                            tree.dim(), tree.arrays());
    EXPECT_EQ(built, v3[s]) << "shard " << s;
    EXPECT_EQ(MustUpgrade(v2[s], flat::kFlatVersionV2), built)
        << "shard " << s;
  }
}

/// The same for the fuzz corpus's frozen v1, v2 and v3 seeds and their v4
/// twin, all one 32-point tree. Each seed is [u8 harness mode][arena].
std::vector<std::uint8_t> CorpusArena(const std::string& name) {
  const auto seed =
      MustRead(std::string(MVPT_CORPUS_DIR) + "/flat_arena/" + name);
  EXPECT_FALSE(seed.empty()) << name;
  return seed.empty() ? seed
                      : std::vector<std::uint8_t>(seed.begin() + 1, seed.end());
}

TEST(FlatFormatGoldenTest, CorpusV1ArenaUpgradesToCorpusArena) {
  if (BlessMode()) GTEST_SKIP();
  EXPECT_EQ(MustUpgrade(CorpusArena("arena_v1.bin"), flat::kFlatVersionV1),
            CorpusArena("arena.bin"));
}

TEST(FlatFormatGoldenTest, CorpusV2ArenaUpgradesToCorpusArena) {
  if (BlessMode()) GTEST_SKIP();
  EXPECT_EQ(MustUpgrade(CorpusArena("arena_v2.bin"), flat::kFlatVersionV2),
            CorpusArena("arena.bin"));
}

TEST(FlatFormatGoldenTest, CorpusV3ArenaUpgradesToCorpusArena) {
  if (BlessMode()) GTEST_SKIP();
  EXPECT_EQ(MustUpgrade(CorpusArena("arena_v3.bin"), flat::kFlatVersionV3),
            CorpusArena("arena.bin"));
}

/// Each frozen golden_flat_v3 arena upgrades byte for byte to the v4 arena
/// BuildFlatArena writes for the same tree, which golden_flat holds: the
/// upgrade narrows each double leaf column exactly as a build does.
TEST(FlatFormatGoldenTest, FrozenV3ArenasUpgradeToGoldenV4Bytes) {
  if (BlessMode()) GTEST_SKIP();
  const auto v3 = GoldenShardArenas(GoldenDir("golden_flat_v3"));
  const auto v4 = GoldenShardArenas(GoldenDir("golden_flat"));
  const Index rebuilt = GoldenIndex();
  ASSERT_EQ(v3.size(), rebuilt.num_shards());
  ASSERT_EQ(v4.size(), v3.size());
  for (std::size_t s = 0; s < v3.size(); ++s) {
    const auto& tree = rebuilt.shard(s);
    const auto built = flat::BuildFlatArena(tree.options(), tree.rows(),
                                            tree.dim(), tree.arrays());
    EXPECT_EQ(built, v4[s]) << "shard " << s;
    EXPECT_EQ(MustUpgrade(v3[s], flat::kFlatVersionV3), built)
        << "shard " << s;
  }
}

/// The corpus seed with one bit of a float D1 flipped opens, and
/// ValidateInvariants names the entry whose D1 no longer is the narrowing
/// of its distance: entry 0, at row 0.
TEST(FlatFormatGoldenTest, CorpusFloatColumnBitFlipNamesTheEntry) {
  if (BlessMode()) GTEST_SKIP();
  const auto arena = CorpusArena("arena_d1_bitflip.bin");
  auto opened = flat::OpenTree(arena.data(), arena.size(), L2(), nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Status status = opened.value().ValidateInvariants();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  const std::string name = "object " +
                           std::to_string(opened.value().arrays().ids[0]) +
                           " at row 0: leaf D1";
  EXPECT_NE(status.message().find(name), std::string::npos)
      << status.ToString();
  const auto intact = CorpusArena("arena.bin");
  auto clean = flat::OpenTree(intact.data(), intact.size(), L2(), nullptr);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.value().ValidateInvariants().ok());
}

TEST(FlatFormatGoldenTest, GoldenFlatFixtureIsCurrentVersion) {
  if (BlessMode()) GTEST_SKIP();
  SnapshotStore store(GoldenDir("golden_flat"));
  auto loaded = store.OpenFlat(L2());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest.index_kind,
            IndexKind::kFlatShardedMvpIndex);
  const auto arenas = GoldenShardArenas(GoldenDir("golden_flat"));
  ASSERT_EQ(arenas.size(), loaded.value().index.num_shards());
  for (const auto& arena : arenas) {
    flat::FlatHeaderRec header;
    ASSERT_GE(arena.size(), sizeof(header));
    std::memcpy(&header, arena.data(), sizeof(header));
    EXPECT_EQ(header.version, flat::kFlatVersionV4);
  }
}

TEST(FlatFormatGoldenTest, GoldenFixturesAgreeWithEachOther) {
  if (BlessMode()) GTEST_SKIP();
  SnapshotStore heap_store(GoldenDir("golden_heap"));
  SnapshotStore flat_store(GoldenDir("golden_flat"));
  auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
  auto flat = flat_store.OpenFlat(L2());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const auto queries = dataset::UniformQueryVectors(40, 4, 12);
  for (const auto& q : queries) {
    SearchStats hs, fs;
    const auto a = heap.value().index.KnnSearch(q, 7, &hs);
    const auto b = flat.value().index.KnnSearch(q, 7, &fs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
    EXPECT_EQ(hs.distance_computations, fs.distance_computations);
  }
}

}  // namespace
}  // namespace mvp::snapshot
