#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_store.h"
#include "golden_arenas.h"

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
/// and answering exactly.
///
/// Re-bless (after an INTENTIONAL format change):
///   MVPT_BLESS_GOLDEN=1 ./flat_format_golden_test
/// then commit the rewritten tests/testdata/ contents.

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

TEST(FlatFormatGoldenTest, HeapSnapshotBytesStable) {
  CheckGolden("golden_heap", [](SnapshotStore& store) {
    return store.SaveSharded(GoldenIndex(), VectorCodec());
  });
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
/// reader keeps opening real v1 snapshots from the field — upgraded to v2
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

/// A v1 arena's bytes, validated and upgraded.
std::vector<std::uint8_t> MustUpgrade(const std::vector<std::uint8_t>& v1) {
  auto parts = flat::ParseFlatArena(v1.data(), v1.size());
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  if (!parts.ok()) return {};
  EXPECT_EQ(parts.value().header.version, flat::kFlatVersionV1);
  auto upgraded = flat::UpgradeFlatArena(parts.value());
  EXPECT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  return upgraded.ok() ? std::move(upgraded).ValueOrDie()
                       : std::vector<std::uint8_t>{};
}

/// The frozen v1 arenas upgrade byte for byte to the v2 arenas the v2
/// writer produced for the same (round-robin) trees.
TEST(FlatFormatGoldenTest, FrozenV1ArenasUpgradeToGoldenV2Bytes) {
  if (BlessMode()) GTEST_SKIP();
  const auto v1 = GoldenShardArenas(GoldenDir("golden_flat_v1"));
  const auto v2 = GoldenShardArenas(GoldenDir("golden_flat_round_robin"));
  ASSERT_EQ(v1.size(), 2u);
  ASSERT_EQ(v2.size(), v1.size());
  for (std::size_t s = 0; s < v1.size(); ++s) {
    EXPECT_EQ(MustUpgrade(v1[s]), v2[s]) << "shard " << s;
  }
}

/// The same for the fuzz corpus's frozen v1 seed and its v2 twin, both one
/// 32-point tree. Each seed is [u8 harness mode][arena].
TEST(FlatFormatGoldenTest, CorpusV1ArenaUpgradesToCorpusArena) {
  if (BlessMode()) GTEST_SKIP();
  const std::string dir = std::string(MVPT_CORPUS_DIR) + "/flat_arena/";
  const auto v1_seed = MustRead(dir + "arena_v1.bin");
  const auto v2_seed = MustRead(dir + "arena.bin");
  ASSERT_FALSE(v1_seed.empty());
  ASSERT_FALSE(v2_seed.empty());
  const std::vector<std::uint8_t> v1(v1_seed.begin() + 1, v1_seed.end());
  const std::vector<std::uint8_t> v2(v2_seed.begin() + 1, v2_seed.end());
  EXPECT_EQ(MustUpgrade(v1), v2);
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
    EXPECT_EQ(header.version, flat::kFlatVersionV2);
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
