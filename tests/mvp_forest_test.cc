#include "dynamic/mvp_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"

namespace mvp::dynamic {
namespace {

using metric::L2;
using metric::Vector;
using Forest = MvpForest<Vector, L2>;

Forest::Options SmallOptions() {
  Forest::Options options;
  options.buffer_capacity = 16;
  options.tree.order = 2;
  options.tree.leaf_capacity = 4;
  options.tree.num_path_distances = 4;
  return options;
}

TEST(MvpForestTest, EmptyForest) {
  Forest forest{L2(), SmallOptions()};
  EXPECT_EQ(forest.size(), 0u);
  EXPECT_TRUE(forest.RangeSearch({0, 0}, 1.0).empty());
  EXPECT_TRUE(forest.KnnSearch({0, 0}, 5).empty());
}

TEST(MvpForestTest, InsertAssignsSequentialIds) {
  Forest forest{L2(), SmallOptions()};
  EXPECT_EQ(forest.Insert({0, 0}), 0u);
  EXPECT_EQ(forest.Insert({1, 1}), 1u);
  EXPECT_EQ(forest.Insert({2, 2}), 2u);
  EXPECT_EQ(forest.size(), 3u);
}

TEST(MvpForestTest, RangeSearchMatchesLinearScanAfterManyInserts) {
  const auto data = dataset::UniformVectors(500, 6, 3);
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : data) forest.Insert(v);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(10, 6, 5);
  for (const auto& q : queries) {
    for (const double r : {0.0, 0.3, 0.8, 2.0}) {
      const auto got = forest.RangeSearch(q, r);
      const auto expected = reference.RangeSearch(q, r);
      ASSERT_EQ(got.size(), expected.size()) << "r=" << r;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(MvpForestTest, KnnMatchesLinearScan) {
  const auto data = dataset::UniformVectors(400, 5, 7);
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : data) forest.Insert(v);
  scan::LinearScan<Vector, L2> reference(data, L2());
  const auto queries = dataset::UniformQueryVectors(8, 5, 9);
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 7u, 25u}) {
      const auto got = forest.KnnSearch(q, k);
      const auto expected = reference.KnnSearch(q, k);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k;
      }
    }
  }
}

/// A caller's k-th distance as the starting cap (DynamicOverlay passes
/// its base answer's) skips only candidates strictly worse than it: with
/// the true k-th distance the answer is unchanged and costs no more, and
/// with a tighter cap everything at or under it is still returned.
TEST(MvpForestTest, KnnBoundSkipsOnlyWorseCandidates) {
  const auto data = dataset::UniformVectors(600, 6, 17);
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : data) forest.Insert(v);
  ASSERT_GT(forest.num_trees(), 1u);
  scan::LinearScan<Vector, L2> reference(data, L2());
  for (const auto& q : dataset::UniformQueryVectors(12, 6, 19)) {
    const auto want = reference.KnnSearch(q, 10);
    SearchStats open, capped;
    EXPECT_EQ(forest.KnnSearch(q, 10, &open), want);
    EXPECT_EQ(forest.KnnSearch(q, 10, &capped, want.back().distance), want);
    EXPECT_LE(capped.distance_computations, open.distance_computations);
    const double tight = want[4].distance;
    const auto got = forest.KnnSearch(q, 10, nullptr, tight);
    ASSERT_GE(got.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], want[i]);
  }
}

TEST(MvpForestTest, ForestWidthStaysLogarithmic) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(2000, 4, 11);
  for (const auto& v : data) forest.Insert(v);
  // 2000 / 16 = 125 buffer flushes; Bentley-Saxe keeps <= log2(125)+1 trees.
  EXPECT_LE(forest.num_trees(), 8u);
  EXPECT_LT(forest.buffered(), 16u);
}

TEST(MvpForestTest, EraseRemovesFromResults) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(100, 4, 13);
  std::vector<std::size_t> ids;
  for (const auto& v : data) ids.push_back(forest.Insert(v));
  ASSERT_TRUE(forest.Erase(ids[42]).ok());
  EXPECT_EQ(forest.size(), 99u);
  const auto hits = forest.RangeSearch(data[42], 0.0);
  for (const auto& hit : hits) EXPECT_NE(hit.id, ids[42]);
}

TEST(MvpForestTest, EraseUnknownIdFails) {
  Forest forest{L2(), SmallOptions()};
  EXPECT_EQ(forest.Erase(0).code(), StatusCode::kNotFound);
  forest.Insert({1, 2});
  EXPECT_TRUE(forest.Erase(0).ok());
  EXPECT_EQ(forest.Erase(0).code(), StatusCode::kNotFound);  // double erase
  EXPECT_EQ(forest.Erase(99).code(), StatusCode::kNotFound);
}

TEST(MvpForestTest, MixedInsertEraseMatchesReference) {
  Rng rng(17);
  Forest forest{L2(), SmallOptions()};
  std::vector<Vector> live_objects;
  std::vector<std::size_t> live_ids;
  const auto pool = dataset::UniformVectors(600, 4, 19);
  for (const auto& v : pool) {
    const std::size_t id = forest.Insert(v);
    live_objects.push_back(v);
    live_ids.push_back(id);
    // Randomly erase ~1/3 of the time.
    if (rng.NextIndex(3) == 0 && !live_ids.empty()) {
      const std::size_t victim = rng.NextIndex(live_ids.size());
      ASSERT_TRUE(forest.Erase(live_ids[victim]).ok());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
      live_objects.erase(live_objects.begin() +
                         static_cast<std::ptrdiff_t>(victim));
    }
  }
  ASSERT_EQ(forest.size(), live_ids.size());
  scan::LinearScan<Vector, L2> reference(live_objects, L2());
  const auto queries = dataset::UniformQueryVectors(10, 4, 21);
  for (const auto& q : queries) {
    for (const double r : {0.1, 0.5, 1.0}) {
      const auto got = forest.RangeSearch(q, r);
      const auto expected = reference.RangeSearch(q, r);
      ASSERT_EQ(got.size(), expected.size()) << "r=" << r;
      // Compare distances (ids differ: reference reindexes).
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
    for (const std::size_t k : {1u, 10u}) {
      const auto got = forest.KnnSearch(q, k);
      const auto expected = reference.KnnSearch(q, k);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(MvpForestTest, HeavyDeletionTriggersCompaction) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(512, 4, 23);
  std::vector<std::size_t> ids;
  for (const auto& v : data) ids.push_back(forest.Insert(v));
  // Erase 80%: tombstones must not accumulate past the threshold.
  for (std::size_t i = 0; i < 410; ++i) {
    ASSERT_TRUE(forest.Erase(ids[i]).ok());
  }
  EXPECT_EQ(forest.size(), 102u);
  // After compaction the forest holds one tree whose size is the live
  // count; all erased points physically gone from query paths.
  const auto all = forest.RangeSearch(Vector(4, 0.5), 1e9);
  EXPECT_EQ(all.size(), 102u);
}

TEST(MvpForestTest, CompactMergesToOneTree) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(300, 4, 29);
  for (const auto& v : data) forest.Insert(v);
  EXPECT_GT(forest.num_trees() + (forest.buffered() > 0 ? 1 : 0), 1u);
  forest.Compact();
  EXPECT_EQ(forest.num_trees(), 1u);
  EXPECT_EQ(forest.buffered(), 0u);
  EXPECT_EQ(forest.RangeSearch(Vector(4, 0.5), 1e9).size(), 300u);
}

TEST(MvpForestTest, QueriesBeatLinearScanCost) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(4000, 10, 31);
  for (const auto& v : data) forest.Insert(v);
  forest.Compact();
  SearchStats stats;
  forest.RangeSearch(data[0], 0.15, &stats);
  EXPECT_LT(stats.distance_computations, 4000u);
}

TEST(MvpForestTest, LongRandomizedStressAgainstReference) {
  // Deterministic fuzz: thousands of interleaved insert/erase/query ops
  // checked against a naive mirror. Exercises level merges, tombstone
  // attribution across id ranges, compactions, and buffer churn together.
  Rng rng(97);
  Forest::Options options = SmallOptions();
  options.buffer_capacity = 8;
  Forest forest{L2(), options};
  std::vector<std::pair<std::size_t, Vector>> mirror;  // (id, object)
  const auto pool = dataset::UniformVectors(1500, 3, 99);
  std::size_t next = 0;
  for (int op = 0; op < 3000; ++op) {
    const auto kind = rng.NextIndex(10);
    if (kind < 6 && next < pool.size()) {  // 60% insert
      const std::size_t id = forest.Insert(pool[next]);
      mirror.emplace_back(id, pool[next]);
      ++next;
    } else if (kind < 8 && !mirror.empty()) {  // 20% erase
      const std::size_t victim = rng.NextIndex(mirror.size());
      ASSERT_TRUE(forest.Erase(mirror[victim].first).ok());
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (op % 97 == 0) {  // occasional full query check
      const Vector q{rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
      const auto got = forest.RangeSearch(q, 0.4);
      std::vector<Neighbor> expected;
      L2 d;
      for (const auto& [id, obj] : mirror) {
        const double dist = d(q, obj);
        if (dist <= 0.4) expected.push_back(Neighbor{id, dist});
      }
      std::sort(expected.begin(), expected.end(), NeighborLess);
      ASSERT_EQ(got.size(), expected.size()) << "op " << op;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
      }
    }
  }
  EXPECT_EQ(forest.size(), mirror.size());
}

TEST(MvpForestTest, BufferCapacityOneDegeneratesGracefully) {
  Forest::Options options = SmallOptions();
  options.buffer_capacity = 1;  // every insert triggers a merge cascade
  Forest forest{L2(), options};
  const auto data = dataset::UniformVectors(64, 3, 51);
  for (const auto& v : data) forest.Insert(v);
  EXPECT_EQ(forest.size(), 64u);
  EXPECT_LE(forest.num_trees(), 7u);  // log2(64) + 1
  scan::LinearScan<Vector, L2> reference(data, L2());
  const Vector q{0.5, 0.5, 0.5};
  EXPECT_EQ(forest.RangeSearch(q, 0.4).size(),
            reference.RangeSearch(q, 0.4).size());
}

TEST(MvpForestTest, EraseEverythingThenReinsert) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(100, 3, 53);
  std::vector<std::size_t> ids;
  for (const auto& v : data) ids.push_back(forest.Insert(v));
  for (const std::size_t id : ids) ASSERT_TRUE(forest.Erase(id).ok());
  EXPECT_EQ(forest.size(), 0u);
  EXPECT_TRUE(forest.RangeSearch(Vector{0, 0, 0}, 1e9).empty());
  // Fresh inserts get fresh ids and work normally.
  const std::size_t id = forest.Insert(Vector{1, 2, 3});
  EXPECT_EQ(id, 100u);
  const auto hits = forest.RangeSearch(Vector{1, 2, 3}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 100u);
}

TEST(MvpForestTest, KnnStatsAreReported) {
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : dataset::UniformVectors(200, 4, 57)) forest.Insert(v);
  SearchStats stats;
  forest.KnnSearch(Vector{0.5, 0.5, 0.5, 0.5}, 5, &stats);
  EXPECT_GT(stats.distance_computations, 0u);
  // Each object costs at most one distance computation per query: <= n.
  EXPECT_LE(stats.distance_computations, 400u);
}

// k-NN skips deleted points inside each level's traversal (core::Exclusion)
// instead of over-fetching k + the level's tombstones. Tombstones here sit
// inside built levels — the query's own nearest points among them — and
// the answer must be the linear scan of the live set, ids and distances.
TEST(MvpForestTest, KnnSkipsTombstonesInsideBuiltLevels) {
  const auto data = dataset::UniformVectors(600, 5, 59);
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : data) forest.Insert(v);
  const std::size_t trees = forest.num_trees();
  ASSERT_GT(trees, 1u);
  // Ids below `leveled` were merged into static trees; the rest are
  // buffered.
  const std::size_t leveled = data.size() - forest.buffered();

  const auto queries = dataset::UniformQueryVectors(8, 5, 61);
  const L2 l2;
  std::vector<bool> erased(data.size(), false);
  const auto erase = [&](std::size_t id) {
    if (erased[id]) return;
    ASSERT_TRUE(forest.Erase(id).ok());
    erased[id] = true;
  };
  for (const auto& q : queries) {
    std::vector<Neighbor> leveled_hits;
    for (std::size_t id = 0; id < leveled; ++id) {
      leveled_hits.push_back(Neighbor{id, l2(q, data[id])});
    }
    std::sort(leveled_hits.begin(), leveled_hits.end(), NeighborLess);
    for (std::size_t i = 0; i < 12; ++i) erase(leveled_hits[i].id);
  }
  for (std::size_t id = 0; id < leveled; id += 4) erase(id);
  // Below the compaction threshold: the tombstones stay in the levels.
  ASSERT_EQ(forest.num_trees(), trees);
  ASSERT_GT(forest.tombstone_count(), 150u);

  std::vector<std::size_t> live_ids;
  std::vector<Vector> live_objects;
  for (std::size_t id = 0; id < data.size(); ++id) {
    if (erased[id]) continue;
    live_ids.push_back(id);
    live_objects.push_back(data[id]);
  }
  scan::LinearScan<Vector, L2> reference(live_objects, L2());
  for (const auto& q : queries) {
    for (const std::size_t k : {1u, 10u, 25u}) {
      const auto got = forest.KnnSearch(q, k);
      const auto expected = reference.KnnSearch(q, k);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, live_ids[expected[i].id]) << "k=" << k;
        EXPECT_EQ(got[i].distance, expected[i].distance) << "k=" << k;
      }
    }
  }
}

TEST(MvpForestTest, SerializeRoundTripPreservesEverything) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(300, 4, 41);
  std::vector<std::size_t> ids;
  for (const auto& v : data) ids.push_back(forest.Insert(v));
  for (std::size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(forest.Erase(ids[i * 3]).ok());
  }
  BinaryWriter writer;
  ASSERT_TRUE(forest.Serialize(&writer, VectorCodec()).ok());
  BinaryReader reader(writer.buffer());
  auto loaded =
      Forest::Deserialize(&reader, L2(), VectorCodec(), SmallOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(loaded.value().size(), forest.size());
  EXPECT_EQ(loaded.value().num_trees(), forest.num_trees());
  EXPECT_EQ(loaded.value().buffered(), forest.buffered());
  const auto queries = dataset::UniformQueryVectors(6, 4, 43);
  for (const auto& q : queries) {
    const auto a = forest.RangeSearch(q, 0.6);
    const auto b = loaded.value().RangeSearch(q, 0.6);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
    }
  }
  // The loaded forest keeps working as a dynamic index.
  const std::size_t new_id = loaded.value().Insert(Vector{9, 9, 9, 9});
  EXPECT_EQ(new_id, 300u);
  EXPECT_TRUE(loaded.value().Erase(new_id).ok());
}

TEST(MvpForestTest, DeserializeRejectsCorruptInput) {
  Forest forest{L2(), SmallOptions()};
  for (const auto& v : dataset::UniformVectors(100, 3, 47)) forest.Insert(v);
  BinaryWriter writer;
  ASSERT_TRUE(forest.Serialize(&writer, VectorCodec()).ok());
  const auto bytes = writer.TakeBuffer();
  for (const double fraction : {0.1, 0.5, 0.9}) {
    BinaryReader reader(
        bytes.data(),
        static_cast<std::size_t>(static_cast<double>(bytes.size()) * fraction));
    EXPECT_FALSE(
        Forest::Deserialize(&reader, L2(), VectorCodec(), SmallOptions())
            .ok());
  }
}

TEST(MvpForestTest, StableIdsSurviveMerges) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(200, 4, 37);
  std::vector<std::size_t> ids;
  for (const auto& v : data) ids.push_back(forest.Insert(v));
  // Exact-match query for each point must return its original id.
  for (std::size_t i = 0; i < data.size(); i += 17) {
    const auto hits = forest.RangeSearch(data[i], 0.0);
    ASSERT_FALSE(hits.empty());
    bool found = false;
    for (const auto& hit : hits) found = found || hit.id == ids[i];
    EXPECT_TRUE(found) << "id " << ids[i];
  }
}

TEST(MvpForestTest, ContainsTracksLiveness) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(60, 4, 41);
  for (const auto& v : data) forest.Insert(v);

  EXPECT_FALSE(forest.contains(60));   // never issued
  EXPECT_FALSE(forest.contains(999));  // far out of range
  for (std::size_t id = 0; id < 60; ++id) EXPECT_TRUE(forest.contains(id));

  ASSERT_TRUE(forest.Erase(5).ok());
  ASSERT_TRUE(forest.Erase(59).ok());  // one merged, one likely buffered
  EXPECT_FALSE(forest.contains(5));
  EXPECT_FALSE(forest.contains(59));
  EXPECT_TRUE(forest.contains(6));

  // A re-issued id is a NEW id; the erased ones stay dead forever.
  const std::size_t fresh = forest.Insert(data[5]);
  EXPECT_EQ(fresh, 60u);
  EXPECT_TRUE(forest.contains(fresh));
  EXPECT_FALSE(forest.contains(5));
}

TEST(MvpForestTest, ForEachLiveVisitsBufferAndEveryLevelExactlyOnce) {
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(150, 4, 43);
  for (const auto& v : data) forest.Insert(v);
  // Erase a spread of ids so some levels carry tombstones, then insert a
  // few more so the buffer is non-empty: the visit must cover the merged
  // levels AND the unmerged buffer, skipping exactly the tombstones.
  std::set<std::size_t> erased;
  for (std::size_t id = 0; id < 150; id += 13) {
    ASSERT_TRUE(forest.Erase(id).ok());
    erased.insert(id);
  }
  const auto extra = dataset::UniformVectors(5, 4, 44);
  for (const auto& v : extra) forest.Insert(v);
  ASSERT_GT(forest.buffered(), 0u);
  ASSERT_GT(forest.num_trees(), 0u);

  std::map<std::size_t, Vector> seen;
  // A buffered object comes as a const Vector&, a level's as a row view.
  forest.ForEachLive([&](std::size_t id, const auto& object) {
    EXPECT_TRUE(seen.emplace(id, Vector(object)).second)
        << "id visited twice: " << id;
  });
  ASSERT_EQ(seen.size(), forest.size());
  for (std::size_t id = 0; id < 155; ++id) {
    if (erased.count(id)) {
      EXPECT_FALSE(seen.count(id)) << id;
    } else {
      ASSERT_TRUE(seen.count(id)) << id;
      const Vector& want = id < 150 ? data[id] : extra[id - 150];
      EXPECT_EQ(seen[id], want) << id;
    }
  }
}

TEST(MvpForestTest, MergeMathKeepsLevelsContiguousAndComplete) {
  // The Bentley-Saxe invariant the overlay's checkpoint leans on: after any
  // insert pattern, every issued id is either buffered, in exactly one
  // level, or tombstoned — and each level holds a contiguous id range (so
  // erases can be attributed to levels by range). Exercised across the
  // doubling boundaries (buffer capacity 16: merges at 16, 32, 64, ...).
  Forest forest{L2(), SmallOptions()};
  const auto data = dataset::UniformVectors(300, 4, 47);
  for (std::size_t i = 0; i < data.size(); ++i) {
    forest.Insert(data[i]);
    if (i == 15 || i == 16 || i == 31 || i == 63 || i == 127 || i == 255 ||
        i == 299) {
      std::size_t visited = 0;
      forest.ForEachLive([&](std::size_t, const auto&) { ++visited; });
      EXPECT_EQ(visited, i + 1) << "after insert " << i;
      EXPECT_EQ(forest.size(), i + 1);
      EXPECT_EQ(forest.buffered() + 0u, forest.buffered());
      EXPECT_LE(forest.buffered(), SmallOptions().buffer_capacity);
    }
  }
  // Width stays logarithmic in n/buffer_capacity.
  EXPECT_LE(forest.num_trees(), 6u);
}

}  // namespace
}  // namespace mvp::dynamic
