#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "dynamic/mvp_forest.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

/// The row order of every vector tree (core/tree_layout.h): leaf entry e
/// lives at row e, each node's vantage points at the rows its record
/// names, and object(id) is input vector id. Checked on every way a tree
/// comes to exist — Build, kind-1 Deserialize, a v3 arena opened, v2 and
/// v1 arenas upgraded at open, an MvpForest level, and an overlay's
/// Compact — and ValidateInvariants must agree, or name the first object
/// that is not where the tree says it is.

namespace mvp {
namespace {

using metric::L2;
using metric::Vector;
using Tree = core::MvpTree<Vector, L2>;
using Index = serve::ShardedMvpIndex<Vector, L2>;

#ifndef MVPT_TESTDATA_DIR
#error "row_order_test requires the MVPT_TESTDATA_DIR definition"
#endif

std::string FixtureDir(const std::string& name) {
  return std::string(MVPT_TESTDATA_DIR) + "/" + name;
}

/// The row at `row` of a vector tree's slab, as a vector.
template <typename T>
Vector RowAt(const T& tree, std::size_t row) {
  const auto rows = tree.rows();
  const auto at = rows.begin() + static_cast<std::ptrdiff_t>(row * tree.dim());
  return Vector(at, at + static_cast<std::ptrdiff_t>(tree.dim()));
}

/// `tree`'s rows hold `input` (the vectors by the tree's own ids) in row
/// order, object(id) is input[id], and ValidateInvariants agrees.
template <typename T>
void ExpectRowOrder(const T& tree, const std::vector<Vector>& input,
                    const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(tree.size(), input.size());
  const core::TreeArrays& t = tree.arrays();
  for (std::size_t e = 0; e < t.entry_count; ++e) {
    ASSERT_EQ(RowAt(tree, e), input[t.ids[e]]) << "entry " << e;
  }
  std::size_t row = t.entry_count;
  for (std::size_t n = 0; n < t.node_count; ++n) {
    const core::NodeRec& node = t.nodes[n];
    ASSERT_EQ(node.vp_row, row) << "node " << n;
    ASSERT_EQ(RowAt(tree, row++), input[node.vp1]) << "node " << n;
    if (core::VpCount(node) == 2) {
      ASSERT_EQ(RowAt(tree, row++), input[node.vp2]) << "node " << n;
    }
  }
  EXPECT_EQ(row, input.size());
  for (std::size_t id = 0; id < input.size(); ++id) {
    ASSERT_EQ(Vector(tree.object(id)), input[id]) << "id " << id;
    ASSERT_EQ(RowAt(tree, tree.row_of(id)), input[id]) << "id " << id;
  }
  const Status valid = tree.ValidateInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

/// Every shard of `index` against `data`, the vectors by the ids
/// `global_to_data` maps each global id to.
template <typename I, typename Map>
void ExpectShardRowOrder(const I& index, const std::vector<Vector>& data,
                         const Map& global_to_data, const std::string& what) {
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    std::vector<Vector> input;
    for (const std::size_t g : index.shard_global_ids(s)) {
      input.push_back(data[global_to_data(g)]);
    }
    ExpectRowOrder(index.shard(s), input,
                   what + " shard " + std::to_string(s));
  }
}

Tree::Options SmallLeaves() {
  Tree::Options options;
  options.order = 3;
  options.leaf_capacity = 5;
  options.num_path_distances = 3;
  options.seed = 11;
  return options;
}

TEST(RowOrderTest, Build) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 300u}) {
    const auto data = dataset::UniformVectors(n, 4, 5);
    auto tree = Tree::Build(data, L2(), SmallLeaves());
    ASSERT_TRUE(tree.ok());
    ExpectRowOrder(tree.value(), data, "n=" + std::to_string(n));
  }
}

TEST(RowOrderTest, NonVectorTreeKeepsObjectsById) {
  const std::vector<std::string> words = {"tree", "trie",  "tee",    "free",
                                          "three", "tree", "treat", "t",
                                          "rt",   "",      "street", "tr"};
  using Words = core::MvpTree<std::string, metric::Levenshtein>;
  Words::Options options;
  options.leaf_capacity = 2;
  auto tree = Words::Build(words, metric::Levenshtein(), options);
  ASSERT_TRUE(tree.ok());
  for (std::size_t id = 0; id < words.size(); ++id) {
    EXPECT_EQ(tree.value().object(id), words[id]);
    EXPECT_EQ(tree.value().object_at_row(tree.value().row_of(id)), words[id]);
  }
  EXPECT_TRUE(tree.value().ValidateInvariants().ok());
}

TEST(RowOrderTest, Kind1Deserialize) {
  const auto data = dataset::UniformVectors(400, 5, 9);
  auto tree = Tree::Build(data, L2(), SmallLeaves());
  ASSERT_TRUE(tree.ok());
  BinaryWriter writer;
  ASSERT_TRUE(tree.value().Serialize(&writer, VectorCodec()).ok());
  BinaryReader reader(writer.buffer());
  auto loaded = Tree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRowOrder(loaded.value(), data, "deserialized");
  // The stream keeps objects in id order: serializing again is identical.
  BinaryWriter again;
  ASSERT_TRUE(loaded.value().Serialize(&again, VectorCodec()).ok());
  EXPECT_EQ(again.buffer(), writer.buffer());

  // The frozen kind-1 fixture, through the snapshot store.
  snapshot::SnapshotStore store(FixtureDir("golden_heap"));
  auto heap = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ExpectShardRowOrder(
      heap.value().index, dataset::UniformVectors(48, 4, 7),
      [](std::size_t g) { return g; }, "golden_heap");
}

TEST(RowOrderTest, V3ArenaOpen) {
  const auto data = dataset::UniformVectors(400, 5, 13);
  auto tree = Tree::Build(data, L2(), SmallLeaves());
  ASSERT_TRUE(tree.ok());
  const auto& t = tree.value();
  const std::vector<std::uint8_t> arena =
      snapshot::flat::BuildFlatArena(t.options(), t.rows(), t.dim(),
                                     t.arrays());
  auto opened = snapshot::flat::OpenTree(arena.data(), arena.size(), L2(),
                                         nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectRowOrder(opened.value(), data, "v3 arena");

  snapshot::SnapshotStore store(FixtureDir("golden_flat"));
  auto golden = store.OpenFlat(L2());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ExpectShardRowOrder(
      golden.value().index, dataset::UniformVectors(48, 4, 7),
      [](std::size_t g) { return g; }, "golden_flat");
}

TEST(RowOrderTest, V2AndV1ArenasUpgradedAtOpen) {
  const auto data = dataset::UniformVectors(48, 4, 7);
  for (const char* name :
       {"golden_flat_v2", "golden_flat_round_robin", "golden_flat_v1"}) {
    snapshot::SnapshotStore store(FixtureDir(name));
    auto opened = store.OpenFlat(L2());
    ASSERT_TRUE(opened.ok()) << name << ": " << opened.status().ToString();
    ExpectShardRowOrder(
        opened.value().index, data, [](std::size_t g) { return g; }, name);
  }
}

TEST(RowOrderTest, ForestLevels) {
  using Forest = dynamic::MvpForest<Vector, L2>;
  Forest::Options options;
  options.buffer_capacity = 8;
  options.tree = SmallLeaves();
  Forest forest(L2(), options);
  const auto data = dataset::UniformVectors(200, 4, 17);
  for (const Vector& v : data) forest.Insert(v);
  ASSERT_GT(forest.num_trees(), 1u);
  const auto expect_live = [&](const Forest& f, const std::string& what) {
    SCOPED_TRACE(what);
    std::size_t seen = 0;
    f.ForEachLive([&](std::size_t id, const auto& object) {
      ASSERT_LT(id, data.size());
      EXPECT_EQ(Vector(object), data[id]) << "id " << id;
      ++seen;
    });
    EXPECT_EQ(seen, data.size());
    // Every level answers from its rows: the forest's k-NN is a scan's.
    for (const auto& q : dataset::UniformQueryVectors(10, 4, 19)) {
      const auto hits = f.KnnSearch(q, 5);
      std::multimap<double, std::size_t> scan;
      for (std::size_t id = 0; id < data.size(); ++id) {
        scan.emplace(L2()(q, data[id]), id);
      }
      ASSERT_EQ(hits.size(), 5u);
      auto it = scan.begin();
      for (const Neighbor& hit : hits) {
        EXPECT_EQ(hit.distance, it->first);
        EXPECT_EQ(hit.id, (it++)->second);
      }
    }
  };
  expect_live(forest, "built levels");
  BinaryWriter writer;
  ASSERT_TRUE(forest.Serialize(&writer, VectorCodec()).ok());
  BinaryReader reader(writer.buffer());
  auto loaded = Forest::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  expect_live(loaded.value(), "deserialized levels");
}

TEST(RowOrderTest, OverlayCompaction) {
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  const std::string dir = ::testing::TempDir() + "/row_order_overlay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Overlay::Options options;
  options.memtable.buffer_capacity = 16;
  options.memtable.tree = SmallLeaves();
  options.rebuild.num_shards = 3;
  options.rebuild.tree = SmallLeaves();
  const auto data = dataset::UniformVectors(150, 4, 23);
  {
    auto overlay = Overlay::Open(dir, L2(), VectorCodec(), options);
    ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
    for (const Vector& v : data) {
      ASSERT_TRUE(overlay.value()->Insert(v).ok());
    }
    for (const std::size_t id : {3u, 40u, 41u, 99u}) {
      ASSERT_TRUE(overlay.value()->Erase(id).ok());
    }
    // The second compaction gathers the first's base through object(id).
    ASSERT_TRUE(overlay.value()->Compact().ok());
    ASSERT_TRUE(overlay.value()->Erase(7).ok());
    ASSERT_TRUE(overlay.value()->Compact().ok());
  }
  snapshot::SnapshotStore store(dir);
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& stable = loaded.value().stable_ids;
  ASSERT_EQ(stable.size(), data.size() - 5);
  ExpectShardRowOrder(
      loaded.value().index, data,
      [&](std::size_t g) { return static_cast<std::size_t>(stable[g]); },
      "compacted");
  std::filesystem::remove_all(dir);
}

/// Two leaf entries' rows swapped in a v3 arena: the arena still parses
/// (rows are positions, ids are labels), but the rows no longer hold the
/// objects the ids name, so ValidateInvariants rejects the tree, naming
/// the first of the two whose row disagrees with its stored distances or
/// shells.
TEST(RowOrderTest, ValidateInvariantsNamesAMisplacedRow) {
  const auto data = dataset::UniformVectors(300, 4, 29);
  auto tree = Tree::Build(data, L2(), SmallLeaves());
  ASSERT_TRUE(tree.ok());
  const auto& t = tree.value();
  std::vector<std::uint8_t> arena = snapshot::flat::BuildFlatArena(
      t.options(), t.rows(), t.dim(), t.arrays());
  snapshot::flat::FlatHeaderRec header;
  std::memcpy(&header, arena.data(), sizeof(header));
  const std::size_t row_bytes = t.dim() * sizeof(double);
  ASSERT_GT(header.entry_count, 10u);
  const std::size_t a = 0, b = header.entry_count - 1;
  std::vector<std::uint8_t> spare(row_bytes);
  std::uint8_t* objects = arena.data() + header.objects_offset;
  std::memcpy(spare.data(), objects + a * row_bytes, row_bytes);
  std::memcpy(objects + a * row_bytes, objects + b * row_bytes, row_bytes);
  std::memcpy(objects + b * row_bytes, spare.data(), row_bytes);
  auto opened = snapshot::flat::OpenTree(arena.data(), arena.size(), L2(),
                                         nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Status status = opened.value().ValidateInvariants();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  const auto names = [&](std::size_t row) {
    return status.message().find("object " +
                                 std::to_string(t.arrays().ids[row]) +
                                 " at row " + std::to_string(row)) !=
           std::string::npos;
  };
  EXPECT_TRUE(names(a) || names(b)) << status.ToString();
}

}  // namespace
}  // namespace mvp
