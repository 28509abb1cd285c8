#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/codec.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "dataset/words.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "snapshot/flat_tree.h"

namespace mvp::core {
namespace {

using metric::L2;
using metric::Vector;
using VecTree = MvpTree<Vector, L2>;

std::vector<std::uint8_t> SerializeTree(const VecTree& tree) {
  BinaryWriter writer;
  EXPECT_TRUE(tree.Serialize(&writer, VectorCodec()).ok());
  return writer.TakeBuffer();
}

TEST(MvpTreeSerializeTest, RoundTripPreservesSearchBehaviour) {
  const auto data = dataset::UniformVectors(500, 8, 11);
  VecTree::Options options;
  options.order = 3;
  options.leaf_capacity = 9;
  options.num_path_distances = 5;
  auto built = VecTree::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());
  auto& tree = built.value();

  const auto bytes = SerializeTree(tree);
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(loaded.value().size(), tree.size());
  const auto queries = dataset::UniformQueryVectors(10, 8, 13);
  for (const auto& q : queries) {
    for (const double r : {0.1, 0.5, 1.2}) {
      SearchStats s_orig, s_load;
      const auto expected = tree.RangeSearch(q, r, &s_orig);
      const auto got = loaded.value().RangeSearch(q, r, &s_load);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id);
        EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
      }
      // Identical structure must visit identically.
      EXPECT_EQ(s_load.distance_computations, s_orig.distance_computations);
    }
    const auto knn_orig = tree.KnnSearch(q, 7);
    const auto knn_load = loaded.value().KnnSearch(q, 7);
    ASSERT_EQ(knn_orig.size(), knn_load.size());
    for (std::size_t i = 0; i < knn_orig.size(); ++i) {
      EXPECT_EQ(knn_orig[i].id, knn_load[i].id);
    }
  }
}

TEST(MvpTreeSerializeTest, RoundTripStatsIdentical) {
  const auto data = dataset::UniformVectors(300, 5, 17);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto bytes = SerializeTree(built.value());
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  const auto a = built.value().Stats();
  const auto b = loaded.value().Stats();
  EXPECT_EQ(a.num_internal_nodes, b.num_internal_nodes);
  EXPECT_EQ(a.num_leaf_nodes, b.num_leaf_nodes);
  EXPECT_EQ(a.num_vantage_points, b.num_vantage_points);
  EXPECT_EQ(a.num_leaf_points, b.num_leaf_points);
  EXPECT_EQ(a.height, b.height);
}

TEST(MvpTreeSerializeTest, EmptyTreeRoundTrips) {
  auto built = VecTree::Build({}, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto bytes = SerializeTree(built.value());
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_TRUE(loaded.value().RangeSearch({1, 2, 3}, 5.0).empty());
}

TEST(MvpTreeSerializeTest, StringObjectsRoundTrip) {
  auto words = dataset::SyntheticWords(150, 19);
  using WordTree = MvpTree<std::string, metric::Levenshtein>;
  WordTree::Options options;
  options.order = 2;
  options.leaf_capacity = 6;
  options.num_path_distances = 3;
  auto built = WordTree::Build(words, metric::Levenshtein(), options);
  ASSERT_TRUE(built.ok());
  BinaryWriter writer;
  ASSERT_TRUE(built.value().Serialize(&writer, StringCodec()).ok());
  BinaryReader reader(writer.buffer());
  auto loaded =
      WordTree::Deserialize(&reader, metric::Levenshtein(), StringCodec());
  ASSERT_TRUE(loaded.ok());
  const std::string q = dataset::MutateWord(words[42], 1, 3);
  const auto expected = built.value().RangeSearch(q, 2.0);
  const auto got = loaded.value().RangeSearch(q, 2.0);
  ASSERT_EQ(got.size(), expected.size());
}

TEST(MvpTreeSerializeTest, ExactBoundsModeRoundTrips) {
  const auto data = dataset::UniformVectors(250, 5, 41);
  VecTree::Options options;
  options.order = 3;
  options.leaf_capacity = 7;
  options.num_path_distances = 3;
  options.store_exact_bounds = true;
  auto built = VecTree::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());
  const auto bytes = SerializeTree(built.value());
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().options().store_exact_bounds);
  EXPECT_TRUE(loaded.value().ValidateInvariants().ok());
  const auto q = dataset::UniformQueryVectors(1, 5, 43)[0];
  SearchStats sa, sb;
  built.value().RangeSearch(q, 0.5, &sa);
  loaded.value().RangeSearch(q, 0.5, &sb);
  EXPECT_EQ(sa.distance_computations, sb.distance_computations);
}

TEST(MvpTreeSerializeTest, SerializedSizeScalesReasonably) {
  // Sanity on the format: bytes per point should be dominated by the
  // object payload (dim doubles) plus stored distances, not bookkeeping.
  const std::size_t dim = 8;
  const auto data = dataset::UniformVectors(1000, dim, 47);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto bytes = SerializeTree(built.value());
  const double per_point = static_cast<double>(bytes.size()) / 1000.0;
  EXPECT_GT(per_point, dim * 8.0);         // at least the raw vectors
  EXPECT_LT(per_point, dim * 8.0 + 150.0); // bounded metadata overhead
}

TEST(MvpTreeSerializeTest, BadMagicRejected) {
  BinaryWriter writer;
  writer.Write<std::uint32_t>(0xdeadbeef);
  BinaryReader reader(writer.buffer());
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(MvpTreeSerializeTest, UnknownVersionRejected) {
  const auto data = dataset::UniformVectors(20, 3, 23);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  auto bytes = SerializeTree(built.value());
  bytes[4] = 0xff;  // clobber version field
  BinaryReader reader(bytes);
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotSupported);
}

TEST(MvpTreeSerializeTest, TruncatedBufferRejectedEverywhere) {
  const auto data = dataset::UniformVectors(60, 4, 29);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto bytes = SerializeTree(built.value());
  // Truncate at a spread of offsets; every prefix must fail cleanly, never
  // crash or return a half-valid tree.
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const auto cut =
        static_cast<std::size_t>(static_cast<double>(bytes.size()) * fraction);
    BinaryReader reader(bytes.data(), cut);
    auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
    EXPECT_FALSE(loaded.ok()) << "prefix " << cut;
  }
}

TEST(MvpTreeSerializeTest, CorruptedVantagePointIdRejected) {
  const auto data = dataset::UniformVectors(30, 3, 31);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  auto bytes = SerializeTree(built.value());
  // Flip high bytes throughout the payload; the reader must always fail
  // with a Status (ids/bounds validation), never crash.
  int failures = 0;
  for (std::size_t pos = bytes.size() / 2; pos < bytes.size(); pos += 97) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0xff;
    BinaryReader reader(corrupted);
    auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
    if (!loaded.ok()) ++failures;
  }
  // Some flips may land in benign doubles; at least the id/offset flips
  // must be caught.
  EXPECT_GT(failures, 0);
}

TEST(MvpTreeSerializeTest, FileRoundTrip) {
  const auto data = dataset::UniformVectors(120, 6, 37);
  auto built = VecTree::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const std::string path = ::testing::TempDir() + "/mvp_tree_test.mvpt";
  ASSERT_TRUE(WriteFile(path, SerializeTree(built.value())).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  BinaryReader reader(bytes.value());
  auto loaded = VecTree::Deserialize(&reader, L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 120u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ hostile streams
//
// The heap tree and the flat arena builder parse a stream's structure
// through one function (TreeLayout::Read), so both entry points must give
// every stream the same status.

/// The golden snapshot recipe's tree: 48 points, m = 3, k = 4, p = 2.
std::vector<std::uint8_t> GoldenRecipeStream() {
  VecTree::Options options;
  options.order = 3;
  options.leaf_capacity = 4;
  options.num_path_distances = 2;
  auto built = VecTree::Build(dataset::UniformVectors(48, 4, 7), L2(), options);
  EXPECT_TRUE(built.ok());
  return SerializeTree(built.value());
}

constexpr std::size_t kPathDistancesOffset = 16;  // magic, version, m, k
constexpr std::size_t kObjectCountOffset = 21;    // then p, exact bounds

/// Byte offsets of each leaf entry's u32 PATH length, grouped by leaf in
/// stream order, of a VectorCodec stream.
std::vector<std::vector<std::size_t>> LeafPathLengthOffsets(
    const std::vector<std::uint8_t>& stream) {
  BinaryReader r(stream);
  std::uint32_t u32 = 0;
  std::int32_t order = 0;
  std::uint8_t u8 = 0;
  std::uint64_t count = 0;
  std::vector<double> skip;
  EXPECT_TRUE(r.Read(&u32).ok() && r.Read(&u32).ok() && r.Read(&order).ok());
  EXPECT_TRUE(r.Read(&u32).ok() && r.Read(&u32).ok() && r.Read(&u8).ok());
  EXPECT_TRUE(r.Read(&count).ok());
  for (std::uint64_t i = 0; i <= count; ++i) {  // the objects, then the pool
    EXPECT_TRUE(r.ReadVector(&skip).ok());
  }
  const std::size_t m = static_cast<std::size_t>(order);
  std::vector<std::vector<std::size_t>> leaves;
  auto walk = [&](auto&& self) -> void {
    std::uint8_t tag = 0;
    std::uint64_t u64 = 0;
    ASSERT_TRUE(r.Read(&tag).ok());
    if (tag == 0) return;
    ASSERT_TRUE(r.Read(&u64).ok() && r.Read(&u8).ok() && r.Read(&u64).ok());
    if (tag == 1) {
      std::uint64_t entries = 0;
      ASSERT_TRUE(r.Read(&entries).ok());
      leaves.emplace_back();
      for (std::uint64_t i = 0; i < entries; ++i) {
        double d = 0.0;
        ASSERT_TRUE(r.Read(&u64).ok() && r.Read(&d).ok() && r.Read(&d).ok() &&
                    r.Read(&u32).ok());
        leaves.back().push_back(stream.size() - r.remaining());
        ASSERT_TRUE(r.Read(&u32).ok());
      }
      return;
    }
    for (int bounds = 0; bounds < 4; ++bounds) {
      ASSERT_TRUE(r.ReadVector(&skip).ok());
    }
    for (std::size_t c = 0; c < m * m; ++c) self(self);
  };
  walk(walk);
  EXPECT_TRUE(r.AtEnd());
  return leaves;
}

void PokeU32(std::vector<std::uint8_t>& bytes, std::size_t offset,
             std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

StatusCode HeapCode(const std::vector<std::uint8_t>& stream, std::size_t size) {
  BinaryReader reader(stream.data(), size);
  return VecTree::Deserialize(&reader, L2(), VectorCodec()).status().code();
}

StatusCode FlatCode(const std::vector<std::uint8_t>& stream, std::size_t size) {
  return snapshot::flat::BuildFlatArena(stream.data(), size).status().code();
}

TEST(MvpTreeStreamTest, EntryPathLongerThanPRejected) {
  auto stream = GoldenRecipeStream();
  // Every entry below the root keeps 2 PATH distances; the header now
  // promises none.
  PokeU32(stream, kPathDistancesOffset, 0);
  EXPECT_EQ(HeapCode(stream, stream.size()), StatusCode::kCorruption);
  EXPECT_EQ(FlatCode(stream, stream.size()), StatusCode::kCorruption);
}

/// A stream over 3 objects of 4 values with p = 2 whose root is a leaf:
/// vantage points 0 and 1, and entry 2 keeping `path_length` PATH
/// distances.
std::vector<std::uint8_t> RootLeafStream(std::uint32_t path_length) {
  BinaryWriter w;
  w.Write<std::uint32_t>(VecTree::kMagic);
  w.Write<std::uint32_t>(VecTree::kFormatVersion);
  w.Write<std::int32_t>(3);  // m
  w.Write<std::int32_t>(4);  // k
  w.Write<std::int32_t>(2);  // p
  w.Write<std::uint8_t>(0);  // cutoff bounds
  w.Write<std::uint64_t>(3);
  for (int i = 0; i < 3; ++i) VectorCodec().Write(w, Vector(4, 0.25 * i));
  w.Write<std::uint64_t>(path_length);  // the PATH pool
  for (std::uint32_t j = 0; j < path_length; ++j) w.Write<double>(0.5);
  w.Write<std::uint8_t>(1);  // a leaf
  w.Write<std::uint64_t>(0);
  w.Write<std::uint8_t>(1);
  w.Write<std::uint64_t>(1);
  w.Write<std::uint64_t>(1);  // one entry
  w.Write<std::uint64_t>(2);
  w.Write<double>(0.5);
  w.Write<double>(0.5);
  w.Write<std::uint32_t>(0);
  w.Write<std::uint32_t>(path_length);
  return w.TakeBuffer();
}

TEST(MvpTreeStreamTest, EntryPathLongerThanItsAncestorsRejected) {
  // A root leaf has no vantage points above it to keep distances to, so
  // its entries keep no PATH, whatever p allows. A writer recomputes
  // PATH[j] from the j-th vantage point above the leaf.
  const auto none = RootLeafStream(0);
  EXPECT_EQ(HeapCode(none, none.size()), StatusCode::kOk);
  EXPECT_EQ(FlatCode(none, none.size()), StatusCode::kOk);
  const auto two = RootLeafStream(2);
  EXPECT_EQ(HeapCode(two, two.size()), StatusCode::kCorruption);
  EXPECT_EQ(FlatCode(two, two.size()), StatusCode::kCorruption);
}

TEST(MvpTreeStreamTest, ObjectCountOverU32IsInvalidArgument) {
  auto stream = GoldenRecipeStream();
  const std::uint64_t count = std::uint64_t{1} << 32;
  std::memcpy(stream.data() + kObjectCountOffset, &count, sizeof(count));
  EXPECT_EQ(HeapCode(stream, stream.size()), StatusCode::kInvalidArgument);
  EXPECT_EQ(FlatCode(stream, stream.size()), StatusCode::kInvalidArgument);
}

/// `stream` with object `id`'s vector cut to its first `dim` values (the
/// golden recipe's objects are 4-d: a u64 length and 4 doubles each).
std::vector<std::uint8_t> WithRowCut(std::vector<std::uint8_t> stream,
                                     std::size_t id, std::uint64_t dim) {
  constexpr std::size_t kObjectsOffset = kObjectCountOffset + 8;
  const std::size_t at = kObjectsOffset + id * (8 + 4 * sizeof(double));
  std::memcpy(stream.data() + at, &dim, sizeof(dim));
  const auto values = stream.begin() + static_cast<std::ptrdiff_t>(at + 8);
  stream.erase(values + static_cast<std::ptrdiff_t>(dim * sizeof(double)),
               values + static_cast<std::ptrdiff_t>(4 * sizeof(double)));
  return stream;
}

TEST(MvpTreeStreamTest, RaggedOrZeroDimensionVectorsRejected) {
  const auto intact = GoldenRecipeStream();
  // The slab holds one dimension, so both entry points refuse a ragged
  // stream the same way (the heap tree used to accept it).
  const auto ragged = WithRowCut(intact, 5, 3);
  EXPECT_EQ(HeapCode(ragged, ragged.size()), StatusCode::kCorruption);
  EXPECT_EQ(FlatCode(ragged, ragged.size()), StatusCode::kCorruption);
  const auto zero_dim = WithRowCut(intact, 0, 0);
  EXPECT_EQ(HeapCode(zero_dim, zero_dim.size()), StatusCode::kCorruption);
  EXPECT_EQ(FlatCode(zero_dim, zero_dim.size()), StatusCode::kCorruption);
}

TEST(MvpTreeStreamTest, HeapAndFlatEntryPointsReturnOneStatus) {
  const auto intact = GoldenRecipeStream();
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    EXPECT_EQ(HeapCode(intact, cut), FlatCode(intact, cut))
        << "prefix of " << cut << " bytes";
  }
  EXPECT_EQ(HeapCode(intact, intact.size()), StatusCode::kOk);

  auto no_paths = intact;
  PokeU32(no_paths, kPathDistancesOffset, 0);
  EXPECT_EQ(HeapCode(no_paths, no_paths.size()),
            FlatCode(no_paths, no_paths.size()));

  const auto leaves = LeafPathLengthOffsets(intact);
  const auto multi = std::find_if(leaves.begin(), leaves.end(),
                                  [](const auto& l) { return l.size() > 1; });
  ASSERT_NE(multi, leaves.end());
  auto mixed = intact;
  PokeU32(mixed, (*multi)[1], 0);
  EXPECT_EQ(HeapCode(mixed, mixed.size()), FlatCode(mixed, mixed.size()));
  EXPECT_EQ(HeapCode(mixed, mixed.size()), StatusCode::kCorruption);
}

}  // namespace
}  // namespace mvp::core
