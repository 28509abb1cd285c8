// The snapshot write path streams a generation from the index's own
// memory: each arena is a layout of spans over its tree, and the container
// is written as a gather list. These tests pin what that must not change:
// the bytes. SaveFlat's container must equal, byte for byte, the one the
// copying writer assembled — kept here only as the oracle — for every
// index shape that lays out differently; pooled and serial builds must
// save the same bytes; and compaction reuse must still find unchanged
// shards, and only those.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_store.h"

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

/// The container SaveFlat wrote before it streamed, assembled the way it
/// was then: per shard, the shard index and a copied arena
/// (flat::BuildFlatArena) in one buffer, 8-aligned, then the id map; the
/// header, padding and every payload copied into one file image.
std::vector<std::uint8_t> CopiedContainer(const Index& index) {
  struct Chunk {
    ChunkKind kind;
    std::vector<std::uint8_t> payload;
    std::uint64_t alignment;
  };
  std::vector<Chunk> chunks;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const auto& tree = index.shard(s);
    const std::vector<std::uint8_t> arena = flat::BuildFlatArena(
        tree.options(), tree.rows(), tree.dim(), tree.arrays());
    BinaryWriter payload;
    payload.Write<std::uint64_t>(s);
    std::vector<std::uint8_t> bytes = std::move(payload).TakeBuffer();
    bytes.resize(8 + arena.size());
    std::memcpy(bytes.data() + 8, arena.data(), arena.size());
    chunks.push_back({ChunkKind::kFlatShard, std::move(bytes), 8});
    BinaryWriter ids;
    ids.Write<std::uint64_t>(s);
    ids.WriteVector(index.shard_global_ids(s));
    chunks.push_back(
        {ChunkKind::kFlatShardIds, std::move(ids).TakeBuffer(), 1});
  }
  std::vector<std::uint64_t> offsets;
  std::uint64_t offset = ContainerHeaderBytes(chunks.size());
  for (const Chunk& chunk : chunks) {
    offset = (offset + chunk.alignment - 1) & ~(chunk.alignment - 1);
    offsets.push_back(offset);
    offset += chunk.payload.size();
  }
  BinaryWriter header;
  header.Write<std::uint32_t>(kContainerMagic);
  header.Write<std::uint32_t>(kContainerVersion);
  header.Write<std::uint32_t>(0);
  header.Write<std::uint32_t>(static_cast<std::uint32_t>(chunks.size()));
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    header.Write<std::uint32_t>(static_cast<std::uint32_t>(chunks[i].kind));
    header.Write<std::uint32_t>(0);
    header.Write<std::uint64_t>(offsets[i]);
    header.Write<std::uint64_t>(chunks[i].payload.size());
    header.Write<std::uint32_t>(
        Crc32c(chunks[i].payload.data(), chunks[i].payload.size()));
    header.Write<std::uint32_t>(0);
  }
  header.Write<std::uint32_t>(
      Crc32c(header.buffer().data(), header.buffer().size()));
  std::vector<std::uint8_t> file = std::move(header).TakeBuffer();
  file.resize(static_cast<std::size_t>(offset), 0);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].payload.empty()) continue;
    std::memcpy(file.data() + offsets[i], chunks[i].payload.data(),
                chunks[i].payload.size());
  }
  return file;
}

/// One index shape whose arenas lay out differently.
struct Shape {
  const char* name;
  std::size_t count;
  std::size_t shards;
  int leaf_capacity = 8;
  int num_path_distances = 5;
  bool exact_bounds = false;
};

const Shape kShapes[] = {
    {"Empty", 0, 2},
    {"OneShard", 400, 1},
    {"LeafRoot", 5, 1, 80},
    {"NoPath", 400, 2, 8, 0},
    {"NinePaths", 400, 2, 8, 9},
    {"ExactBounds", 400, 2, 8, 5, true},
    {"FourShards", 600, 4},
};

Index BuildShape(const Shape& shape, serve::ThreadPool* pool = nullptr) {
  Index::Options options;
  options.num_shards = shape.shards;
  options.tree.leaf_capacity = shape.leaf_capacity;
  options.tree.num_path_distances = shape.num_path_distances;
  options.tree.store_exact_bounds = shape.exact_bounds;
  options.tree.seed = 17;
  auto built = Index::Build(dataset::UniformVectors(shape.count, 5, 23), L2(),
                            options, pool);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).ValueOrDie();
}

class SnapshotWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/snapwrite_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Saves `index` into a new store under `name`; returns the container's
  /// bytes, and the manifest through `manifest`.
  std::vector<std::uint8_t> SaveAndRead(const Index& index,
                                        const std::string& name,
                                        SnapshotManifest* manifest) {
    SnapshotStore store(dir_ + "/" + name);
    auto gen = store.SaveFlat(index);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
    auto read = store.ReadManifest(gen.value());
    EXPECT_TRUE(read.ok());
    *manifest = read.value();
    auto bytes = ReadFile(store.GenerationDir(gen.value()) + "/" +
                          SnapshotStore::kContainerFile);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).ValueOrDie();
  }

  std::string dir_;
};

TEST_F(SnapshotWriteTest, SaveFlatStreamsTheCopiedContainerBytes) {
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    const Index index = BuildShape(shape);
    SnapshotManifest manifest;
    const auto streamed = SaveAndRead(index, shape.name, &manifest);
    const auto copied = CopiedContainer(index);
    ASSERT_EQ(streamed.size(), copied.size());
    EXPECT_TRUE(streamed == copied);
    EXPECT_EQ(manifest.payload_bytes, copied.size());
    EXPECT_EQ(manifest.num_chunks, 2 * index.num_shards());
    EXPECT_EQ(manifest.dataset_fingerprint,
              ContainerFingerprint(copied.data(), copied.size()));
  }
}

TEST_F(SnapshotWriteTest, PooledAndSerialBuildsSaveTheSameBytes) {
  serve::ThreadPool pool(3);
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    SnapshotManifest serial_manifest, pooled_manifest;
    const auto serial = SaveAndRead(BuildShape(shape),
                                    std::string(shape.name) + "_serial",
                                    &serial_manifest);
    const auto pooled = SaveAndRead(BuildShape(shape, &pool),
                                    std::string(shape.name) + "_pooled",
                                    &pooled_manifest);
    EXPECT_TRUE(serial == pooled);
    EXPECT_EQ(serial_manifest.dataset_fingerprint,
              pooled_manifest.dataset_fingerprint);
  }
}

/// Compaction over a base generation writes a 28-byte reference for every
/// shard whose arena is unchanged, and a physical chunk for the one shard
/// whose arena keeps its length but not its bytes.
TEST_F(SnapshotWriteTest, CompactionReferencesOnlyUnchangedShards) {
  Index::Options options;
  options.num_shards = 4;
  options.tree.leaf_capacity = 8;
  options.tree.seed = 5;
  auto data = dataset::UniformVectors(600, 5, 31);
  const Index base = Index::Build(data, L2(), options).ValueOrDie();
  // Nudge one coordinate of one object (not the top vantage point) by far
  // less than any gap between distances, so every shard keeps its objects
  // and its tree's shape, and only that object's shard changes bytes.
  const auto partition = base.partition();
  ASSERT_TRUE(partition.has_value());
  const std::size_t vantage =
      base.shard_global_ids(partition->vantage_shard)[partition->vantage_local];
  const std::size_t moved = vantage == 100 ? 101 : 100;
  data[moved][2] += 1e-9;
  const Index nudged = Index::Build(data, L2(), options).ValueOrDie();
  std::size_t changed = nudged.num_shards();
  for (std::size_t s = 0; s < nudged.num_shards(); ++s) {
    ASSERT_EQ(nudged.shard_global_ids(s), base.shard_global_ids(s));
    const auto& ids = nudged.shard_global_ids(s);
    if (std::find(ids.begin(), ids.end(), moved) != ids.end()) changed = s;
  }
  ASSERT_LT(changed, nudged.num_shards());

  SnapshotStore store(dir_);
  std::vector<std::uint64_t> stable_ids(data.size());
  for (std::size_t g = 0; g < stable_ids.size(); ++g) stable_ids[g] = g;
  ASSERT_TRUE(store.SaveCompacted(base, stable_ids, 0, data.size()).ok());
  std::uint64_t reused = 0;
  auto gen = store.SaveCompacted(nudged, stable_ids, 0, data.size(),
                                 /*reuse_base_generation=*/1, &reused);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(reused, nudged.num_shards() - 1);

  const auto read = [&](std::uint64_t g) {
    return ReadFile(store.GenerationDir(g) + "/" +
                    SnapshotStore::kContainerFile)
        .ValueOrDie();
  };
  const auto base_file = read(1);
  const auto file = read(gen.value());
  auto base_container =
      ContainerReader::Parse(base_file.data(), base_file.size());
  auto container = ContainerReader::Parse(file.data(), file.size());
  ASSERT_TRUE(base_container.ok() && container.ok());
  const auto base_shards =
      base_container.value().ChunksOfKind(ChunkKind::kFlatShard);
  const auto refs = container.value().ChunksOfKind(ChunkKind::kShardTreeRef);
  const auto physical = container.value().ChunksOfKind(ChunkKind::kFlatShard);
  ASSERT_EQ(base_shards.size(), nudged.num_shards());
  EXPECT_EQ(refs.size(), nudged.num_shards() - 1);
  ASSERT_EQ(physical.size(), 1u);
  // The rewritten shard is the changed one: same length as its base
  // chunk, other bytes.
  const auto [payload, length] = container.value().chunk_payload(physical[0]);
  const auto [base_payload, base_length] =
      base_container.value().chunk_payload(base_shards[changed]);
  std::uint64_t shard = 0;
  std::memcpy(&shard, payload, sizeof(shard));
  EXPECT_EQ(shard, changed);
  ASSERT_EQ(length, base_length);
  EXPECT_NE(std::memcmp(payload, base_payload, length), 0);

  // And the compacted generation serves the nudged index's answers.
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const auto& q : dataset::UniformQueryVectors(8, 5, 41)) {
    EXPECT_EQ(loaded.value().index.RangeSearch(q, 0.4),
              nudged.RangeSearch(q, 0.4));
  }
}

}  // namespace
}  // namespace mvp::snapshot
