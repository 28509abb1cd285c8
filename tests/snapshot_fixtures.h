#ifndef MVPTREE_TESTS_SNAPSHOT_FIXTURES_H_
#define MVPTREE_TESTS_SNAPSHOT_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "snapshot/format.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_store.h"

/// \file
/// Test helpers shared by the snapshot suites: the flat shard arenas of a
/// committed fixture store, such as tests/testdata/golden_flat_v1, a
/// scratch copy of a fixture store for tests that damage or extend one,
/// and a generation in the MVPT stream layout, which only earlier releases
/// write.

namespace mvp::snapshot {

/// The arena of every flat shard chunk in the generation-1 store under
/// `store_dir`, by shard index. Adds a test failure and returns no arenas
/// if the container cannot be read or parsed.
inline std::vector<std::vector<std::uint8_t>> GoldenShardArenas(
    const std::string& store_dir) {
  auto container = ReadFile(store_dir + "/gen-000001/" +
                            SnapshotStore::kContainerFile);
  EXPECT_TRUE(container.ok())
      << store_dir << ": " << container.status().ToString();
  if (!container.ok()) return {};
  auto parsed = ContainerReader::Parse(container.value().data(),
                                       container.value().size());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return {};
  std::vector<std::vector<std::uint8_t>> arenas;
  for (const std::size_t c :
       parsed.value().ChunksOfKind(ChunkKind::kFlatShard)) {
    // Payload: [u64 shard index][arena].
    const auto [payload, length] = parsed.value().chunk_payload(c);
    std::uint64_t shard = 0;
    std::memcpy(&shard, payload, sizeof(shard));
    if (arenas.size() <= shard) arenas.resize(shard + 1);
    arenas[shard].assign(payload + sizeof(shard), payload + length);
  }
  return arenas;
}

/// Replaces `dest` with a copy of the fixture store `source` (every
/// generation and CURRENT), so a test can write to it without touching the
/// committed fixture. Returns `dest`.
inline std::string CopyFixtureStore(const std::string& source,
                                    const std::string& dest) {
  std::filesystem::remove_all(dest);
  std::filesystem::copy(source, dest,
                        std::filesystem::copy_options::recursive);
  return dest;
}

/// Writes `index` into the empty store `dir` as committed generation 1 in
/// the MVPT stream layout (index kind 1), byte for byte as releases before
/// the arena-only writer saved it: per shard, one kShardTree chunk holding
/// the u64 shard index, the u64v global ids and the shard tree's
/// MvpTree::Serialize stream, under the lowest manifest version that holds
/// the index's fields. FlatFormatGoldenTest.HeapSnapshotBytesStable checks
/// this against the frozen golden_heap fixture.
template <typename Metric>
void WriteHeapGeneration(
    const std::string& dir,
    const serve::ShardedMvpIndex<metric::Vector, Metric>& index) {
  ContainerWriter writer;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    BinaryWriter chunk;
    chunk.Write<std::uint64_t>(s);
    chunk.Write<std::uint64_t>(index.shard_global_ids(s).size());
    for (const std::size_t id : index.shard_global_ids(s)) {
      chunk.Write<std::uint64_t>(id);
    }
    ASSERT_TRUE(index.shard(s).Serialize(&chunk, VectorCodec()).ok());
    writer.AddChunk(ChunkKind::kShardTree, std::move(chunk).TakeBuffer());
  }
  const std::size_t chunks = writer.num_chunks();
  const std::vector<std::uint8_t> container = std::move(writer).Finalize();
  SnapshotManifest manifest;
  manifest.index_kind = IndexKind::kShardedMvpIndex;
  manifest.object_count = index.size();
  manifest.num_chunks = chunks;
  manifest.payload_bytes = container.size();
  manifest.dataset_fingerprint =
      ContainerFingerprint(container.data(), container.size());
  manifest.num_shards = index.options().num_shards;
  manifest.order = index.options().tree.order;
  manifest.leaf_capacity = index.options().tree.leaf_capacity;
  manifest.num_path_distances = index.options().tree.num_path_distances;
  manifest.seed = index.options().tree.seed;
  manifest.store_exact_bounds = index.options().tree.store_exact_bounds;
  manifest.partition = index.partition();
  const std::string gen_dir = dir + "/gen-000001";
  std::filesystem::create_directories(gen_dir);
  ASSERT_TRUE(
      WriteFile(gen_dir + "/" + SnapshotStore::kContainerFile, container)
          .ok());
  ASSERT_TRUE(WriteFile(gen_dir + "/" + SnapshotStore::kManifestFile,
                        manifest.Serialize())
                  .ok());
  const std::string current = "gen-000001\n";
  ASSERT_TRUE(WriteFile(dir + "/" + SnapshotStore::kCurrentFile,
                        std::vector<std::uint8_t>(current.begin(),
                                                  current.end()))
                  .ok());
}

}  // namespace mvp::snapshot

#endif  // MVPTREE_TESTS_SNAPSHOT_FIXTURES_H_
