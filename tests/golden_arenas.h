#ifndef MVPTREE_TESTS_GOLDEN_ARENAS_H_
#define MVPTREE_TESTS_GOLDEN_ARENAS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_store.h"

/// \file
/// Test helper shared by the snapshot suites: the flat shard arenas of a
/// committed fixture store, such as tests/testdata/golden_flat_v1.

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

}  // namespace mvp::snapshot

#endif  // MVPTREE_TESTS_GOLDEN_ARENAS_H_
