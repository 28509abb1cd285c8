#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

/// Adversarial-input suite for the snapshot container: every truncation
/// prefix and every header-region bit flip must surface as a non-OK Status
/// (almost always Corruption), never as a crash, a huge allocation, or a
/// silently wrong index.

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

#ifndef MVPT_TESTDATA_DIR
#error "snapshot_corruption_test requires the MVPT_TESTDATA_DIR definition"
#endif

/// A scratch copy of the frozen kind-1 fixture (tests/testdata/golden_heap)
/// under `name`, so the sweeps below damage real MVPT-stream bytes.
std::string GoldenHeapCopy(const std::string& name) {
  return CopyFixtureStore(std::string(MVPT_TESTDATA_DIR) + "/golden_heap",
                          ::testing::TempDir() + "/" + name);
}

/// The sweeps run over golden_heap: two kShardTree chunks, one per shard.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kChunks = 2;

  void SetUp() override {
    dir_ = GoldenHeapCopy(
        std::string("snapcorrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    SnapshotStore store(dir_);
    gen_dir_ = store.GenerationDir(1);
    auto bytes = ReadFile(gen_dir_ + "/" + SnapshotStore::kContainerFile);
    ASSERT_TRUE(bytes.ok());
    container_ = std::move(bytes).ValueOrDie();
    auto manifest = ReadFile(gen_dir_ + "/" + SnapshotStore::kManifestFile);
    ASSERT_TRUE(manifest.ok());
    manifest_ = std::move(manifest).ValueOrDie();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Rewrites the container and loads through the full store path.
  Status LoadWithContainer(const std::vector<std::uint8_t>& bytes) {
    EXPECT_TRUE(
        WriteFile(gen_dir_ + "/" + SnapshotStore::kContainerFile, bytes).ok());
    SnapshotStore store(dir_);
    return store.LoadSharded<Vector>(L2(), VectorCodec()).status();
  }

  std::string dir_;
  std::string gen_dir_;
  std::vector<std::uint8_t> container_;
  std::vector<std::uint8_t> manifest_;
};

TEST_F(SnapshotCorruptionTest, EveryTruncationPrefixRejected) {
  // Every proper prefix of the container must fail parse/verify. The
  // store-level size check would catch these too; parse the container
  // directly so the container format itself proves the property.
  for (std::size_t cut = 0; cut < container_.size(); ++cut) {
    auto parsed = ContainerReader::Parse(container_.data(), cut);
    if (!parsed.ok()) continue;  // header rejected the truncation
    Status status = Status::OK();
    for (std::size_t c = 0; c < parsed.value().num_chunks() && status.ok();
         ++c) {
      status = parsed.value().VerifyChunk(c);
    }
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes parsed and "
                              << "verified as a complete container";
  }
}

TEST_F(SnapshotCorruptionTest, EveryTruncationPrefixRejectedByStore) {
  // Through the full load path (which also cross-checks the manifest), on a
  // sweep of prefixes including every boundary-straddling one.
  for (std::size_t cut = 0; cut < container_.size();
       cut += (cut < 256 ? 1 : 37)) {
    std::vector<std::uint8_t> truncated(container_.begin(),
                                        container_.begin() + cut);
    EXPECT_FALSE(LoadWithContainer(truncated).ok()) << "prefix " << cut;
  }
}

TEST_F(SnapshotCorruptionTest, EveryHeaderByteFlipRejected) {
  const std::size_t header_bytes = ContainerHeaderBytes(kChunks);
  ASSERT_LE(header_bytes, container_.size());
  for (std::size_t pos = 0; pos < header_bytes; ++pos) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto corrupted = container_;
      corrupted[pos] ^= mask;
      const Status status = LoadWithContainer(corrupted);
      EXPECT_FALSE(status.ok())
          << "header byte " << pos << " flip 0x" << std::hex << int{mask};
    }
  }
}

TEST_F(SnapshotCorruptionTest, PayloadFlipReportsFailingChunk) {
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  for (std::size_t c = 0; c < parsed.value().num_chunks(); ++c) {
    const ChunkEntry& entry = parsed.value().chunk(c);
    auto corrupted = container_;
    corrupted[entry.offset + entry.length / 2] ^= 0x40;
    const Status status = LoadWithContainer(corrupted);
    ASSERT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.ToString().find("chunk " + std::to_string(c)),
              std::string::npos)
        << "message does not name chunk " << c << ": " << status.ToString();
  }
}

TEST_F(SnapshotCorruptionTest, EveryPayloadByteFlipSweepRejected) {
  const std::size_t header_bytes = ContainerHeaderBytes(kChunks);
  for (std::size_t pos = header_bytes; pos < container_.size(); pos += 11) {
    auto corrupted = container_;
    corrupted[pos] ^= 0xff;
    EXPECT_EQ(LoadWithContainer(corrupted).code(), StatusCode::kCorruption)
        << "payload byte " << pos;
  }
}

TEST_F(SnapshotCorruptionTest, AdversarialChunkCountRejectedBeforeAllocation) {
  // A header claiming ~2^32 chunks must be rejected by the bounds check on
  // the table size, not by attempting to read (or allocate) the table.
  auto corrupted = container_;
  corrupted[12] = 0xff;  // chunk_count field (offset 12), little-endian
  corrupted[13] = 0xff;
  corrupted[14] = 0xff;
  corrupted[15] = 0xff;
  EXPECT_EQ(LoadWithContainer(corrupted).code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, AdversarialChunkExtentRejected) {
  // Hand-build a container whose chunk table points past EOF with an
  // offset+length that would wrap u64; the subtraction-form bounds check
  // must reject it.
  ContainerWriter writer;
  writer.AddChunk(ChunkKind::kShardTree, std::vector<std::uint8_t>{1, 2, 3});
  auto bytes = std::move(writer).Finalize().Bytes();
  // Chunk entry 0 starts at byte 16: kind, reserved, then offset (u64).
  const std::uint64_t evil_offset = ~std::uint64_t{0} - 1;
  for (int i = 0; i < 8; ++i) {
    bytes[24 + i] = static_cast<std::uint8_t>(evil_offset >> (8 * i));
  }
  // Recompute the header CRC so ONLY the bounds check can reject it.
  const std::size_t header_end = ContainerHeaderBytes(1) - 4;
  const std::uint32_t crc = Crc32c(bytes.data(), header_end);
  for (int i = 0; i < 4; ++i) {
    bytes[header_end + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  auto parsed = ContainerReader::Parse(bytes.data(), bytes.size());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, ManifestFlipsRejected) {
  for (std::size_t pos = 0; pos < manifest_.size(); ++pos) {
    auto corrupted = manifest_;
    corrupted[pos] ^= 0x01;
    EXPECT_FALSE(SnapshotManifest::Parse(corrupted).ok())
        << "manifest byte " << pos;
  }
}

TEST_F(SnapshotCorruptionTest, ManifestTamperRejectedByStore) {
  // Rewrite the manifest claiming different build params with a VALID CRC;
  // the load path must reject the mismatch FAST — by peeking the tree
  // stream's recorded options before the full decode — as InvalidArgument
  // (a snapshot paired with the wrong options, not damaged bytes).
  auto parsed = SnapshotManifest::Parse(manifest_);
  ASSERT_TRUE(parsed.ok());
  SnapshotManifest tampered = parsed.value();
  tampered.leaf_capacity += 1;
  ASSERT_TRUE(
      WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                tampered.Serialize())
          .ok());
  SnapshotStore store(dir_);
  EXPECT_EQ(store.LoadSharded<Vector>(L2(), VectorCodec()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, NonsenseManifestParamsFailFast) {
  // Build parameters that are not even self-consistent (order < 2) must be
  // rejected before any chunk decode.
  auto parsed = SnapshotManifest::Parse(manifest_);
  ASSERT_TRUE(parsed.ok());
  SnapshotManifest tampered = parsed.value();
  tampered.order = 1;
  ASSERT_TRUE(
      WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                tampered.Serialize())
          .ok());
  SnapshotStore store(dir_);
  EXPECT_EQ(store.LoadSharded<Vector>(L2(), VectorCodec()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, SwappedChunkOrderStillLoadsCorrectly) {
  // Chunk order is NOT part of the contract: each shard chunk names its
  // shard index, so a permuted table must round-trip correctly (the
  // partition invariant validation pins every id to its shard).
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  ContainerWriter writer;
  for (const std::size_t c : {1, 0}) {
    const auto [payload, length] = parsed.value().chunk_payload(c);
    writer.AddChunk(ChunkKind::kShardTree,
                    std::vector<std::uint8_t>(payload, payload + length));
  }
  auto bytes = std::move(writer).Finalize().Bytes();
  // Size/fingerprint are unchanged only if layout matches; rewrite the
  // manifest to match the permuted container.
  auto manifest = SnapshotManifest::Parse(manifest_);
  ASSERT_TRUE(manifest.ok());
  SnapshotManifest updated = manifest.value();
  updated.payload_bytes = bytes.size();
  updated.dataset_fingerprint = ContainerFingerprint(bytes.data(), bytes.size());
  ASSERT_TRUE(WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                        updated.Serialize())
                  .ok());
  EXPECT_TRUE(LoadWithContainer(bytes).ok());
}

TEST_F(SnapshotCorruptionTest, DuplicatedShardChunkRejected) {
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  ContainerWriter writer;
  for (const std::size_t c : {0, 0}) {  // shard 1's chunk replaced by 0's
    const auto [payload, length] = parsed.value().chunk_payload(c);
    writer.AddChunk(ChunkKind::kShardTree,
                    std::vector<std::uint8_t>(payload, payload + length));
  }
  auto bytes = std::move(writer).Finalize().Bytes();
  auto manifest = SnapshotManifest::Parse(manifest_);
  ASSERT_TRUE(manifest.ok());
  SnapshotManifest updated = manifest.value();
  updated.payload_bytes = bytes.size();
  updated.dataset_fingerprint = ContainerFingerprint(bytes.data(), bytes.size());
  ASSERT_TRUE(WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                        updated.Serialize())
                  .ok());
  EXPECT_EQ(LoadWithContainer(bytes).code(), StatusCode::kCorruption);
}

// ---- flat (zero-deserialization) container ---------------------------------
//
// The flat read path trusts NOTHING it maps: the chunk CRC catches byte
// damage, and ParseFlatArena's structural validation catches arenas whose
// checksums are valid but whose offsets/links lie. The second half of this
// fixture rebuilds every checksum after corrupting, so the structural layer
// alone must do the rejecting.

class FlatSnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/flatcorrupt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);

    Index::Options options;
    options.num_shards = 3;
    options.tree.leaf_capacity = 6;
    auto built =
        Index::Build(dataset::UniformVectors(90, 5, 19), L2(), options);
    ASSERT_TRUE(built.ok());

    SnapshotStore store(dir_);
    ASSERT_TRUE(store.SaveFlat(built.value()).ok());
    gen_dir_ = store.GenerationDir(1);
    auto bytes = ReadFile(gen_dir_ + "/" + SnapshotStore::kContainerFile);
    ASSERT_TRUE(bytes.ok());
    container_ = std::move(bytes).ValueOrDie();
    auto manifest = ReadFile(gen_dir_ + "/" + SnapshotStore::kManifestFile);
    ASSERT_TRUE(manifest.ok());
    manifest_ = std::move(manifest).ValueOrDie();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Status OpenWithContainer(const std::vector<std::uint8_t>& bytes) {
    EXPECT_TRUE(
        WriteFile(gen_dir_ + "/" + SnapshotStore::kContainerFile, bytes).ok());
    SnapshotStore store(dir_);
    return store.OpenFlat(L2()).status();
  }

  /// Applies `mutate` to chunk 0's arena bytes, then REBUILDS every
  /// checksum on the way out — chunk CRC, container header CRC, manifest
  /// fingerprint — so the only layer left to reject the result is the
  /// arena's own structural validation.
  template <typename Fn>
  Status OpenWithMutatedArena(Fn mutate) {
    return OpenWithMutatedChunk(0, [&](std::vector<std::uint8_t>& bytes) {
      std::vector<std::uint8_t> arena(bytes.begin() + 8, bytes.end());
      mutate(arena);
      bytes.resize(8);
      bytes.insert(bytes.end(), arena.begin(), arena.end());
    });
  }

  /// Applies `mutate` to chunk `chunk`'s payload (the container holds each
  /// shard's arena chunk followed by its id-map chunk), keeping every
  /// chunk's kind and rebuilding every checksum, as above.
  template <typename Fn>
  Status OpenWithMutatedChunk(std::size_t chunk, Fn mutate) {
    auto parsed = ContainerReader::Parse(container_.data(), container_.size());
    EXPECT_TRUE(parsed.ok());
    ContainerWriter writer;
    for (std::size_t c = 0; c < parsed.value().num_chunks(); ++c) {
      const auto [payload, length] = parsed.value().chunk_payload(c);
      std::vector<std::uint8_t> bytes(payload, payload + length);
      if (c == chunk) mutate(bytes);
      writer.AddChunk(static_cast<ChunkKind>(parsed.value().chunk(c).kind),
                      std::move(bytes), kFlatChunkAlignment);
    }
    auto file = std::move(writer).Finalize().Bytes();
    auto manifest = SnapshotManifest::Parse(manifest_);
    EXPECT_TRUE(manifest.ok());
    SnapshotManifest updated = manifest.value();
    updated.payload_bytes = file.size();
    updated.dataset_fingerprint =
        ContainerFingerprint(file.data(), file.size());
    EXPECT_TRUE(WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                          updated.Serialize())
                    .ok());
    return OpenWithContainer(file);
  }

  static void PokeU32(std::vector<std::uint8_t>& arena, std::size_t offset,
                      std::uint32_t value) {
    ASSERT_LE(offset + 4, arena.size());
    for (int i = 0; i < 4; ++i) {
      arena[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
  static void PokeU64(std::vector<std::uint8_t>& arena, std::size_t offset,
                      std::uint64_t value) {
    ASSERT_LE(offset + 8, arena.size());
    for (int i = 0; i < 8; ++i) {
      arena[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
  static std::uint64_t PeekU64(const std::vector<std::uint8_t>& arena,
                               std::size_t offset) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= std::uint64_t{arena[offset + static_cast<std::size_t>(i)]}
               << (8 * i);
    }
    return value;
  }
  static std::uint32_t PeekU32(const std::vector<std::uint8_t>& arena,
                               std::size_t offset) {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= std::uint32_t{arena[offset + static_cast<std::size_t>(i)]}
               << (8 * i);
    }
    return value;
  }

  std::string dir_;
  std::string gen_dir_;
  std::vector<std::uint8_t> container_;
  std::vector<std::uint8_t> manifest_;
};

TEST_F(FlatSnapshotCorruptionTest, FixtureRoundTrips) {
  SnapshotStore store(dir_);
  auto loaded = store.OpenFlat(L2());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().index.size(), 90u);
  EXPECT_EQ(loaded.value().manifest.index_kind,
            IndexKind::kFlatShardedMvpIndex);
}

/// The checksum-rebuilding helpers change nothing by themselves: an
/// untouched arena or id map still opens, so each rejection below is the
/// structural validation's.
TEST_F(FlatSnapshotCorruptionTest, RebuiltChecksumsAloneStillOpen) {
  EXPECT_TRUE(OpenWithMutatedArena([](auto&) {}).ok());
  EXPECT_TRUE(OpenWithMutatedChunk(1, [](auto&) {}).ok());
}

/// A flat shard's id map (the chunk after its arena: u64 shard, u64v ids)
/// must name a shard once, match the shard's size and leave the partition
/// an ascending permutation.
TEST_F(FlatSnapshotCorruptionTest, MalformedIdMapRejected) {
  const auto poke = [](std::size_t offset, std::uint64_t value) {
    return [=](std::vector<std::uint8_t>& bytes) {
      PokeU64(bytes, offset, value);
    };
  };
  // Shard index out of range, and shard 1's map naming shard 0 again.
  EXPECT_EQ(OpenWithMutatedChunk(1, poke(0, 3)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(OpenWithMutatedChunk(3, poke(0, 0)).code(),
            StatusCode::kCorruption);
  // A count past the payload, and one short of the shard's size.
  EXPECT_EQ(OpenWithMutatedChunk(1, poke(8, 1u << 20)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(OpenWithMutatedChunk(1, [](std::vector<std::uint8_t>& bytes) {
              PokeU64(bytes, 8, PeekU64(bytes, 8) - 1);
              bytes.resize(bytes.size() - 8);
            }).code(),
            StatusCode::kCorruption);
  // Trailing bytes; a descending pair; an id past the object count.
  EXPECT_EQ(OpenWithMutatedChunk(1, [](std::vector<std::uint8_t>& bytes) {
              bytes.push_back(0);
            }).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(OpenWithMutatedChunk(1, [](std::vector<std::uint8_t>& bytes) {
              const std::uint64_t first = PeekU64(bytes, 16);
              PokeU64(bytes, 16, PeekU64(bytes, 24));
              PokeU64(bytes, 24, first);
            }).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(OpenWithMutatedChunk(1, poke(16, 90)).code(),
            StatusCode::kCorruption);
}

TEST_F(FlatSnapshotCorruptionTest, EveryTruncationPrefixRejected) {
  for (std::size_t cut = 0; cut < container_.size();
       cut += (cut < 256 ? 1 : 23)) {
    std::vector<std::uint8_t> truncated(container_.begin(),
                                        container_.begin() + cut);
    EXPECT_FALSE(OpenWithContainer(truncated).ok()) << "prefix " << cut;
  }
}

TEST_F(FlatSnapshotCorruptionTest, BitFlipSweepRejected) {
  // Flips across the whole file — header, chunk table, padding, and every
  // region of every arena — must all surface as a non-OK Status (the CRCs
  // and the container fingerprint cover every byte).
  for (std::size_t pos = 0; pos < container_.size(); pos += 7) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto corrupted = container_;
      corrupted[pos] ^= mask;
      EXPECT_FALSE(OpenWithContainer(corrupted).ok())
          << "byte " << pos << " flip 0x" << std::hex << int{mask};
    }
  }
}

TEST_F(FlatSnapshotCorruptionTest, StructuralHeaderCorruptionRejected) {
  // FlatHeaderRec field offsets (layout is static_asserted in
  // snapshot/flat_tree.h).
  constexpr std::size_t kMagicOff = 0, kVersionOff = 4, kOrderOff = 8,
                        kLeafOff = 12, kFlagsOff = 20, kDimOff = 24,
                        kCountOff = 32,
                        kNodeCountOff = 40, kRootOff = 48, kObjectsOff = 56,
                        kPathCountOff = 72, kBoundsOff = 80,
                        kEntriesCountOff = 104, kNodesOff = 112,
                        kChildrenCountOff = 128, kArenaBytesOff = 136;
  struct Mutation {
    const char* name;
    std::size_t offset;
    std::uint64_t value;
    bool is_u32;
  };
  const Mutation mutations[] = {
      {"bad magic", kMagicOff, 0xdeadbeefu, true},
      {"future version", kVersionOff, 99, true},
      {"order below 2", kOrderOff, 1, true},
      {"order huge", kOrderOff, 0xffffffffu, true},
      {"leaf capacity zero", kLeafOff, 0, true},
      {"unknown flags", kFlagsOff, 0xff, true},
      // Zero dim with a non-zero object count once divided by zero inside
      // the objects-section bounds check (SIGFPE, not a Status).
      {"dim zero with objects", kDimOff, 0, true},
      {"object count over u32", kCountOff, std::uint64_t{1} << 32, false},
      {"node count zero", kNodeCountOff, 0, false},
      {"node count huge", kNodeCountOff, std::uint64_t{1} << 40, false},
      {"root not first node", kRootOff, 1, false},
      {"root absent", kRootOff, ~std::uint64_t{0}, false},
      {"objects misaligned", kObjectsOff, 145, false},
      {"objects out of bounds", kObjectsOff, std::uint64_t{1} << 60, false},
      {"path count huge", kPathCountOff, std::uint64_t{1} << 60, false},
      {"bounds out of bounds", kBoundsOff, std::uint64_t{1} << 60, false},
      {"entry count huge", kEntriesCountOff, std::uint64_t{1} << 60, false},
      {"nodes out of bounds", kNodesOff, std::uint64_t{1} << 60, false},
      {"children count zero", kChildrenCountOff, 0, false},
      {"arena size lie", kArenaBytesOff, 8, false},
  };
  for (const Mutation& m : mutations) {
    const Status status = OpenWithMutatedArena([&](auto& arena) {
      if (m.is_u32) {
        PokeU32(arena, m.offset, static_cast<std::uint32_t>(m.value));
      } else {
        PokeU64(arena, m.offset, m.value);
      }
    });
    EXPECT_FALSE(status.ok()) << m.name << " was accepted";
  }
}

TEST_F(FlatSnapshotCorruptionTest, StructuralNodeAndEntryCorruptionRejected) {
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  const auto [payload, length] = parsed.value().chunk_payload(0);
  const std::vector<std::uint8_t> arena0(payload + 8, payload + length);
  const std::uint64_t entries_offset = PeekU64(arena0, 96);
  const std::uint64_t nodes_offset = PeekU64(arena0, 112);
  const std::uint64_t children_offset = PeekU64(arena0, 120);
  const std::uint64_t children_count = PeekU64(arena0, 128);
  ASSERT_GT(children_count, 0u);  // 90 points, leaf 6: root is internal

  // Root node's flags carry an undefined bit.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, static_cast<std::size_t>(nodes_offset), 0xf0);
               }).ok());
  // Root's vp1 points past the object table.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, static_cast<std::size_t>(nodes_offset) + 4,
                         0x0fffffffu);
               }).ok());
  // A child link pointing backwards (to the root itself) — a cycle the
  // preorder rule must reject before any traversal can loop on it.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, static_cast<std::size_t>(children_offset), 0);
               }).ok());
  // First two stored ids out of range (in v2 the entries section is the
  // bare u32 id column; the same pokes hit the first leaf entry's id and
  // PATH fields in a v1 arena).
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, static_cast<std::size_t>(entries_offset),
                         0x0fffffffu);
               }).ok());
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, static_cast<std::size_t>(entries_offset) + 4,
                         0x0fffffffu);
               }).ok());
}

TEST_F(FlatSnapshotCorruptionTest, V2SoaStructuralCorruptionRejected) {
  // The structures v2 introduced and v3 and v4 keep: the 48-byte header
  // extension locating the D1/D2 columns and the per-node PATH-slab
  // records, and the canonical slab tiling rule. Every mutation leaves all
  // checksums VALID (the harness rebuilds them), so the structural pass
  // alone must reject.
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  const auto [payload, length] = parsed.value().chunk_payload(0);
  const std::vector<std::uint8_t> arena0(payload + 8, payload + length);
  ASSERT_EQ(PeekU32(arena0, 4), 4u);  // fixture writes the v4 format
  const std::uint64_t node_count = PeekU64(arena0, 40);
  const std::uint64_t nodes_offset = PeekU64(arena0, 112);
  constexpr std::size_t kExtD1Off = 144, kExtD2Off = 152,
                        kExtLeafPathsOff = 160, kExtReservedOff = 168;
  const std::uint64_t leafpaths_offset = PeekU64(arena0, kExtLeafPathsOff);

  std::vector<std::size_t> leaves;
  std::size_t internal_node = ~std::size_t{0};
  for (std::size_t n = 0; n < node_count; ++n) {
    const std::uint32_t flags = PeekU32(
        arena0, static_cast<std::size_t>(nodes_offset) +
                    n * sizeof(core::NodeRec));
    if ((flags & 1u) != 0) {
      leaves.push_back(n);
    } else {
      internal_node = n;
    }
  }
  ASSERT_GE(leaves.size(), 2u);
  ASSERT_NE(internal_node, ~std::size_t{0});
  const auto lp_off = [&](std::size_t n) {
    return static_cast<std::size_t>(leafpaths_offset) + n * 16;
  };

  // An internal node carrying a PATH slab record.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU64(arena, lp_off(internal_node), 1);
               }).ok());
  // First leaf's slab shifted: the slabs no longer tile the PATH pool.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU64(arena, lp_off(leaves[0]),
                         PeekU64(arena, lp_off(leaves[0])) + 8);
               }).ok());
  // Second leaf's slab pulled backwards to OVERLAP the first leaf's.
  const std::uint64_t second_slab = PeekU64(arena0, lp_off(leaves[1]));
  ASSERT_GT(second_slab, 0u);  // p=5 makes every leaf slab non-empty
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU64(arena, lp_off(leaves[1]), second_slab - 1);
               }).ok());
  // A leaf PATH length exceeding the header's p.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, lp_off(leaves[0]) + 8,
                         PeekU32(arena, 16) + 1);
               }).ok());
  // Nonzero reserved field in a leaf path record.
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU32(arena, lp_off(leaves[0]) + 12, 7);
               }).ok());
  // Nonzero reserved words in the header extension.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                   PokeU64(arena, kExtReservedOff + 8 * r, 1);
                 }).ok());
  }
  // D1/D2/leafpaths sections pointing out of the mapping (truncated
  // columns), and a misaligned D1 column.
  for (const std::size_t off : {kExtD1Off, kExtD2Off, kExtLeafPathsOff}) {
    EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                   PokeU64(arena, off, std::uint64_t{1} << 60);
                 }).ok());
  }
  EXPECT_FALSE(OpenWithMutatedArena([&](auto& arena) {
                 PokeU64(arena, kExtD1Off, PeekU64(arena, kExtD1Off) + 4);
               }).ok());
}

/// v3's row order: each node records its vp1's row, and those rows tile
/// [entry_count, object_count) in node preorder. A vp row inside the entry
/// rows, one at or past the object count, and two nodes' rows swapped are
/// each Corruption at open, with every checksum valid.
TEST_F(FlatSnapshotCorruptionTest, V3VantagePointRowsRejected) {
  auto parsed = ContainerReader::Parse(container_.data(), container_.size());
  ASSERT_TRUE(parsed.ok());
  const auto [payload, length] = parsed.value().chunk_payload(0);
  const std::vector<std::uint8_t> arena0(payload + 8, payload + length);
  flat::FlatHeaderRec header;
  std::memcpy(&header, arena0.data(), sizeof(header));
  ASSERT_EQ(header.version, flat::kFlatVersionV4);
  ASSERT_GE(header.node_count, 2u);
  const auto vp_row_at = [&](std::size_t n) {
    return static_cast<std::size_t>(header.nodes_offset) +
           n * sizeof(core::NodeRec) + offsetof(core::NodeRec, vp_row);
  };
  const std::uint32_t row0 = PeekU32(arena0, vp_row_at(0));
  const std::uint32_t row1 = PeekU32(arena0, vp_row_at(1));
  ASSERT_EQ(row0, header.entry_count);  // the root's vp1 opens the vp rows
  ASSERT_GT(row1, row0);

  const auto open_with_row = [&](std::size_t n, std::uint32_t row) {
    return OpenWithMutatedArena(
        [&](auto& arena) { PokeU32(arena, vp_row_at(n), row); });
  };
  EXPECT_EQ(open_with_row(0, 0).code(), StatusCode::kCorruption);
  EXPECT_EQ(open_with_row(1, row0 - 1).code(), StatusCode::kCorruption);
  EXPECT_EQ(
      open_with_row(0, static_cast<std::uint32_t>(header.object_count)).code(),
      StatusCode::kCorruption);
  EXPECT_EQ(open_with_row(0, 0xffffffffu).code(), StatusCode::kCorruption);
  EXPECT_EQ(OpenWithMutatedArena([&](auto& arena) {
              PokeU32(arena, vp_row_at(0), row1);
              PokeU32(arena, vp_row_at(1), row0);
            }).code(),
            StatusCode::kCorruption);
  // The same three arenas through the parser alone.
  const auto parse_with_row = [&](std::size_t n, std::uint32_t row) {
    std::vector<std::uint8_t> arena = arena0;
    PokeU32(arena, vp_row_at(n), row);
    return flat::ParseFlatArena(arena.data(), arena.size()).status();
  };
  EXPECT_NE(parse_with_row(0, 0).message().find("row out of range"),
            std::string::npos);
  EXPECT_NE(parse_with_row(0, static_cast<std::uint32_t>(header.object_count))
                .message()
                .find("row out of range"),
            std::string::npos);
  EXPECT_NE(parse_with_row(1, row1 + 1).message().find("out of preorder"),
            std::string::npos);
}

TEST_F(FlatSnapshotCorruptionTest, TamperedManifestParamsFailFast) {
  auto parsed = SnapshotManifest::Parse(manifest_);
  ASSERT_TRUE(parsed.ok());
  SnapshotManifest tampered = parsed.value();
  tampered.leaf_capacity += 1;
  ASSERT_TRUE(
      WriteFile(gen_dir_ + "/" + SnapshotStore::kManifestFile,
                tampered.Serialize())
          .ok());
  SnapshotStore store(dir_);
  EXPECT_EQ(store.OpenFlat(L2()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FlatSnapshotCorruptionTest, HeapSnapshotRejectedByFlatOpen) {
  // LoadSharded opens either layout; OpenFlat opens only the flat one.
  SnapshotStore store(dir_);
  // While the fixture's flat generation is current, LoadSharded serves it
  // flat, answering as OpenFlat's index does...
  auto loaded = store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().manifest.index_kind,
            IndexKind::kFlatShardedMvpIndex);
  EXPECT_TRUE(loaded.value().stable_ids.empty());
  auto opened = store.OpenFlat(L2());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const auto& q : dataset::UniformQueryVectors(20, 5, 23)) {
    SearchStats ls, os;
    EXPECT_EQ(loaded.value().index.KnnSearch(q, 4, &ls),
              opened.value().index.KnnSearch(q, 4, &os));
    EXPECT_EQ(ls.distance_computations, os.distance_computations);
  }
  // ...while of a heap generation (a copy of the frozen golden_heap),
  // OpenFlat refuses it as a generation of another kind, and LoadSharded
  // deserializes it.
  SnapshotStore heap_store(GoldenHeapCopy("flatcorrupt_heap_generation"));
  EXPECT_EQ(heap_store.OpenFlat(L2()).status().code(),
            StatusCode::kInvalidArgument);
  auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ(heap.value().manifest.index_kind, IndexKind::kShardedMvpIndex);
  std::filesystem::remove_all(heap_store.dir());
}

/// A serialized multi-level tree whose root, an internal node, has its
/// second vantage point flag cleared. No builder writes such a node and the
/// traversal relies on every internal node having both vantage points (it
/// would test the second-level shells against a distance of 0 and drop
/// results), so the stream parser, through both of its entry points, and
/// the arena parser refuse it.
class MissingSecondVantagePointTest : public ::testing::Test {
 protected:
  using Tree = core::MvpTree<Vector, L2>;
  static constexpr std::size_t kCount = 300;
  static constexpr std::size_t kDim = 4;

  void SetUp() override {
    Tree::Options options;
    options.leaf_capacity = 9;
    auto built = Tree::Build(dataset::UniformVectors(kCount, kDim, 43), L2(),
                             options);
    ASSERT_TRUE(built.ok());
    BinaryWriter writer;
    ASSERT_TRUE(built.value().Serialize(&writer, VectorCodec()).ok());
    stream_ = std::move(writer).TakeBuffer();
    // The 29-byte options header, the objects (u64 length + doubles each),
    // the PATH pool (u64 length + doubles), then the root's tag and vp1.
    const std::size_t pool = 29 + kCount * (8 + 8 * kDim);
    std::uint64_t path_count = 0;
    std::memcpy(&path_count, stream_.data() + pool, sizeof(path_count));
    const std::size_t root = pool + 8 + 8 * path_count;
    ASSERT_EQ(stream_[root], 2);  // internal node tag
    ASSERT_EQ(stream_[root + 9], 1);
    damaged_ = stream_;
    damaged_[root + 9] = 0;
  }

  std::vector<std::uint8_t> stream_;
  std::vector<std::uint8_t> damaged_;
};

TEST_F(MissingSecondVantagePointTest, HeapStreamReaderRejects) {
  BinaryReader intact(stream_);
  ASSERT_TRUE(Tree::Deserialize(&intact, L2(), VectorCodec()).ok());
  BinaryReader reader(damaged_);
  EXPECT_EQ(Tree::Deserialize(&reader, L2(), VectorCodec()).status().code(),
            StatusCode::kCorruption);
}

TEST_F(MissingSecondVantagePointTest, BuildFlatArenaRejects) {
  ASSERT_TRUE(flat::BuildFlatArena(stream_.data(), stream_.size()).ok());
  EXPECT_EQ(flat::BuildFlatArena(damaged_.data(), damaged_.size())
                .status()
                .code(),
            StatusCode::kCorruption);
}

/// Shard 0's arena in the frozen v1 fixture (tests/testdata/golden_flat_v1):
/// no writer emits v1 any more, so v1 validation runs on these bytes. Its
/// root is internal.
std::vector<std::uint8_t> FrozenV1Arena() {
  auto arenas =
      GoldenShardArenas(std::string(MVPT_TESTDATA_DIR) + "/golden_flat_v1");
  if (arenas.empty()) {
    ADD_FAILURE() << "frozen v1 fixture has no shard 0";
    return {};
  }
  return std::move(arenas[0]);
}

StatusCode OpenCode(const std::vector<std::uint8_t>& arena) {
  return flat::OpenTree(arena.data(), arena.size(), L2(), nullptr)
      .status()
      .code();
}

/// Shard 0's arena in the frozen v2 fixture (tests/testdata/golden_flat_v2).
std::vector<std::uint8_t> FrozenV2Arena() {
  auto arenas =
      GoldenShardArenas(std::string(MVPT_TESTDATA_DIR) + "/golden_flat_v2");
  if (arenas.empty()) {
    ADD_FAILURE() << "frozen v2 fixture has no shard 0";
    return {};
  }
  return std::move(arenas[0]);
}

/// Shard 0's arena in the frozen v3 fixture (tests/testdata/golden_flat_v3).
std::vector<std::uint8_t> FrozenV3Arena() {
  auto arenas =
      GoldenShardArenas(std::string(MVPT_TESTDATA_DIR) + "/golden_flat_v3");
  if (arenas.empty()) {
    ADD_FAILURE() << "frozen v3 fixture has no shard 0";
    return {};
  }
  return std::move(arenas[0]);
}

/// Every arena version refuses the damaged root: the frozen v1, v2 and v3
/// arenas, read only as upgrade input, and a v4 arena of the stream.
TEST_F(MissingSecondVantagePointTest, ParseFlatArenaRejectsV1AndV2) {
  auto built = flat::BuildFlatArena(stream_.data(), stream_.size());
  ASSERT_TRUE(built.ok());
  for (std::vector<std::uint8_t> arena :
       {FrozenV1Arena(), FrozenV2Arena(), FrozenV3Arena(),
        std::move(built).ValueOrDie()}) {
    ASSERT_TRUE(flat::ParseFlatArena(arena.data(), arena.size()).ok());
    ASSERT_EQ(OpenCode(arena), StatusCode::kOk);
    // The root is node 0; its flags word opens its record.
    flat::FlatHeaderRec header;
    std::memcpy(&header, arena.data(), sizeof(header));
    std::uint32_t flags = 0;
    std::memcpy(&flags, arena.data() + header.nodes_offset, sizeof(flags));
    ASSERT_EQ(flags, core::kNodeHasVp2);  // internal, two vantage points
    flags = 0;
    std::memcpy(arena.data() + header.nodes_offset, &flags, sizeof(flags));
    EXPECT_EQ(flat::ParseFlatArena(arena.data(), arena.size()).status().code(),
              StatusCode::kCorruption)
        << "v" << header.version;
    EXPECT_EQ(OpenCode(arena), StatusCode::kCorruption)
        << "v" << header.version;
  }
}

/// The v1-only leaf entry checks, which now guard the upgrade at open: a
/// leaf entry's id and its PATH slice must lie inside their sections.
/// v2 leaves hold at most the entries section between them, as v1 leaves
/// must: a leaf whose count reaches into later leaves' entries is
/// Corruption, so serializing an opened tree stays proportional to the
/// arena. With p = 0 every PATH slab is empty, so the canonical-slab rule
/// cannot catch it.
TEST(V2LeafEntriesTest, LeavesSharingEntriesRejected) {
  core::MvpTreeOptions options;
  options.leaf_capacity = 6;
  options.num_path_distances = 0;
  auto built = core::MvpTree<Vector, L2>::Build(
      dataset::UniformVectors(600, 4, 43), L2(), options);
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  const std::vector<std::uint8_t> intact = flat::BuildFlatArena(
      tree.options(), tree.rows(), tree.dim(), tree.arrays());
  ASSERT_EQ(OpenCode(intact), StatusCode::kOk);
  flat::FlatHeaderRec header;
  std::memcpy(&header, intact.data(), sizeof(header));

  std::vector<std::uint8_t> shared = intact;
  bool grown = false;
  for (std::uint64_t n = 0; n < header.node_count && !grown; ++n) {
    core::NodeRec node;
    const std::size_t at =
        static_cast<std::size_t>(header.nodes_offset + n * sizeof(node));
    std::memcpy(&node, shared.data() + at, sizeof(node));
    if ((node.flags & core::kNodeLeaf) == 0 || node.count == 0 ||
        node.begin + node.count == header.entry_count) {
      continue;
    }
    node.count = static_cast<std::uint32_t>(header.entry_count - node.begin);
    std::memcpy(shared.data() + at, &node, sizeof(node));
    grown = true;
  }
  ASSERT_TRUE(grown);
  const auto parsed = flat::ParseFlatArena(shared.data(), shared.size());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(parsed.status().message().find("share leaf entries"),
            std::string::npos)
      << parsed.status().ToString();
}

/// Nor may a leaf give up entries: the leaves tile the entries in node
/// order, so a leaf whose count shrinks by one leaves an entry in no leaf,
/// which no search would reach and no MVPT stream of the tree would hold.
TEST(V2LeafEntriesTest, LeavesSkippingEntriesRejected) {
  core::MvpTreeOptions options;
  options.leaf_capacity = 6;
  options.num_path_distances = 0;
  auto built = core::MvpTree<Vector, L2>::Build(
      dataset::UniformVectors(600, 4, 43), L2(), options);
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  std::vector<std::uint8_t> arena = flat::BuildFlatArena(
      tree.options(), tree.rows(), tree.dim(), tree.arrays());
  ASSERT_EQ(OpenCode(arena), StatusCode::kOk);
  flat::FlatHeaderRec header;
  std::memcpy(&header, arena.data(), sizeof(header));
  bool shrunk = false;
  for (std::uint64_t n = 0; n < header.node_count && !shrunk; ++n) {
    core::NodeRec node;
    const std::size_t at =
        static_cast<std::size_t>(header.nodes_offset + n * sizeof(node));
    std::memcpy(&node, arena.data() + at, sizeof(node));
    if ((node.flags & core::kNodeLeaf) == 0 || node.count == 0) continue;
    --node.count;
    std::memcpy(arena.data() + at, &node, sizeof(node));
    shrunk = true;
  }
  ASSERT_TRUE(shrunk);
  const auto parsed = flat::ParseFlatArena(arena.data(), arena.size());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(parsed.status().message().find("skip"), std::string::npos)
      << parsed.status().ToString();
}

/// A leaf keeps at most two PATH distances per internal node above it, the
/// vantage points the MVPT stream writer recomputes them from. A root leaf
/// whose entry keeps two is Corruption, though p allows two and its slab
/// tiles the pool.
TEST(LeafPathDepthTest, PathLongerThanItsAncestorsRejected) {
  core::MvpTreeOptions options;
  options.num_path_distances = 2;
  auto built = core::MvpTree<Vector, L2>::Build(
      dataset::UniformVectors(3, 4, 53), L2(), options);
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  ASSERT_EQ(OpenCode(flat::BuildFlatArena(tree.options(), tree.rows(),
                                          tree.dim(), tree.arrays())),
            StatusCode::kOk);
  core::TreeArrays crafted = tree.arrays();
  ASSERT_EQ(crafted.node_count, 1u);
  ASSERT_EQ(crafted.entry_count, 1u);
  const core::LeafPathRec leafpath{0, 2, 0};
  const float path[2] = {0.5f, 0.5f};
  crafted.leafpaths = &leafpath;
  crafted.path = path;
  crafted.path_count = 2;
  const std::vector<std::uint8_t> arena = flat::BuildFlatArena(
      tree.options(), tree.rows(), tree.dim(), crafted);
  const auto parsed = flat::ParseFlatArena(arena.data(), arena.size());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(parsed.status().message().find("vantage points above"),
            std::string::npos)
      << parsed.status().ToString();
  EXPECT_EQ(OpenCode(arena), StatusCode::kCorruption);
}

/// A float leaf column is the narrowing of its distance, bit for bit. One
/// flipped bit of an entry's D1, its D2 or one of its PATH values leaves an
/// arena that parses and opens, and ValidateInvariants returns a
/// Corruption that names the entry by id and row.
TEST(FloatColumnCorruptionTest, OneFlippedBitNamesTheEntry) {
  auto built = core::MvpTree<Vector, L2>::Build(
      dataset::UniformVectors(300, 4, 47), L2());
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  const std::vector<std::uint8_t> intact = flat::BuildFlatArena(
      tree.options(), tree.rows(), tree.dim(), tree.arrays());
  flat::FlatHeaderRec header;
  flat::FlatHeaderExtRec ext;
  std::memcpy(&header, intact.data(), sizeof(header));
  std::memcpy(&ext, intact.data() + sizeof(header), sizeof(ext));
  ASSERT_EQ(header.version, flat::kFlatVersionV4);
  const core::TreeArrays& t = tree.arrays();
  ASSERT_GT(t.entry_count, 40u);
  ASSERT_GT(t.path_count, 0u);
  // Entry 37's D1 and D2, and the first value of the PATH pool, which
  // belongs to entry 0 of the first leaf that keeps a PATH.
  std::size_t path_entry = 0;
  for (std::size_t n = 0; n < t.node_count; ++n) {
    if ((t.nodes[n].flags & core::kNodeLeaf) != 0 &&
        t.leafpaths[n].path_length > 0 && t.nodes[n].count > 0) {
      ASSERT_EQ(t.leafpaths[n].slab_offset, 0u);
      path_entry = t.nodes[n].begin;
      break;
    }
  }
  const struct {
    std::uint64_t offset;
    std::size_t entry;
    const char* what;
  } cases[] = {
      {ext.d1_offset + 37 * sizeof(float), 37, "leaf D1"},
      {ext.d2_offset + 37 * sizeof(float), 37, "leaf D2"},
      {header.path_offset, path_entry, "leaf PATH distance"},
  };
  for (const auto& c : cases) {
    for (const std::uint8_t bit : {0x01, 0x40}) {
      std::vector<std::uint8_t> arena = intact;
      arena[static_cast<std::size_t>(c.offset)] ^= bit;
      auto opened = flat::OpenTree(arena.data(), arena.size(), L2(), nullptr);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const Status status = opened.value().ValidateInvariants();
      EXPECT_EQ(status.code(), StatusCode::kCorruption) << c.what;
      const std::string name = "object " + std::to_string(t.ids[c.entry]) +
                               " at row " + std::to_string(c.entry) + ": " +
                               c.what;
      EXPECT_NE(status.message().find(name), std::string::npos)
          << status.ToString() << " (want " << name << ")";
    }
  }
  auto opened = flat::OpenTree(intact.data(), intact.size(), L2(), nullptr);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().ValidateInvariants().ok());
}

TEST(FrozenV1ArenaTest, OpenRejectsBadLeafEntries) {
  const std::vector<std::uint8_t> intact = FrozenV1Arena();
  ASSERT_EQ(OpenCode(intact), StatusCode::kOk);
  flat::FlatHeaderRec header;
  std::memcpy(&header, intact.data(), sizeof(header));
  ASSERT_EQ(header.version, flat::kFlatVersionV1);
  ASSERT_GT(header.entry_count, 0u);
  // The first FlatLeafEntryRec: u32 id, u32 path_offset, u32 path_length.
  const std::size_t entry = static_cast<std::size_t>(header.entries_offset);
  const auto poke = [&](std::size_t at, std::uint32_t value) {
    std::vector<std::uint8_t> arena = intact;
    std::memcpy(arena.data() + at, &value, sizeof(value));
    return OpenCode(arena);
  };
  EXPECT_EQ(poke(entry, static_cast<std::uint32_t>(header.object_count)),
            StatusCode::kCorruption);
  std::uint32_t path_length = 0;
  std::memcpy(&path_length, intact.data() + entry + 8, sizeof(path_length));
  ASSERT_GT(path_length, 0u);
  EXPECT_EQ(poke(entry + 4, static_cast<std::uint32_t>(header.path_count)),
            StatusCode::kCorruption);
}

/// Open upgrades a v1 arena into a v4 arena whose PATH slab holds count x
/// path_length values per leaf. Leaves sharing entries, or entries sharing
/// one PATH slice, would let a few-MB hostile arena demand a slab of many
/// GiB, so Open must reject them before upgrading.
TEST(FrozenV1ArenaTest, OpenRejectsSharedEntriesAndPathSlices) {
  const std::vector<std::uint8_t> intact = FrozenV1Arena();
  ASSERT_EQ(OpenCode(intact), StatusCode::kOk);
  flat::FlatHeaderRec header;
  std::memcpy(&header, intact.data(), sizeof(header));
  ASSERT_EQ(header.version, flat::kFlatVersionV1);
  ASSERT_GT(header.path_count, header.num_path_distances);
  const auto for_each_entry = [&](std::vector<std::uint8_t>* arena,
                                  const auto& edit) {
    for (std::uint64_t i = 0; i < header.entry_count; ++i) {
      std::uint8_t* at = arena->data() + header.entries_offset +
                         i * sizeof(flat::FlatLeafEntryRec);
      flat::FlatLeafEntryRec e;
      std::memcpy(&e, at, sizeof(e));
      edit(&e);
      std::memcpy(at, &e, sizeof(e));
    }
  };
  const auto with_p = [&](std::vector<std::uint8_t> arena, std::uint64_t p) {
    flat::FlatHeaderRec h = header;
    h.num_path_distances = static_cast<std::uint32_t>(p);
    std::memcpy(arena.data(), &h, sizeof(h));
    return arena;
  };

  // An entry whose PATH length exceeds the header's p is refused by the v1
  // pass itself, before any upgrade.
  ASSERT_GT(header.num_path_distances, 0u);
  const std::vector<std::uint8_t> p0 = with_p(intact, 0);
  EXPECT_EQ(flat::ParseFlatArena(p0.data(), p0.size()).status().code(),
            StatusCode::kCorruption);

  // Every entry points at one full-length slice: the whole PATH pool.
  std::vector<std::uint8_t> shared = intact;
  for_each_entry(&shared, [&](flat::FlatLeafEntryRec* e) {
    e->path_offset = 0;
    e->path_length = static_cast<std::uint32_t>(header.path_count);
  });
  EXPECT_EQ(OpenCode(shared), StatusCode::kCorruption);  // length over p
  // With the header's p raised to match, only the slab total catches it;
  // raising p alone leaves a valid arena.
  ASSERT_EQ(OpenCode(with_p(intact, header.path_count)), StatusCode::kOk);
  EXPECT_EQ(OpenCode(with_p(shared, header.path_count)),
            StatusCode::kCorruption);

  // Every leaf spans all the entries. Their PATH slices are emptied so the
  // slab stays empty and only the entry total catches it; emptying them
  // alone leaves a valid arena.
  std::vector<std::uint8_t> no_paths = intact;
  for_each_entry(&no_paths,
                 [](flat::FlatLeafEntryRec* e) { e->path_length = 0; });
  ASSERT_EQ(OpenCode(no_paths), StatusCode::kOk);
  std::size_t leaves = 0;
  for (std::uint64_t i = 0; i < header.node_count; ++i) {
    std::uint8_t* at = no_paths.data() + header.nodes_offset +
                       i * sizeof(flat::FlatNodeRecV2);
    flat::FlatNodeRecV2 node;
    std::memcpy(&node, at, sizeof(node));
    if ((node.flags & core::kNodeLeaf) == 0) continue;
    ++leaves;
    node.begin = 0;
    node.count = static_cast<std::uint32_t>(header.entry_count);
    std::memcpy(at, &node, sizeof(node));
  }
  ASSERT_GE(leaves, 2u);
  EXPECT_EQ(OpenCode(no_paths), StatusCode::kCorruption);
}

/// A flat arena's header p is untrusted, and the traversal sizes its
/// query PATH from it. Searched in a child process whose address space is
/// capped at 1 GiB over its current size, golden_flat's shard-0 arena with
/// p patched to 2^31 - 1 must answer, results and distance counts, exactly
/// as the intact arena does. Child exit codes: 2 results differ, 3
/// bad_alloc, 4 setup failed (1 is the sanitizers' error exit).
TEST(HostilePathCountTest, HugeHeaderPSearchesInBoundedMemory) {
  auto arenas =
      GoldenShardArenas(std::string(MVPT_TESTDATA_DIR) + "/golden_flat");
  ASSERT_FALSE(arenas.empty());
  const std::vector<std::uint8_t>& intact = arenas[0];
  flat::FlatHeaderRec header;
  std::memcpy(&header, intact.data(), sizeof(header));
  ASSERT_EQ(header.version, flat::kFlatVersionV4);
  std::vector<std::uint8_t> hostile = intact;
  header.num_path_distances = 0x7fffffff;
  std::memcpy(hostile.data(), &header, sizeof(header));
  ASSERT_EQ(OpenCode(hostile), StatusCode::kOk);

  using Tree = core::MvpTree<Vector, L2>;
  auto search = [](const Tree& tree, const Vector& q, SearchStats* stats) {
    auto hits = tree.RangeSearch(q, 0.5, stats);
    for (const Neighbor& n : tree.KnnSearch(q, 5, stats)) hits.push_back(n);
    return hits;
  };
  auto view = flat::OpenTree(intact.data(), intact.size(), L2(), nullptr);
  ASSERT_TRUE(view.ok());
  const auto queries = dataset::UniformQueryVectors(10, header.dim, 41);
  std::vector<std::vector<Neighbor>> expected;
  std::vector<std::uint64_t> expected_dists;
  for (const auto& q : queries) {
    SearchStats stats;
    expected.push_back(search(view.value(), q, &stats));
    expected_dists.push_back(stats.distance_computations);
  }

  long pages = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) GTEST_SKIP() << "needs /proc/self/statm";
  const bool read = std::fscanf(statm, "%ld", &pages) == 1;
  std::fclose(statm);
  ASSERT_TRUE(read);
  const rlim_t cap = static_cast<rlim_t>(pages) *
                         static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                     (rlim_t{1} << 30);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 0;
    try {
      const rlimit limit{cap, cap};
      if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(4);
      auto served =
          flat::OpenTree(hostile.data(), hostile.size(), L2(), nullptr);
      if (!served.ok()) std::_Exit(4);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        SearchStats stats;
        if (search(served.value(), queries[i], &stats) != expected[i] ||
            stats.distance_computations != expected_dists[i]) {
          code = 2;
        }
      }
    } catch (const std::bad_alloc&) {
      code = 3;
    }
    std::_Exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace mvp::snapshot
