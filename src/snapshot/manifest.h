#ifndef MVPTREE_SNAPSHOT_MANIFEST_H_
#define MVPTREE_SNAPSHOT_MANIFEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/serialize.h"
#include "common/shard_partition.h"
#include "common/status.h"

/// \file
/// The snapshot manifest: a small self-checksummed file describing what the
/// container next to it holds — which index kind, how many objects, the
/// exact build parameters, and a fingerprint binding it to the container's
/// bytes. Recording the build parameters here is what lets the load path
/// VALIDATE them against the deserialized index instead of silently
/// mis-deserializing when a snapshot is paired with the wrong options (the
/// container stream itself would happily parse under many parameter
/// combinations).

namespace mvp::snapshot {

inline constexpr std::uint32_t kManifestMagic = 0x4d50564d;  // "MVPM"
inline constexpr std::uint32_t kManifestVersion = 1;
/// Version 2 appends the generation-lineage fields used by online updates
/// (base_generation, last_applied_seq, next_stable_id). A v2 manifest is
/// written ONLY when one of those fields is meaningful — plain dataset
/// builds keep writing v1, so older binaries stay compatible with them and
/// reject lineage-bearing generations with NotSupported instead of serving
/// them with wrong ids.
inline constexpr std::uint32_t kManifestVersionLineage = 2;
/// Version 3 appends the leader-epoch field used for replication fencing.
/// Written ONLY when a nonzero epoch is present — epoch-less stores keep
/// their v1/v2 bytes, so golden files and pre-epoch binaries stay intact.
inline constexpr std::uint32_t kManifestVersionEpoch = 3;
/// Version 4 appends the shard partition (serve::ShardedMvpIndex's top
/// vantage point and per-shard shells) after the v3 fields. Written ONLY
/// for a partitioned index: a pre-partition binary would read its id maps
/// under the round-robin rule and serve wrong ids, so it must reject the
/// generation with NotSupported instead. Unpartitioned generations keep
/// their v1–v3 bytes.
inline constexpr std::uint32_t kManifestVersionPartition = 4;
/// Version 5 marks a flat generation that carries lineage fields — a
/// compaction's, whose kStableIds chunk maps dense ids to stable ids. A
/// binary from before compaction wrote arenas would open it, ignore that
/// chunk and serve dense ids as stable ids, so it must reject the
/// generation with NotSupported instead. The layout is v4's, except that
/// the partition block is preceded by a u8 flag (1 = present, 0 = absent).
/// Every other manifest keeps its v1–v4 bytes.
inline constexpr std::uint32_t kManifestVersionFlatLineage = 5;

/// Index kinds a snapshot can hold.
enum class IndexKind : std::uint8_t {
  kShardedMvpIndex = 1,
  /// Reserved: a whole MvpForest, written by earlier releases. Parse still
  /// accepts it so old stores list and prune, but nothing writes or loads
  /// it.
  kMvpForest = 2,
  /// A sharded mvp-index stored as flat arenas (ChunkKind::kFlatShard)
  /// served directly out of the mapping — no deserialization on load.
  kFlatShardedMvpIndex = 3,
  /// A delta generation: an MvpForest of mutations (plus its stable-id map
  /// and a tombstone set) layered on the full generation named by
  /// base_generation. Written by the online-update checkpoint; always a
  /// version-2 manifest.
  kDynamicDelta = 4,
};

/// `kind`'s name and number, for status messages.
inline std::string IndexKindName(IndexKind kind) {
  const auto number = std::to_string(static_cast<int>(kind));
  switch (kind) {
    case IndexKind::kShardedMvpIndex:
      return "heap sharded (kind " + number + ")";
    case IndexKind::kMvpForest:
      return "forest (kind " + number + ", reserved)";
    case IndexKind::kFlatShardedMvpIndex:
      return "flat sharded (kind " + number + ")";
    case IndexKind::kDynamicDelta:
      return "dynamic delta (kind " + number + ")";
  }
  return "unknown (kind " + number + ")";
}

/// Fingerprint of a container file: CRC32C of all its bytes in the high
/// word, low 32 bits of its length in the low word. Cheap to recompute at
/// load time and collision-resistant enough to catch a manifest paired
/// with the wrong (or regenerated) container.
inline std::uint64_t FingerprintFromCrc(std::uint32_t crc,
                                        std::size_t size) {
  return static_cast<std::uint64_t>(crc) << 32 |
         static_cast<std::uint64_t>(size & 0xffffffffu);
}

inline std::uint64_t ContainerFingerprint(const std::uint8_t* data,
                                          std::size_t size) {
  return FingerprintFromCrc(Crc32c(data, size), size);
}

struct SnapshotManifest {
  IndexKind index_kind = IndexKind::kShardedMvpIndex;
  std::uint64_t object_count = 0;
  std::uint64_t num_chunks = 0;
  std::uint64_t payload_bytes = 0;  ///< container file size
  std::uint64_t dataset_fingerprint = 0;  ///< ContainerFingerprint(container)

  // Build parameters, recorded for validation on load. For a delta
  // generation these describe its forest's static-tree options (num_shards
  // is unused and zero).
  std::uint64_t num_shards = 0;
  std::int32_t order = 0;
  std::int32_t leaf_capacity = 0;
  std::int32_t num_path_distances = 0;
  std::uint64_t seed = 0;
  std::uint8_t store_exact_bounds = 0;

  // Generation lineage (online updates; zero/defaulted on v1 manifests).
  // `base_generation` names the full generation a kDynamicDelta layers on
  // (0 = none). `last_applied_seq` is the WAL sequence watermark folded
  // into this generation: recovery replays only records above it, which is
  // what makes replay idempotent. `next_stable_id` is the next id the
  // overlay will issue (0 = derive as object_count, the v1/identity case).
  std::uint64_t base_generation = 0;
  std::uint64_t last_applied_seq = 0;
  std::uint64_t next_stable_id = 0;

  /// Leader epoch this generation was committed under (0 = epoch-less
  /// store). Replication fencing: a follower that has accepted epoch N
  /// rejects generations and WAL segments stamped with an epoch < N, so a
  /// deposed leader's writes cannot reach it (docs/network_serving.md).
  std::uint64_t leader_epoch = 0;

  /// The shard partition of a partitioned sharded generation (version 4
  /// or 5); absent for round-robin, single-shard and delta generations.
  std::optional<ShardPartition> partition;

  /// True when this manifest must carry the lineage fields, i.e. must be
  /// written as version 2 (and therefore be rejected by pre-lineage
  /// binaries instead of misread).
  bool needs_lineage() const {
    return index_kind == IndexKind::kDynamicDelta || base_generation != 0 ||
           last_applied_seq != 0 || next_stable_id != 0;
  }

  /// True when this manifest must carry the epoch field (version 3). A v3
  /// manifest always carries the lineage fields too, even when zero.
  bool needs_epoch() const { return leader_epoch != 0; }

  /// The version Serialize writes: the lowest that holds every field set.
  std::uint32_t version() const {
    if (index_kind == IndexKind::kFlatShardedMvpIndex && needs_lineage()) {
      return kManifestVersionFlatLineage;
    }
    if (partition.has_value()) return kManifestVersionPartition;
    if (needs_epoch()) return kManifestVersionEpoch;
    return needs_lineage() ? kManifestVersionLineage : kManifestVersion;
  }

  std::vector<std::uint8_t> Serialize() const {
    BinaryWriter writer;
    const std::uint32_t v = version();
    writer.Write<std::uint32_t>(kManifestMagic);
    writer.Write<std::uint32_t>(v);
    writer.Write<std::uint8_t>(static_cast<std::uint8_t>(index_kind));
    writer.Write<std::uint64_t>(object_count);
    writer.Write<std::uint64_t>(num_chunks);
    writer.Write<std::uint64_t>(payload_bytes);
    writer.Write<std::uint64_t>(dataset_fingerprint);
    writer.Write<std::uint64_t>(num_shards);
    writer.Write<std::int32_t>(order);
    writer.Write<std::int32_t>(leaf_capacity);
    writer.Write<std::int32_t>(num_path_distances);
    writer.Write<std::uint64_t>(seed);
    writer.Write<std::uint8_t>(store_exact_bounds);
    if (v >= kManifestVersionLineage) {
      writer.Write<std::uint64_t>(base_generation);
      writer.Write<std::uint64_t>(last_applied_seq);
      writer.Write<std::uint64_t>(next_stable_id);
    }
    if (v >= kManifestVersionEpoch) {
      writer.Write<std::uint64_t>(leader_epoch);
    }
    if (v >= kManifestVersionFlatLineage) {
      writer.Write<std::uint8_t>(partition.has_value() ? 1 : 0);
    }
    if (partition.has_value()) WritePartition(*partition, &writer);
    writer.Write<std::uint32_t>(
        Crc32c(writer.buffer().data(), writer.buffer().size()));
    return std::move(writer).TakeBuffer();
  }

  /// The version-4 fields (version 5's when its flag is set).
  static void WritePartition(
      const ShardPartition& partition, BinaryWriter* writer) {
    writer->Write<std::uint64_t>(partition.vantage_shard);
    writer->Write<std::uint64_t>(partition.vantage_local);
    writer->Write<std::uint64_t>(partition.shells.size());
    for (const ShardShell& shell : partition.shells) {
      writer->Write<double>(shell.lo);
      writer->Write<double>(shell.hi);
    }
  }

  static Result<SnapshotManifest> Parse(const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < 4) {
      return Status::Corruption("snapshot manifest truncated");
    }
    BinaryReader reader(bytes.data(), bytes.size());
    std::uint32_t magic = 0, version = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&magic));
    if (magic != kManifestMagic) {
      return Status::Corruption("bad snapshot manifest magic");
    }
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&version));
    if (version < kManifestVersion || version > kManifestVersionFlatLineage) {
      return Status::NotSupported("unknown snapshot manifest version " +
                                  std::to_string(version));
    }
    SnapshotManifest manifest;
    std::uint8_t kind = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint8_t>(&kind));
    if (kind != static_cast<std::uint8_t>(IndexKind::kShardedMvpIndex) &&
        kind != static_cast<std::uint8_t>(IndexKind::kMvpForest) &&
        kind != static_cast<std::uint8_t>(IndexKind::kFlatShardedMvpIndex) &&
        kind != static_cast<std::uint8_t>(IndexKind::kDynamicDelta)) {
      return Status::Corruption("unknown snapshot index kind");
    }
    manifest.index_kind = static_cast<IndexKind>(kind);
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.object_count));
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.num_chunks));
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.payload_bytes));
    MVP_RETURN_NOT_OK(
        reader.Read<std::uint64_t>(&manifest.dataset_fingerprint));
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.num_shards));
    MVP_RETURN_NOT_OK(reader.Read<std::int32_t>(&manifest.order));
    MVP_RETURN_NOT_OK(reader.Read<std::int32_t>(&manifest.leaf_capacity));
    MVP_RETURN_NOT_OK(
        reader.Read<std::int32_t>(&manifest.num_path_distances));
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.seed));
    MVP_RETURN_NOT_OK(reader.Read<std::uint8_t>(&manifest.store_exact_bounds));
    if (version >= kManifestVersionLineage) {
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.base_generation));
      MVP_RETURN_NOT_OK(
          reader.Read<std::uint64_t>(&manifest.last_applied_seq));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.next_stable_id));
    }
    if (version >= kManifestVersionEpoch) {
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&manifest.leader_epoch));
    }
    std::uint8_t has_partition = version >= kManifestVersionPartition;
    if (version >= kManifestVersionFlatLineage) {
      MVP_RETURN_NOT_OK(reader.Read<std::uint8_t>(&has_partition));
      if (has_partition > 1 ||
          manifest.index_kind != IndexKind::kFlatShardedMvpIndex) {
        return Status::Corruption("bad version-5 snapshot manifest");
      }
    }
    if (has_partition != 0) {
      ShardPartition& partition = manifest.partition.emplace();
      std::uint64_t count = 0;
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&partition.vantage_shard));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&partition.vantage_local));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&count));
      // Each shell is 16 bytes: bound the untrusted count by what is left.
      if (count > (bytes.size() - reader.position()) / 16) {
        return Status::Corruption("snapshot manifest truncated");
      }
      partition.shells.resize(static_cast<std::size_t>(count));
      for (ShardShell& shell : partition.shells) {
        MVP_RETURN_NOT_OK(reader.Read<double>(&shell.lo));
        MVP_RETURN_NOT_OK(reader.Read<double>(&shell.hi));
      }
    }
    const std::size_t body_end = reader.position();
    std::uint32_t stored_crc = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&stored_crc));
    if (Crc32c(bytes.data(), body_end) != stored_crc) {
      return Status::Corruption("snapshot manifest CRC mismatch");
    }
    return manifest;
  }
};

}  // namespace mvp::snapshot

#endif  // MVPTREE_SNAPSHOT_MANIFEST_H_
