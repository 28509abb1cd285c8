#ifndef MVPTREE_SNAPSHOT_FORMAT_H_
#define MVPTREE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/serialize.h"
#include "common/status.h"

/// \file
/// The snapshot container: a chunked, checksummed framing around the
/// BinaryWriter index codecs (docs/index_format.md documents the layout).
///
/// A container holds N independent chunks — per shard an arena (or an
/// earlier release's tree stream) and its id map, or a delta's forest
/// stream and id sets. Every chunk carries its own CRC32C, and the header
/// (magic, version, flags, chunk table) carries one too, so truncation and
/// bit-rot anywhere in the file surface as Status::Corruption naming the
/// failing chunk, never as a crash or a silently wrong index. Chunk
/// payloads are located by (offset, length), which is what lets the read
/// path hand each parallel shard loader a zero-copy span of the mmap'd
/// file instead of re-reading a sequential stream.

namespace mvp::snapshot {

inline constexpr std::uint32_t kContainerMagic = 0x5350564d;  // "MVPS"
inline constexpr std::uint32_t kContainerVersion = 1;

/// What a chunk's payload contains.
enum class ChunkKind : std::uint32_t {
  /// u64 shard index, u64v global ids, mvp-tree stream. Written only by
  /// earlier releases (index kind 1); read forever.
  kShardTree = 1,
  kForest = 2,     ///< one MvpForest stream
  kFlatShard = 3,  ///< u64 shard index, then one flat mvp-tree arena
                   ///< (snapshot/flat_tree.h), searched in place
  /// u64v: ascending stable ids, entry g is the stable id of global id g.
  /// Written by the online-update checkpoint/compaction path; absent means
  /// the identity mapping (a generation built directly from a dataset).
  kStableIds = 4,
  /// u64v: sorted stable ids erased from the base generation (a delta
  /// generation's tombstone set).
  kTombstones = 5,
  /// A by-reference shard chunk: `[u64 target generation][u64 target chunk
  /// index][u64 payload length][u32 crc32c]`. Stands for the physical shard
  /// chunk of its own generation's layout (kFlatShard, or kShardTree in a
  /// generation an earlier release wrote) that it names in an earlier
  /// generation's container — written by compaction when a shard's arena
  /// is identical to the base's, so unchanged shards cost 28 bytes instead
  /// of a full rewrite. Refs always name a PHYSICAL chunk (never another
  /// ref); the referenced generation is pinned by the manifest's
  /// base_generation lineage, which PruneStaleGenerations preserves.
  kShardTreeRef = 6,
  /// u64 shard index, u64v global ids (ascending): a flat shard's
  /// local-id -> global-id map. A flat generation without these chunks is
  /// round-robin (local id i of shard s of K is global id i*K + s).
  kFlatShardIds = 7,
};

/// File-offset alignment required for ChunkKind::kFlatShard payloads: the
/// arena that follows the payload's 8-byte shard index is read in place as
/// u64/double/32-byte records, so the payload must start on an 8-byte file
/// offset (which mmap's page alignment — and the heap fallback's allocator
/// alignment — then carries into memory).
inline constexpr std::size_t kFlatChunkAlignment = 8;

/// One entry of the container's chunk table.
struct ChunkEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;  ///< payload start, from file byte 0
  std::uint64_t length = 0;  ///< payload bytes
  std::uint32_t crc32c = 0;  ///< CRC32C of the payload bytes
};

/// Serialized size of the fixed header for `chunks` table entries:
/// magic, version, flags, chunk_count, then per chunk
/// (kind, reserved, offset, length, crc, reserved2), then the header CRC.
inline std::size_t ContainerHeaderBytes(std::size_t chunks) {
  return 4 * 4 + chunks * (4 + 4 + 8 + 8 + 4 + 4) + 4;
}

/// Accumulates chunks in memory and emits the complete container file.
/// Snapshots are bounded by what the index itself holds in RAM, so an
/// in-memory assembly (followed by one crash-safe WriteFileAtomic) is the
/// simple and sufficient write path.
class ContainerWriter {
 public:
  /// Queues a chunk. `alignment` (a power of two) constrains the payload's
  /// file offset; Finalize zero-pads the gap before an aligned chunk.
  /// Readers are oblivious to padding — chunks are located by (offset,
  /// length) — so aligned and unaligned chunks mix freely in one container.
  void AddChunk(ChunkKind kind, std::vector<std::uint8_t> payload,
                std::size_t alignment = 1) {
    MVP_DCHECK(alignment > 0 && (alignment & (alignment - 1)) == 0);
    ChunkEntry entry;
    entry.kind = static_cast<std::uint32_t>(kind);
    entry.length = payload.size();
    entry.crc32c = Crc32c(payload.data(), payload.size());
    entries_.push_back(entry);
    alignments_.push_back(alignment);
    payloads_.push_back(std::move(payload));
  }

  std::size_t num_chunks() const { return entries_.size(); }

  /// Lays out header + payloads and returns the whole file's bytes. Each
  /// payload is freed once copied into the file image, so a save never
  /// holds two full copies of the container.
  std::vector<std::uint8_t> Finalize() && {
    std::uint64_t offset = ContainerHeaderBytes(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const std::uint64_t align = alignments_[i];
      offset = (offset + align - 1) & ~(align - 1);
      entries_[i].offset = offset;
      offset += entries_[i].length;
    }
    BinaryWriter header;
    header.Write<std::uint32_t>(kContainerMagic);
    header.Write<std::uint32_t>(kContainerVersion);
    header.Write<std::uint32_t>(0);  // flags, reserved
    header.Write<std::uint32_t>(static_cast<std::uint32_t>(entries_.size()));
    for (const ChunkEntry& entry : entries_) {
      header.Write<std::uint32_t>(entry.kind);
      header.Write<std::uint32_t>(0);  // reserved
      header.Write<std::uint64_t>(entry.offset);
      header.Write<std::uint64_t>(entry.length);
      header.Write<std::uint32_t>(entry.crc32c);
      header.Write<std::uint32_t>(0);  // reserved
    }
    header.Write<std::uint32_t>(
        Crc32c(header.buffer().data(), header.buffer().size()));

    std::vector<std::uint8_t> file = std::move(header).TakeBuffer();
    file.reserve(static_cast<std::size_t>(offset));
    for (std::size_t i = 0; i < payloads_.size(); ++i) {
      file.resize(static_cast<std::size_t>(entries_[i].offset), 0);
      // resize+memcpy rather than a range insert — see the note on
      // BinaryWriter::Write (GCC 12 -Wnonnull false positive).
      if (!payloads_[i].empty()) {
        const std::size_t base = file.size();
        file.resize(base + payloads_[i].size());
        std::memcpy(file.data() + base, payloads_[i].data(),
                    payloads_[i].size());
      }
      std::vector<std::uint8_t>().swap(payloads_[i]);
    }
    return file;
  }

 private:
  std::vector<ChunkEntry> entries_;
  std::vector<std::size_t> alignments_;
  std::vector<std::vector<std::uint8_t>> payloads_;
};

/// Parses and validates a container over externally owned bytes (typically
/// an MmapFile's view, which must outlive the reader).
class ContainerReader {
 public:
  /// Validates magic, version, header CRC and chunk-table bounds. Chunk
  /// payload CRCs are NOT checked here — call VerifyChunk per chunk (the
  /// parallel load path verifies each shard's chunk on its own thread).
  static Result<ContainerReader> Parse(const std::uint8_t* data,
                                       std::size_t size) {
    BinaryReader reader(data, size);
    std::uint32_t magic = 0, version = 0, flags = 0, count = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&magic));
    if (magic != kContainerMagic) {
      return Status::Corruption("bad snapshot container magic");
    }
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&version));
    if (version != kContainerVersion) {
      return Status::NotSupported("unknown snapshot container version " +
                                  std::to_string(version));
    }
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&flags));
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&count));
    // Each table entry is 32 bytes; bound count before reading the table so
    // a corrupt count cannot drive a huge loop.
    if (ContainerHeaderBytes(count) > size) {
      return Status::Corruption("snapshot chunk table exceeds file size");
    }
    ContainerReader container;
    container.data_ = data;
    container.size_ = size;
    container.entries_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ChunkEntry entry;
      std::uint32_t reserved = 0;
      MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&entry.kind));
      MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&reserved));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&entry.offset));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&entry.length));
      MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&entry.crc32c));
      MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&reserved));
      container.entries_.push_back(entry);
    }
    const std::size_t header_end = reader.position();
    std::uint32_t stored_crc = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&stored_crc));
    if (Crc32c(data, header_end) != stored_crc) {
      return Status::Corruption("snapshot header CRC mismatch");
    }
    for (std::size_t i = 0; i < container.entries_.size(); ++i) {
      const ChunkEntry& entry = container.entries_[i];
      // offset/length are untrusted u64s: check via subtraction, not
      // offset+length, so the sum cannot wrap.
      if (entry.offset > size || entry.length > size - entry.offset) {
        return Status::Corruption("snapshot chunk " + std::to_string(i) +
                                  " extends past end of file");
      }
    }
    return container;
  }

  std::size_t num_chunks() const { return entries_.size(); }
  const ChunkEntry& chunk(std::size_t i) const { return entries_[i]; }

  /// The chunk's payload bytes (within the parsed file view).
  std::pair<const std::uint8_t*, std::size_t> chunk_payload(
      std::size_t i) const {
    const ChunkEntry& entry = entries_[i];
    return {data_ + entry.offset, static_cast<std::size_t>(entry.length)};
  }

  /// Recomputes chunk i's CRC32C; Corruption (naming the chunk index) on
  /// mismatch. This is the bit-rot/truncation detector for payload bytes.
  Status VerifyChunk(std::size_t i) const {
    const auto [payload, length] = chunk_payload(i);
    if (Crc32c(payload, length) != entries_[i].crc32c) {
      return Status::Corruption("snapshot chunk " + std::to_string(i) +
                                " CRC32C mismatch (truncated or corrupt)");
    }
    return Status::OK();
  }

  /// Indexes of all chunks of the given kind, in file order.
  std::vector<std::size_t> ChunksOfKind(ChunkKind kind) const {
    std::vector<std::size_t> found;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].kind == static_cast<std::uint32_t>(kind)) {
        found.push_back(i);
      }
    }
    return found;
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<ChunkEntry> entries_;
};

}  // namespace mvp::snapshot

#endif  // MVPTREE_SNAPSHOT_FORMAT_H_
