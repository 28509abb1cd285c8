#ifndef MVPTREE_SNAPSHOT_SNAPSHOT_STORE_H_
#define MVPTREE_SNAPSHOT_SNAPSHOT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "dynamic/mvp_forest.h"
#include "metric/lp.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/flat_tree.h"
#include "snapshot/format.h"
#include "snapshot/manifest.h"
#include "snapshot/mmap_file.h"

/// \file
/// Durable generational snapshot store for serving indexes.
///
/// Layout (docs/index_format.md has the byte-level formats):
///
///   <dir>/CURRENT            names the live generation ("gen-000007")
///   <dir>/gen-000007/MANIFEST      self-checksummed metadata + build params
///   <dir>/gen-000007/shards.mvps   chunked CRC32C container (per shard a
///                                  flat arena and its id map, or a delta's
///                                  forest stream and id sets)
///
/// Crash safety is the LevelDB/RocksDB discipline: every file is written
/// via temp + fsync + atomic rename (WriteFileAtomic), and a generation
/// becomes live only when CURRENT — itself swapped atomically, last — names
/// it. A kill at ANY point therefore leaves the previous generation fully
/// loadable: half-written files live in a generation directory nothing
/// references yet, and stray `.tmp` files are ignored by the read path.
///
/// Every writer lays a full generation out as flat arenas, which the read
/// path serves in place off the mmap'd container. Generations an earlier
/// release wrote as MVPT tree streams (index kind 1) still load: each shard
/// loader gets a zero-copy span of the mapping, so parallel shard
/// deserialization (on a serve::ThreadPool) shares one physical copy of the
/// bytes and streams them straight from the page cache.

namespace mvp::snapshot {

/// A sharded index loaded from a snapshot, with its provenance.
template <typename Object, metric::MetricFor<Object> Metric>
struct LoadedSharded {
  serve::ShardedMvpIndex<Object, Metric> index;
  SnapshotManifest manifest;
  std::uint64_t generation = 0;
  /// Global id -> stable id, ascending (ChunkKind::kStableIds). Empty means
  /// the identity mapping — a generation built directly from a dataset.
  std::vector<std::uint64_t> stable_ids;
};

/// A delta generation's pieces (kDynamicDelta): the mutation forest, its
/// forest-id -> stable-id map, and the stable ids erased from the base.
template <typename Object, metric::MetricFor<Object> Metric>
struct LoadedDelta {
  dynamic::MvpForest<Object, Metric> forest;
  std::vector<std::uint64_t> forest_stable_ids;
  std::vector<std::uint64_t> base_tombstones;
  SnapshotManifest manifest;
  std::uint64_t generation = 0;
};

class SnapshotStore {
 public:
  static constexpr const char* kCurrentFile = "CURRENT";
  static constexpr const char* kManifestFile = "MANIFEST";
  static constexpr const char* kContainerFile = "shards.mvps";
  /// Decimal leader epoch, newline-terminated. Absent = epoch 0 (a store
  /// that has never been under replication fencing).
  static constexpr const char* kEpochFile = "EPOCH";

  explicit SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// The store's persisted leader epoch; 0 when no EPOCH file exists.
  /// Every generation committed while the file holds N is stamped with
  /// epoch N in its manifest, which is what lets a follower reject a
  /// deposed leader's output (docs/network_serving.md, HA section).
  std::uint64_t ReadEpoch() const {
    auto bytes = ReadFile(dir_ + "/" + kEpochFile);
    if (!bytes.ok()) return 0;
    std::uint64_t epoch = 0;
    for (const std::uint8_t c : bytes.value()) {
      if (c == '\n' || c == '\r') break;
      if (c < '0' || c > '9') return 0;
      epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return epoch;
  }

  /// Persists `epoch` atomically. Epochs must only move forward; callers
  /// enforce monotonicity (BumpEpoch, or a follower adopting a leader's
  /// larger epoch).
  Status WriteEpoch(std::uint64_t epoch) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::IOError("cannot create store dir: " + dir_);
    const std::string text = std::to_string(epoch) + "\n";
    return WriteFileAtomic(dir_ + "/" + kEpochFile,
                           std::vector<std::uint8_t>(text.begin(), text.end()));
  }

  /// Atomically advances the epoch by one and returns the new value — the
  /// promotion step that fences every generation the old leader commits
  /// from now on.
  Result<std::uint64_t> BumpEpoch() {
    const std::uint64_t next = ReadEpoch() + 1;
    MVP_RETURN_NOT_OK(WriteEpoch(next));
    return next;
  }

  std::string GenerationDir(std::uint64_t gen) const {
    return dir_ + "/" + GenerationName(gen);
  }

  /// The live generation number, or NotFound when the store is empty (no
  /// CURRENT file). A store directory that does not exist yet is simply an
  /// empty store. A CURRENT that cannot be read is an IOError, and one that
  /// names no generation — no digits, a non-digit, or generation 0, which
  /// no commit writes — is Corruption: neither is an empty store, so no
  /// caller may reuse or prune generation numbers on its word.
  Result<std::uint64_t> CurrentGeneration() const {
    const std::string path = dir_ + "/" + kCurrentFile;
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      std::error_code ec;
      if (!std::filesystem::exists(path, ec) && !ec) {
        return Status::NotFound("snapshot store has no committed generation");
      }
      return bytes.status();
    }
    std::string name(bytes.value().begin(), bytes.value().end());
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
      name.pop_back();
    }
    std::uint64_t gen = 0;
    bool valid = name.rfind("gen-", 0) == 0 && name.size() > 4;
    for (std::size_t i = 4; valid && i < name.size(); ++i) {
      valid = name[i] >= '0' && name[i] <= '9';
      gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (!valid || gen == 0) {
      return Status::Corruption("CURRENT does not name a generation");
    }
    return gen;
  }

  /// All generation directories present on disk (committed or orphaned),
  /// ascending.
  std::vector<std::uint64_t> ListGenerations() const {
    std::vector<std::uint64_t> gens;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("gen-", 0) != 0) continue;
      std::uint64_t gen = 0;
      bool numeric = name.size() > 4;
      for (std::size_t i = 4; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          numeric = false;
          break;
        }
        gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
      }
      if (numeric) gens.push_back(gen);
    }
    std::sort(gens.begin(), gens.end());
    return gens;
  }

  /// The parsed manifest of generation `gen` (committed or not).
  Result<SnapshotManifest> ReadManifest(std::uint64_t gen) const {
    auto bytes = ReadFile(GenerationDir(gen) + "/" + kManifestFile);
    if (!bytes.ok()) return bytes.status();
    return SnapshotManifest::Parse(bytes.value());
  }

  /// Deletes every generation directory except the committed one and its
  /// lineage — a committed delta generation keeps the full generation it
  /// layers on (base_generation) alive, transitively, as a compaction keeps
  /// the generation its chunk refs name. Everything else is an old
  /// generation or an orphan from an interrupted save. Returns how many
  /// were removed; when CURRENT exists but cannot be read as a generation,
  /// removes nothing and returns that error.
  Result<std::size_t> PruneStaleGenerations() {
    std::vector<std::uint64_t> keep;
    auto current = CurrentGeneration();
    if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
      return current.status();
    }
    if (current.ok()) {
      std::uint64_t gen = current.value();
      // Walk the base chain (bounded: bases strictly decrease). A manifest
      // that cannot be read keeps only what was already collected — prune
      // must never delete a base it cannot prove stale.
      while (gen != 0 &&
             std::find(keep.begin(), keep.end(), gen) == keep.end()) {
        keep.push_back(gen);
        auto manifest = ReadManifest(gen);
        if (!manifest.ok() || manifest.value().base_generation >= gen) break;
        gen = manifest.value().base_generation;
      }
    }
    std::size_t removed = 0;
    for (const std::uint64_t gen : ListGenerations()) {
      if (std::find(keep.begin(), keep.end(), gen) != keep.end()) continue;
      std::error_code ec;
      std::filesystem::remove_all(GenerationDir(gen), ec);
      if (!ec) ++removed;
    }
    return removed;
  }

  // ---- sharded index -------------------------------------------------------

  /// Persists `index` as a new generation and commits it, written exactly
  /// as SaveFlat writes it: flat arenas are the one layout written for a
  /// vector generation. `codec` is unused. Returns the new generation
  /// number. The previous generation is left on disk (prune explicitly); a
  /// crash mid-save leaves it the committed one.
  template <metric::MetricFor<metric::Vector> Metric,
            CodecFor<metric::Vector> Codec>
  Result<std::uint64_t> SaveSharded(
      const serve::ShardedMvpIndex<metric::Vector, Metric>& index,
      const Codec& /*codec*/) {
    return SaveFlat(index);
  }

  /// Persists a checkpoint/compaction result: a sharded index whose global
  /// id g stands for stable id `stable_ids[g]` (ascending; the live ids
  /// that survived erasure), plus the WAL watermark and id high-water mark
  /// that make recovery idempotent. Written as SaveFlat's arenas plus a
  /// kStableIds chunk, under a version-5 manifest, so binaries that would
  /// serve the dense ids of a flat generation as stable ids reject it.
  ///
  /// When `reuse_base_generation` names an earlier flat generation, any
  /// shard whose kFlatShard payload is byte-identical to one of that
  /// generation's physical shard chunks is written as a 28-byte
  /// kShardTreeRef instead of a full rewrite — compaction I/O then scales
  /// with churn, not index size. A base of the MVPT stream layout offers
  /// nothing to reuse. `reused_chunks` (optional) reports how many shards
  /// were referenced rather than rewritten.
  template <metric::MetricFor<metric::Vector> Metric>
  Result<std::uint64_t> SaveCompacted(
      const serve::ShardedMvpIndex<metric::Vector, Metric>& index,
      const std::vector<std::uint64_t>& stable_ids,
      std::uint64_t last_applied_seq, std::uint64_t next_stable_id,
      std::uint64_t reuse_base_generation = 0,
      std::uint64_t* reused_chunks = nullptr) {
    if (stable_ids.size() != index.size()) {
      return Status::InvalidArgument(
          "stable-id map size mismatches the index");
    }
    for (std::size_t g = 1; g < stable_ids.size(); ++g) {
      if (stable_ids[g] <= stable_ids[g - 1]) {
        return Status::InvalidArgument("stable ids must be ascending");
      }
    }
    // Resolve the base generation's shard chunks to PHYSICAL bytes so a new
    // ref never points at another ref. Failure anywhere here only disables
    // reuse — a full rewrite is always correct.
    std::optional<OpenedGeneration> base;  // keeps payload spans alive
    std::vector<ResolvedShardChunk> base_shards;
    if (reuse_base_generation != 0) {
      auto opened = OpenGeneration(reuse_base_generation,
                                   {IndexKind::kFlatShardedMvpIndex});
      if (opened.ok()) {
        base.emplace(std::move(opened).ValueOrDie());
        auto resolved = ResolveShardChunks(base->generation, base->container,
                                           ChunkKind::kFlatShard);
        if (resolved.ok()) base_shards = std::move(resolved).ValueOrDie();
      }
    }

    ContainerWriter container;
    SnapshotManifest manifest;
    const std::uint64_t reused =
        AppendFlatChunks(index, base_shards, &container, &manifest);
    {
      BinaryWriter chunk;
      chunk.WriteVector(stable_ids);
      container.AddChunk(ChunkKind::kStableIds, std::move(chunk).TakeBuffer());
    }
    manifest.last_applied_seq = last_applied_seq;
    manifest.next_stable_id = next_stable_id;
    // Any ref pins its target generation through the prune-surviving
    // lineage chain.
    if (reused != 0) manifest.base_generation = reuse_base_generation;
    if (reused_chunks != nullptr) *reused_chunks = reused;
    return CommitGeneration(std::move(container).Finalize(), manifest);
  }

  /// Persists a delta generation: the mutation forest (memtable), its
  /// forest-id -> stable-id map, and the stable ids erased from the base —
  /// WITHOUT rewriting the base generation's container. Re-snapshot I/O is
  /// therefore proportional to the churn since the base was written, not
  /// to the index size; the base's chunks are reused in place on load.
  template <typename Object, metric::MetricFor<Object> Metric,
            CodecFor<Object> Codec>
  Result<std::uint64_t> SaveDelta(
      const dynamic::MvpForest<Object, Metric>& forest,
      const std::vector<std::uint64_t>& forest_stable_ids,
      const std::vector<std::uint64_t>& base_tombstones,
      std::uint64_t base_generation, std::uint64_t last_applied_seq,
      std::uint64_t next_stable_id, const Codec& codec) {
    ContainerWriter container;
    {
      BinaryWriter chunk;
      MVP_RETURN_NOT_OK(forest.Serialize(&chunk, codec));
      container.AddChunk(ChunkKind::kForest, std::move(chunk).TakeBuffer());
    }
    {
      BinaryWriter chunk;
      chunk.WriteVector(forest_stable_ids);
      container.AddChunk(ChunkKind::kStableIds, std::move(chunk).TakeBuffer());
    }
    {
      BinaryWriter chunk;
      chunk.WriteVector(base_tombstones);
      container.AddChunk(ChunkKind::kTombstones,
                         std::move(chunk).TakeBuffer());
    }
    SnapshotManifest manifest;
    manifest.index_kind = IndexKind::kDynamicDelta;
    manifest.object_count = forest.size();
    RecordTreeParams(forest.options().tree, &manifest);
    manifest.base_generation = base_generation;
    manifest.last_applied_seq = last_applied_seq;
    manifest.next_stable_id = next_stable_id;
    return CommitGeneration(std::move(container).Finalize(), manifest);
  }

  /// Loads a delta generation's pieces (see SaveDelta). `at_generation`
  /// defaults to the committed generation.
  template <typename Object, metric::MetricFor<Object> Metric,
            CodecFor<Object> Codec>
  Result<LoadedDelta<Object, Metric>> LoadDelta(
      Metric metric, const Codec& codec,
      typename dynamic::MvpForest<Object, Metric>::Options options = {},
      std::optional<std::uint64_t> at_generation = std::nullopt) const {
    auto opened = OpenGeneration(at_generation, {IndexKind::kDynamicDelta});
    if (!opened.ok()) return opened.status();
    OpenedGeneration gen = std::move(opened).ValueOrDie();
    const SnapshotManifest& manifest = gen.manifest;
    MVP_RETURN_NOT_OK(ValidateManifestParams(manifest));

    const auto forest_chunks = gen.container.ChunksOfKind(ChunkKind::kForest);
    const auto id_chunks = gen.container.ChunksOfKind(ChunkKind::kStableIds);
    const auto tomb_chunks =
        gen.container.ChunksOfKind(ChunkKind::kTombstones);
    if (forest_chunks.size() != 1 || id_chunks.size() != 1 ||
        tomb_chunks.size() != 1 ||
        gen.container.num_chunks() != manifest.num_chunks) {
      return Status::Corruption("snapshot chunk census mismatches manifest");
    }
    for (const std::size_t c :
         {forest_chunks[0], id_chunks[0], tomb_chunks[0]}) {
      MVP_RETURN_NOT_OK(gen.container.VerifyChunk(c));
    }
    MVP_RETURN_NOT_OK(VerifyFingerprint(gen));

    LoadedDelta<Object, Metric> loaded{
        dynamic::MvpForest<Object, Metric>(metric, options), {}, {},
        manifest, gen.generation};
    {
      const auto [payload, length] =
          gen.container.chunk_payload(id_chunks[0]);
      BinaryReader reader(payload, length);
      MVP_RETURN_NOT_OK(reader.ReadVector(&loaded.forest_stable_ids));
      if (!reader.AtEnd()) {
        return Status::Corruption("trailing bytes after stable-id chunk");
      }
    }
    {
      const auto [payload, length] =
          gen.container.chunk_payload(tomb_chunks[0]);
      BinaryReader reader(payload, length);
      MVP_RETURN_NOT_OK(reader.ReadVector(&loaded.base_tombstones));
      if (!reader.AtEnd()) {
        return Status::Corruption("trailing bytes after tombstone chunk");
      }
    }
    ApplyTreeParams(manifest, &options.tree);
    {
      const auto [payload, length] =
          gen.container.chunk_payload(forest_chunks[0]);
      BinaryReader reader(payload, length);
      auto forest = dynamic::MvpForest<Object, Metric>::Deserialize(
          &reader, std::move(metric), codec, std::move(options));
      if (!forest.ok()) return forest.status();
      if (!reader.AtEnd()) {
        return Status::Corruption("trailing bytes after forest stream");
      }
      if (forest.value().size() != manifest.object_count) {
        return Status::Corruption("snapshot object count mismatches manifest");
      }
      loaded.forest = std::move(forest).ValueOrDie();
    }
    return loaded;
  }

  /// Loads a full generation's sharded index (`at_generation` defaults to
  /// the committed one), whichever layout the manifest records. A heap
  /// generation (kShardedMvpIndex, written only by earlier releases) is
  /// deserialized: every chunk's CRC32C is
  /// verified before its bytes are trusted, the manifest's build parameters
  /// are validated against the trees, and with a pool shards are decoded in
  /// parallel. A flat generation (kFlatShardedMvpIndex) opens exactly as
  /// OpenFlat does, into trees that borrow the mapping; instantiations
  /// over objects other than vectors get InvalidArgument for it. Either way
  /// the index is the same type and answers with the same results and
  /// SearchStats; the manifest's index_kind says which layout it came
  /// from. Any other kind is InvalidArgument.
  template <typename Object, metric::MetricFor<Object> Metric,
            CodecFor<Object> Codec>
  Result<LoadedSharded<Object, Metric>> LoadSharded(
      Metric metric, const Codec& codec, serve::ThreadPool* pool = nullptr,
      std::optional<std::uint64_t> at_generation = std::nullopt) const {
    using Index = serve::ShardedMvpIndex<Object, Metric>;
    using Tree = typename Index::Tree;
    using Part = std::pair<Tree, std::vector<std::size_t>>;

    auto opened = OpenGeneration(
        at_generation,
        {IndexKind::kShardedMvpIndex, IndexKind::kFlatShardedMvpIndex});
    if (!opened.ok()) return opened.status();
    OpenedGeneration gen = std::move(opened).ValueOrDie();
    if (gen.manifest.index_kind == IndexKind::kFlatShardedMvpIndex) {
      // A flat arena stores vector rows; no other object type can open one.
      constexpr bool kFlatCapable = std::is_same_v<Object, metric::Vector>;
      if constexpr (kFlatCapable) {
        return OpenFlatGeneration(std::move(gen), std::move(metric), pool);
      } else {
        return Status::InvalidArgument(
            "flat generations serve only dense vector objects");
      }
    }
    const SnapshotManifest& manifest = gen.manifest;
    MVP_RETURN_NOT_OK(ValidateManifestParams(manifest));

    const auto shard_chunks = gen.container.ChunksOfKind(ChunkKind::kShardTree);
    const auto ref_chunks =
        gen.container.ChunksOfKind(ChunkKind::kShardTreeRef);
    const auto id_chunks = gen.container.ChunksOfKind(ChunkKind::kStableIds);
    if (manifest.num_shards < 1 ||
        shard_chunks.size() + ref_chunks.size() != manifest.num_shards ||
        id_chunks.size() > 1 ||
        gen.container.num_chunks() != manifest.num_chunks) {
      return Status::Corruption("snapshot chunk census mismatches manifest");
    }
    std::vector<std::uint64_t> stable_ids;
    MVP_RETURN_NOT_OK(
        ReadStableIds(gen.container, id_chunks, manifest, &stable_ids));

    // Resolve by-reference shard chunks (compaction reuse) to the physical
    // spans they name; their mappings stay alive through the decode.
    auto resolved = ResolveShardChunks(gen.generation, gen.container,
                                       ChunkKind::kShardTree);
    if (!resolved.ok()) return resolved.status();
    if (resolved.value().size() != manifest.num_shards) {
      return Status::Corruption("snapshot chunk census mismatches manifest");
    }

    const std::size_t k = resolved.value().size();
    std::vector<std::optional<Part>> parts(k);
    MVP_RETURN_NOT_OK(OpenShards(
        k, pool,
        [&](std::size_t c) {
          const ResolvedShardChunk& source = resolved.value()[c];
          return DeserializeShardPayload<Object, Metric>(
              source.payload, static_cast<std::size_t>(source.length),
              source.crc32c, source.chunk_index, metric, codec, manifest, k,
              &parts);
        },
        parts));
    MVP_RETURN_NOT_OK(VerifyFingerprint(gen, pool));
    return RestoreLoaded<Object, Metric>(std::move(parts), manifest,
                                         gen.generation,
                                         std::move(stable_ids));
  }

  // ---- flat sharded index --------------------------------------------------

  /// Persists `index` as flat arenas — one ChunkKind::kFlatShard chunk per
  /// shard, each holding a position-independent encoding the read path
  /// serves DIRECTLY out of the mmap'd container (OpenFlat), followed by a
  /// kFlatShardIds chunk with the shard's id map. Vector datasets only (an
  /// opened tree borrows the stored vectors in place). An index opened
  /// from a flat generation writes its arenas' bytes again.
  template <metric::MetricFor<metric::Vector> Metric>
  Result<std::uint64_t> SaveFlat(
      const serve::ShardedMvpIndex<metric::Vector, Metric>& index) {
    ContainerWriter container;
    SnapshotManifest manifest;
    AppendFlatChunks(index, /*reusable=*/{}, &container, &manifest);
    return CommitGeneration(std::move(container).Finalize(), manifest);
  }

  /// Opens a flat generation (`at_generation` defaults to the committed
  /// one) for zero-deserialization serving: map the container, check its
  /// fingerprint once, validate each arena's offsets, and serve searches
  /// straight off the mapping. No object decode, no tree reconstruction;
  /// only the id maps (8 bytes per object) are copied out — time-to-first-
  /// query is the checksum pass, not a rebuild. Every shard tree keeps the
  /// mapping alive, so the index outlives the store, the LoadedSharded and
  /// the generation's files. LoadSharded takes this same path for a flat
  /// generation; OpenFlat differs only in refusing a heap one.
  template <metric::MetricFor<metric::Vector> Metric>
  Result<LoadedSharded<metric::Vector, Metric>> OpenFlat(
      Metric metric, serve::ThreadPool* pool = nullptr,
      std::optional<std::uint64_t> at_generation = std::nullopt) const {
    auto opened =
        OpenGeneration(at_generation, {IndexKind::kFlatShardedMvpIndex});
    if (!opened.ok()) return opened.status();
    return OpenFlatGeneration(std::move(opened).ValueOrDie(),
                              std::move(metric), pool);
  }

 private:
  /// A parsed, integrity-checked (header + manifest, not yet per-chunk)
  /// view of the committed generation. The mmap member owns the bytes the
  /// container reader points into.
  struct OpenedGeneration {
    std::uint64_t generation = 0;
    SnapshotManifest manifest;
    MmapFile mapping;
    ContainerReader container;
  };

  /// One shard chunk resolved to its physical location: the generation and
  /// chunk index actually holding the bytes (never a ref), plus the payload
  /// span and its table CRC. `foreign` owns the mapping of a chunk that
  /// lies in another generation's container (a ref's target), whose bytes
  /// no fingerprint of the resolving generation covers; it is null for a
  /// chunk of the resolving generation's own container.
  struct ResolvedShardChunk {
    std::uint64_t generation = 0;
    std::uint64_t chunk_index = 0;
    const std::uint8_t* payload = nullptr;
    std::uint64_t length = 0;
    std::uint32_t crc32c = 0;
    std::shared_ptr<const MmapFile> foreign;
  };

  /// Appends `index` as flat arenas to `container` — per shard, one
  /// kFlatShard chunk (u64 shard index, then the arena) and one
  /// kFlatShardIds chunk (u64 shard index, u64v global ids) — and records
  /// the index's kind, size and build parameters in `manifest`. A shard
  /// whose kFlatShard payload is byte-identical to a chunk in `reusable`
  /// is written as a kShardTreeRef naming that chunk instead. Returns how
  /// many shards were.
  template <metric::MetricFor<metric::Vector> Metric>
  static std::uint64_t AppendFlatChunks(
      const serve::ShardedMvpIndex<metric::Vector, Metric>& index,
      const std::vector<ResolvedShardChunk>& reusable,
      ContainerWriter* container, SnapshotManifest* manifest) {
    std::uint64_t reused = 0;
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      const auto& tree = index.shard(s);
      const std::vector<std::uint8_t> arena = flat::BuildFlatArena(
          tree.options(), tree.rows(), tree.dim(), tree.arrays());
      // Payload: u64 shard index, then the arena. The 8-byte chunk
      // alignment keeps the arena (at payload + 8) on an 8-byte file
      // offset, which mmap carries into memory.
      BinaryWriter payload;
      payload.Write<std::uint64_t>(s);
      std::vector<std::uint8_t> bytes = std::move(payload).TakeBuffer();
      // resize+memcpy rather than a range insert — see the note on
      // BinaryWriter::Write (GCC 12 -Wnonnull false positive).
      const std::size_t base = bytes.size();
      bytes.resize(base + arena.size());
      std::memcpy(bytes.data() + base, arena.data(), arena.size());
      const auto match = std::find_if(
          reusable.begin(), reusable.end(), [&](const ResolvedShardChunk& c) {
            return c.length == bytes.size() &&
                   std::memcmp(c.payload, bytes.data(), bytes.size()) == 0;
          });
      if (match != reusable.end()) {
        BinaryWriter ref;
        ref.Write<std::uint64_t>(match->generation);
        ref.Write<std::uint64_t>(match->chunk_index);
        ref.Write<std::uint64_t>(match->length);
        ref.Write<std::uint32_t>(match->crc32c);
        container->AddChunk(ChunkKind::kShardTreeRef,
                            std::move(ref).TakeBuffer());
        ++reused;
      } else {
        container->AddChunk(ChunkKind::kFlatShard, std::move(bytes),
                            kFlatChunkAlignment);
      }
      BinaryWriter ids;
      ids.Write<std::uint64_t>(s);
      ids.WriteVector(index.shard_global_ids(s));
      container->AddChunk(ChunkKind::kFlatShardIds,
                          std::move(ids).TakeBuffer());
    }
    manifest->index_kind = IndexKind::kFlatShardedMvpIndex;
    manifest->object_count = index.size();
    manifest->num_shards = index.options().num_shards;
    manifest->partition = index.partition();
    RecordTreeParams(index.options().tree, manifest);
    return reused;
  }

  /// Resolves the shard chunks of generation `gen`, whose parsed container
  /// is `container`: physical chunks of kind `physical` (kShardTree for the
  /// MVPT stream layout, kFlatShard for arenas) in place, and kShardTreeRef
  /// chunks followed ONE hop to the chunk they name. A ref must name a
  /// physical chunk of the same kind in an older generation, with the
  /// length and CRC32C that chunk's table records — never another ref, and
  /// never the other layout's chunk; anything else is Corruption. The
  /// referenced payloads themselves are not checksummed here.
  Result<std::vector<ResolvedShardChunk>> ResolveShardChunks(
      std::uint64_t gen, const ContainerReader& container,
      ChunkKind physical) const {
    struct Target {
      std::uint64_t generation;
      std::shared_ptr<const MmapFile> mapping;
      ContainerReader reader;
    };
    std::vector<Target> targets;
    std::vector<ResolvedShardChunk> resolved;
    for (std::size_t i = 0; i < container.num_chunks(); ++i) {
      const ChunkEntry& entry = container.chunk(i);
      if (entry.kind == static_cast<std::uint32_t>(physical)) {
        const auto [payload, length] = container.chunk_payload(i);
        resolved.push_back({gen, i, payload, length, entry.crc32c, nullptr});
        continue;
      }
      if (entry.kind != static_cast<std::uint32_t>(ChunkKind::kShardTreeRef)) {
        continue;
      }
      MVP_RETURN_NOT_OK(container.VerifyChunk(i));
      const auto [ref_payload, ref_length] = container.chunk_payload(i);
      BinaryReader reader(ref_payload, ref_length);
      std::uint64_t target_gen = 0, target_index = 0, length = 0;
      std::uint32_t crc = 0;
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&target_gen));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&target_index));
      MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&length));
      MVP_RETURN_NOT_OK(reader.Read<std::uint32_t>(&crc));
      if (!reader.AtEnd()) {
        return Status::Corruption("trailing bytes after shard ref chunk");
      }
      if (target_gen == 0 || target_gen >= gen) {
        return Status::Corruption("shard ref does not name an older "
                                  "generation");
      }
      auto target = std::find_if(
          targets.begin(), targets.end(),
          [&](const Target& t) { return t.generation == target_gen; });
      if (target == targets.end()) {
        auto mapping =
            MmapFile::Open(GenerationDir(target_gen) + "/" + kContainerFile);
        if (!mapping.ok()) return mapping.status();
        auto shared =
            std::make_shared<const MmapFile>(std::move(mapping).ValueOrDie());
        auto parsed = ContainerReader::Parse(shared->data(), shared->size());
        if (!parsed.ok()) return parsed.status();
        targets.push_back(
            {target_gen, std::move(shared), std::move(parsed).ValueOrDie()});
        target = targets.end() - 1;
      }
      const ContainerReader& target_container = target->reader;
      if (target_index >= target_container.num_chunks()) {
        return Status::Corruption("shard ref chunk index out of range");
      }
      const ChunkEntry& target_entry =
          target_container.chunk(static_cast<std::size_t>(target_index));
      if (target_entry.kind != static_cast<std::uint32_t>(physical)) {
        return Status::Corruption(
            "shard ref does not name a physical shard chunk of its layout");
      }
      if (target_entry.length != length || target_entry.crc32c != crc) {
        return Status::Corruption(
            "shard ref disagrees with its target chunk table");
      }
      const auto [payload, payload_length] = target_container.chunk_payload(
          static_cast<std::size_t>(target_index));
      resolved.push_back({target_gen, target_index, payload, payload_length,
                          target_entry.crc32c, target->mapping});
    }
    return resolved;
  }

  /// Reads the optional kStableIds chunk (`chunks` holds its index, or
  /// nothing) of either layout into `*stable_ids`: its CRC32C, framing, a
  /// size equal to the manifest's object count, and strictly ascending
  /// ids. No chunk leaves `*stable_ids` empty, the identity mapping.
  static Status ReadStableIds(const ContainerReader& container,
                              const std::vector<std::size_t>& chunks,
                              const SnapshotManifest& manifest,
                              std::vector<std::uint64_t>* stable_ids) {
    if (chunks.empty()) return Status::OK();
    MVP_RETURN_NOT_OK(container.VerifyChunk(chunks[0]));
    const auto [payload, length] = container.chunk_payload(chunks[0]);
    BinaryReader reader(payload, length);
    MVP_RETURN_NOT_OK(reader.ReadVector(stable_ids));
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after stable-id chunk");
    }
    if (stable_ids->size() != manifest.object_count) {
      return Status::Corruption(
          "stable-id map size mismatches snapshot object count");
    }
    for (std::size_t g = 1; g < stable_ids->size(); ++g) {
      if ((*stable_ids)[g] <= (*stable_ids)[g - 1]) {
        return Status::Corruption("snapshot stable ids are not ascending");
      }
    }
    return Status::OK();
  }

  /// Fail-fast gate run right after the manifest parses, BEFORE any chunk
  /// bytes are decoded: build parameters that are not even self-consistent
  /// mean the snapshot cannot possibly restore the index it claims, so the
  /// load is rejected as InvalidArgument immediately instead of after
  /// paying (and possibly mis-attributing) a full deserialization.
  static Status ValidateManifestParams(const SnapshotManifest& manifest) {
    if (manifest.order < 2 || manifest.leaf_capacity < 1 ||
        manifest.num_path_distances < 0) {
      return Status::InvalidArgument(
          "snapshot manifest records invalid build parameters");
    }
    return Status::OK();
  }

  /// Fail-fast options check for one shard chunk: peeks the fixed prefix
  /// of the mvp-tree stream (magic, version, m/k/p, bounds flag — the
  /// first 21 bytes) and compares it against the manifest BEFORE the full
  /// tree decode. A readable stream whose recorded parameters disagree
  /// with the manifest is a snapshot paired with the wrong options —
  /// InvalidArgument, caught in microseconds instead of after
  /// deserializing every object. An unreadable/garbled prefix is left for
  /// Tree::Deserialize to diagnose (Corruption/NotSupported, as before).
  static Status ValidateTreeStreamPrefix(const std::uint8_t* stream,
                                         std::size_t length,
                                         const SnapshotManifest& manifest) {
    // Any instantiation carries the same stream-format constants.
    using SourceTree = core::MvpTree<std::vector<double>, metric::L2>;
    BinaryReader peek(stream, length);
    std::uint32_t magic = 0, version = 0;
    std::int32_t order = 0, leaf_capacity = 0, num_paths = 0;
    std::uint8_t bounds = 0;
    if (!peek.Read<std::uint32_t>(&magic).ok() ||
        !peek.Read<std::uint32_t>(&version).ok() ||
        !peek.Read<std::int32_t>(&order).ok() ||
        !peek.Read<std::int32_t>(&leaf_capacity).ok() ||
        !peek.Read<std::int32_t>(&num_paths).ok() ||
        !peek.Read<std::uint8_t>(&bounds).ok() ||
        magic != SourceTree::kMagic || version != SourceTree::kFormatVersion) {
      return Status::OK();  // not a parseable prefix; defer to Deserialize
    }
    if (order != manifest.order || leaf_capacity != manifest.leaf_capacity ||
        num_paths != manifest.num_path_distances ||
        (bounds != 0) != (manifest.store_exact_bounds != 0)) {
      return Status::InvalidArgument(
          "shard tree build parameters mismatch manifest (snapshot was "
          "written with different options)");
    }
    return Status::OK();
  }

  /// CRC32C of `data[0..size)`, block-parallel when a pool is given:
  /// disjoint 4 MiB blocks are checksummed concurrently and stitched with
  /// Crc32cCombine into the exact serial value. On the flat open path the
  /// whole-file fingerprint is the dominant cost (there is no per-node
  /// decode left to hide it behind), so it is worth spreading.
  static std::uint32_t ParallelCrc32c(const std::uint8_t* data,
                                      std::size_t size,
                                      serve::ThreadPool* pool) {
    // 1 MiB blocks: small enough that a ~10 MB container splits across
    // every pool thread, large enough that the per-block Combine stitch
    // (microseconds) stays invisible. On a single-core host the pool adds
    // only context-switch overhead, so fall through to the serial (still
    // instruction-level-parallel) path there.
    constexpr std::size_t kBlock = std::size_t{1} << 20;
    if (pool == nullptr || size <= kBlock ||
        std::thread::hardware_concurrency() < 2) {
      return Crc32c(data, size);
    }
    const std::size_t blocks = (size + kBlock - 1) / kBlock;
    std::vector<std::uint32_t> crcs(blocks);
    serve::ParallelFor(*pool, blocks, [&](std::size_t b) {
      const std::size_t begin = b * kBlock;
      crcs[b] = Crc32c(data + begin, std::min(kBlock, size - begin));
    });
    std::uint32_t crc = crcs[0];
    for (std::size_t b = 1; b < blocks; ++b) {
      const std::size_t begin = b * kBlock;
      crc = Crc32cCombine(crc, crcs[b], std::min(kBlock, size - begin));
    }
    return crc;
  }

  /// Binds the manifest to the container's exact bytes. Checked after the
  /// per-chunk CRCs so that localized damage is reported with its chunk
  /// index; what this adds is detection of a manifest paired with the
  /// wrong (individually self-consistent) container.
  static Status VerifyFingerprint(const OpenedGeneration& gen,
                                  serve::ThreadPool* pool = nullptr) {
    if (FingerprintFromCrc(
            ParallelCrc32c(gen.mapping.data(), gen.mapping.size(), pool),
            gen.mapping.size()) != gen.manifest.dataset_fingerprint) {
      return Status::Corruption(
          "snapshot container does not match its manifest fingerprint");
    }
    return Status::OK();
  }

  static std::string GenerationName(std::uint64_t gen) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "gen-%06llu",
                  static_cast<unsigned long long>(gen));
    return buf;
  }

  /// Writes container + manifest into the next generation directory and
  /// commits it by atomically swapping CURRENT. The commit point is the
  /// CURRENT rename: everything before it is invisible to readers.
  Result<std::uint64_t> CommitGeneration(std::vector<std::uint8_t> container,
                                         SnapshotManifest manifest) {
    manifest.num_chunks = 0;
    {
      // Chunk count lives in the container header we just finalized.
      auto parsed = ContainerReader::Parse(container.data(), container.size());
      MVP_DCHECK(parsed.ok());
      if (parsed.ok()) manifest.num_chunks = parsed.value().num_chunks();
    }
    manifest.payload_bytes = container.size();
    manifest.dataset_fingerprint =
        ContainerFingerprint(container.data(), container.size());
    // Stamp the store's persisted leader epoch. Epoch-0 stores (no EPOCH
    // file) keep writing their previous manifest version byte for byte, so
    // golden snapshots and pre-epoch binaries are untouched.
    if (manifest.leader_epoch == 0) manifest.leader_epoch = ReadEpoch();

    // Only an empty store starts at generation 1: a damaged CURRENT must
    // not make the save recommit over (and first delete) a live generation.
    const auto current = CurrentGeneration();
    if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
      return current.status();
    }
    const std::uint64_t gen = current.ok() ? current.value() + 1 : 1;
    const std::string gen_dir = GenerationDir(gen);
    std::error_code ec;
    std::filesystem::remove_all(gen_dir, ec);  // orphan from an old crash
    std::filesystem::create_directories(gen_dir, ec);
    if (ec) {
      return Status::IOError("cannot create generation dir: " + gen_dir);
    }
    MVP_RETURN_NOT_OK(
        WriteFileAtomic(gen_dir + "/" + kContainerFile, container));
    MVP_RETURN_NOT_OK(
        WriteFileAtomic(gen_dir + "/" + kManifestFile, manifest.Serialize()));
    const std::string name = GenerationName(gen) + std::string("\n");
    MVP_RETURN_NOT_OK(
        WriteFileAtomic(dir_ + "/" + kCurrentFile,
                        std::vector<std::uint8_t>(name.begin(), name.end())));
    return gen;
  }

  /// Opens a generation (header + manifest validation; `at_generation`
  /// empty means the committed one) for a load path that accepts the
  /// index kinds `expected`. Another kind is a healthy generation the
  /// caller cannot serve, so InvalidArgument names both. A flat
  /// generation's mapping is prefaulted: its fingerprint pass streams every
  /// byte at once, so batch page-table population beats demand faulting.
  Result<OpenedGeneration> OpenGeneration(
      std::optional<std::uint64_t> at_generation,
      std::initializer_list<IndexKind> expected) const {
    OpenedGeneration gen;
    if (at_generation.has_value()) {
      gen.generation = *at_generation;
    } else {
      auto current = CurrentGeneration();
      if (!current.ok()) return current.status();
      gen.generation = current.value();
    }
    const std::string gen_dir = GenerationDir(gen.generation);

    auto manifest_bytes = ReadFile(gen_dir + "/" + kManifestFile);
    if (!manifest_bytes.ok()) return manifest_bytes.status();
    auto manifest = SnapshotManifest::Parse(manifest_bytes.value());
    if (!manifest.ok()) return manifest.status();
    gen.manifest = std::move(manifest).ValueOrDie();
    if (std::find(expected.begin(), expected.end(),
                  gen.manifest.index_kind) == expected.end()) {
      std::string want;
      for (const IndexKind kind : expected) {
        want += (want.empty() ? "" : " or ") + IndexKindName(kind);
      }
      return Status::InvalidArgument(
          GenerationName(gen.generation) + " holds a " +
          IndexKindName(gen.manifest.index_kind) + " generation; expected " +
          want);
    }

    const bool prefault =
        gen.manifest.index_kind == IndexKind::kFlatShardedMvpIndex;
    auto mapping = MmapFile::Open(gen_dir + "/" + kContainerFile, prefault);
    if (!mapping.ok()) return mapping.status();
    gen.mapping = std::move(mapping).ValueOrDie();
    if (gen.mapping.size() != gen.manifest.payload_bytes) {
      return Status::Corruption("snapshot container size mismatches manifest");
    }
    auto container =
        ContainerReader::Parse(gen.mapping.data(), gen.mapping.size());
    if (!container.ok()) return container.status();
    gen.container = std::move(container).ValueOrDie();
    return gen;
  }

  /// Verifies and deserializes one shard chunk's payload (possibly living
  /// in another generation's container, via kShardTreeRef) into
  /// parts[shard_index]. Static helper so parallel loaders share no
  /// mutable state but the distinct slots they write.
  template <typename Object, metric::MetricFor<Object> Metric,
            CodecFor<Object> Codec>
  static Status DeserializeShardPayload(
      const std::uint8_t* payload, std::size_t length, std::uint32_t crc32c,
      std::uint64_t chunk_index, const Metric& metric, const Codec& codec,
      const SnapshotManifest& manifest, std::size_t num_shards,
      std::vector<std::optional<
          std::pair<typename serve::ShardedMvpIndex<Object, Metric>::Tree,
                    std::vector<std::size_t>>>>* parts) {
    using Tree = typename serve::ShardedMvpIndex<Object, Metric>::Tree;
    if (Crc32c(payload, length) != crc32c) {
      // Name the physical chunk so an operator can find the corrupt span.
      return Status::Corruption(
          "snapshot chunk " + std::to_string(chunk_index) +
          " CRC32C mismatch (truncated or corrupt)");
    }
    BinaryReader reader(payload, length);
    std::uint64_t shard = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&shard));
    if (shard >= num_shards) {
      return Status::Corruption("shard index out of range in shard chunk");
    }
    std::vector<std::uint64_t> raw_ids;
    MVP_RETURN_NOT_OK(reader.ReadVector(&raw_ids));
    MVP_RETURN_NOT_OK(ValidateTreeStreamPrefix(
        payload + reader.position(), length - reader.position(), manifest));
    auto tree = Tree::Deserialize(
        &reader, serve::CancelChecked<Metric>(metric), codec);
    if (!tree.ok()) return tree.status();
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after shard tree stream");
    }
    const auto& options = tree.value().options();
    if (options.order != manifest.order ||
        options.leaf_capacity != manifest.leaf_capacity ||
        options.num_path_distances != manifest.num_path_distances ||
        options.store_exact_bounds != (manifest.store_exact_bounds != 0)) {
      return Status::Corruption(
          "shard tree build parameters mismatch manifest");
    }
    auto& slot = (*parts)[static_cast<std::size_t>(shard)];
    if (slot.has_value()) {
      return Status::Corruption("duplicate shard index in snapshot");
    }
    std::vector<std::size_t> ids(raw_ids.begin(), raw_ids.end());
    slot.emplace(std::move(tree).ValueOrDie(), std::move(ids));
    return Status::OK();
  }

  /// The one mapping between a manifest's recorded build parameters and
  /// tree options (a tree's or a forest's Options::tree): every save path
  /// records them, OpenFlat and LoadDelta apply them.
  template <typename TreeOptions>
  static void RecordTreeParams(const TreeOptions& tree,
                               SnapshotManifest* manifest) {
    manifest->order = tree.order;
    manifest->leaf_capacity = tree.leaf_capacity;
    manifest->num_path_distances = tree.num_path_distances;
    manifest->seed = tree.seed;
    manifest->store_exact_bounds = tree.store_exact_bounds ? 1 : 0;
  }
  template <typename TreeOptions>
  static void ApplyTreeParams(const SnapshotManifest& manifest,
                              TreeOptions* tree) {
    tree->order = manifest.order;
    tree->leaf_capacity = manifest.leaf_capacity;
    tree->num_path_distances = manifest.num_path_distances;
    tree->seed = manifest.seed;
    tree->store_exact_bounds = manifest.store_exact_bounds != 0;
  }

  /// The flat open shared by OpenFlat and LoadSharded: `gen` holds a
  /// kFlatShardedMvpIndex generation. One fingerprint pass over the
  /// mapping, then each arena's offsets are validated and its shard tree
  /// borrows it in place, keeping the mapping alive. A kShardTreeRef shard
  /// borrows its arena from an older generation's container, which the
  /// fingerprint does not cover, so that arena's CRC32C is checked and its
  /// tree keeps that container's mapping alive instead.
  template <metric::MetricFor<metric::Vector> Metric>
  Result<LoadedSharded<metric::Vector, Metric>> OpenFlatGeneration(
      OpenedGeneration gen, Metric metric, serve::ThreadPool* pool) const {
    using Index = serve::ShardedMvpIndex<metric::Vector, Metric>;
    using Part = std::pair<typename Index::Tree, std::vector<std::size_t>>;
    const SnapshotManifest& manifest = gen.manifest;
    MVP_RETURN_NOT_OK(ValidateManifestParams(manifest));

    const auto chunks = gen.container.ChunksOfKind(ChunkKind::kFlatShard);
    const auto ref_chunks =
        gen.container.ChunksOfKind(ChunkKind::kShardTreeRef);
    const auto id_chunks =
        gen.container.ChunksOfKind(ChunkKind::kFlatShardIds);
    const auto stable_chunks =
        gen.container.ChunksOfKind(ChunkKind::kStableIds);
    const std::size_t k = chunks.size() + ref_chunks.size();
    if (manifest.num_shards < 1 || k != manifest.num_shards ||
        (!id_chunks.empty() && id_chunks.size() != k) ||
        stable_chunks.size() > 1 ||
        gen.container.num_chunks() != manifest.num_chunks) {
      return Status::Corruption("snapshot chunk census mismatches manifest");
    }
    if (id_chunks.empty() && manifest.partition.has_value()) {
      return Status::Corruption("partitioned flat generation lacks id maps");
    }

    // One checksum pass, not two: a matching whole-file fingerprint
    // (CRC32C over every byte, plus the length) proves the container is
    // byte-for-byte what was committed, which subsumes each chunk's CRC —
    // so no chunk of this container is verified on its own below. Running
    // it first also lets the block-parallel CRC fault the fresh mapping's
    // pages in from all pool threads at once; this pass IS the flat open's
    // cost (arena validation is microseconds), so it is worth spreading.
    MVP_RETURN_NOT_OK(VerifyFingerprint(gen, pool));
    std::vector<std::uint64_t> stable_ids;
    MVP_RETURN_NOT_OK(
        ReadStableIds(gen.container, stable_chunks, manifest, &stable_ids));
    auto resolved = ResolveShardChunks(gen.generation, gen.container,
                                       ChunkKind::kFlatShard);
    if (!resolved.ok()) return resolved.status();

    // The trees alias the mapping for their whole lifetime, so move it into
    // shared ownership (its data pointer is stable under move, keeping the
    // ContainerReader's spans valid).
    const auto mapping =
        std::make_shared<const MmapFile>(std::move(gen.mapping));

    std::vector<std::optional<Part>> parts(k);
    MVP_RETURN_NOT_OK(OpenShards(
        k, pool,
        [&](std::size_t c) {
          const ResolvedShardChunk& chunk = resolved.value()[c];
          if (chunk.foreign != nullptr &&
              Crc32c(chunk.payload, static_cast<std::size_t>(chunk.length)) !=
                  chunk.crc32c) {
            return Status::Corruption(
                "snapshot chunk " + std::to_string(chunk.chunk_index) +
                " of " + GenerationName(chunk.generation) +
                " CRC32C mismatch (truncated or corrupt)");
          }
          return OpenFlatChunk<Metric>(
              chunk, chunk.foreign != nullptr ? chunk.foreign : mapping,
              metric, manifest, &parts);
        },
        parts));

    if (id_chunks.empty()) {
      // A round-robin generation stored no id maps: shard s's local id i is
      // global id i*K + s.
      for (std::size_t s = 0; s < k; ++s) {
        auto& ids = parts[s]->second;
        ids.resize(parts[s]->first.size());
        for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i * k + s;
      }
    } else {
      std::vector<bool> seen(k, false);
      for (const std::size_t c : id_chunks) {
        MVP_RETURN_NOT_OK(ReadFlatIdChunk(gen.container, c, &parts, &seen));
      }
    }

    return RestoreLoaded<metric::Vector, Metric>(
        std::move(parts), manifest, gen.generation, std::move(stable_ids));
  }

  /// Runs `open(c)` for each of the `k` shard chunks (in parallel on
  /// `pool`, when there is one and more than one chunk), each filling its
  /// shard's slot of `parts`; returns the first failure, or Corruption when
  /// the chunks left a slot empty.
  template <typename Part, typename OpenFn>
  static Status OpenShards(std::size_t k, serve::ThreadPool* pool,
                           const OpenFn& open,
                           const std::vector<std::optional<Part>>& parts) {
    std::vector<Status> statuses(k);
    auto run = [&](std::size_t c) { statuses[c] = open(c); };
    if (pool == nullptr || k == 1) {
      for (std::size_t c = 0; c < k; ++c) run(c);
    } else {
      serve::ParallelFor(*pool, k, run);
    }
    for (const Status& status : statuses) MVP_RETURN_NOT_OK(status);
    for (const auto& part : parts) {
      if (!part.has_value()) {
        return Status::Corruption("snapshot shard chunks do not cover every "
                                  "shard exactly once");
      }
    }
    return Status::OK();
  }

  /// The loaded index of a full generation: its shard trees and id maps
  /// (`parts`, by shard) restored under the manifest's build parameters
  /// and partition, holding exactly the manifest's object count.
  template <typename Object, typename Metric, typename Part>
  static Result<LoadedSharded<Object, Metric>> RestoreLoaded(
      std::vector<std::optional<Part>> parts, const SnapshotManifest& manifest,
      std::uint64_t generation, std::vector<std::uint64_t> stable_ids) {
    using Index = serve::ShardedMvpIndex<Object, Metric>;
    typename Index::Options options;
    options.num_shards = manifest.num_shards;
    ApplyTreeParams(manifest, &options.tree);
    std::vector<Part> owned;
    owned.reserve(parts.size());
    for (auto& part : parts) owned.push_back(std::move(*part));
    auto restored =
        Index::Restore(options, std::move(owned), manifest.partition);
    if (!restored.ok()) return restored.status();
    if (restored.value().size() != manifest.object_count) {
      return Status::Corruption("snapshot object count mismatches manifest");
    }
    return LoadedSharded<Object, Metric>{std::move(restored).ValueOrDie(),
                                         manifest, generation,
                                         std::move(stable_ids)};
  }

  /// Decodes one kFlatShardIds chunk into the id map of (*parts)[shard].
  /// The caller proved the bytes through the manifest fingerprint; this
  /// checks the framing: shard index in range and not seen before, no
  /// trailing bytes.
  template <typename Part>
  static Status ReadFlatIdChunk(const ContainerReader& container,
                                std::size_t chunk_index,
                                std::vector<std::optional<Part>>* parts,
                                std::vector<bool>* seen) {
    const auto [payload, length] = container.chunk_payload(chunk_index);
    BinaryReader reader(payload, length);
    std::uint64_t shard = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&shard));
    if (shard >= parts->size() || (*seen)[shard]) {
      return Status::Corruption("bad shard index in flat id chunk " +
                                std::to_string(chunk_index));
    }
    (*seen)[shard] = true;
    MVP_RETURN_NOT_OK(reader.ReadVector(&(*parts)[shard]->second));
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after flat id chunk " +
                                std::to_string(chunk_index));
    }
    return Status::OK();
  }

  /// Opens one resolved flat shard chunk into (*parts)[shard_index], its
  /// tree borrowing the arena in `mapping`: shard-index range, arena
  /// validation (flat::OpenTree), and the fail-fast options-vs-manifest
  /// comparison — all without decoding a single object. The caller proved
  /// the chunk's bytes.
  template <metric::MetricFor<metric::Vector> Metric, typename Part>
  static Status OpenFlatChunk(const ResolvedShardChunk& chunk,
                              std::shared_ptr<const MmapFile> mapping,
                              const Metric& metric,
                              const SnapshotManifest& manifest,
                              std::vector<std::optional<Part>>* parts) {
    const auto length = static_cast<std::size_t>(chunk.length);
    BinaryReader reader(chunk.payload, length);
    std::uint64_t shard = 0;
    MVP_RETURN_NOT_OK(reader.Read<std::uint64_t>(&shard));
    if (shard >= parts->size()) {
      return Status::Corruption("shard index out of range in chunk " +
                                std::to_string(chunk.chunk_index));
    }
    auto tree = flat::OpenTree(chunk.payload + sizeof(std::uint64_t),
                               length - sizeof(std::uint64_t),
                               serve::CancelChecked<Metric>(metric),
                               std::move(mapping));
    if (!tree.ok()) return tree.status();
    const auto& options = tree.value().options();
    if (options.order != manifest.order ||
        options.leaf_capacity != manifest.leaf_capacity ||
        options.num_path_distances != manifest.num_path_distances ||
        options.store_exact_bounds != (manifest.store_exact_bounds != 0)) {
      return Status::InvalidArgument(
          "flat shard build parameters mismatch manifest (snapshot was "
          "written with different options)");
    }
    auto& slot = (*parts)[static_cast<std::size_t>(shard)];
    if (slot.has_value()) {
      return Status::Corruption("duplicate shard index in snapshot");
    }
    slot.emplace(std::move(tree).ValueOrDie(), std::vector<std::size_t>{});
    return Status::OK();
  }

  std::string dir_;
};

}  // namespace mvp::snapshot

#endif  // MVPTREE_SNAPSHOT_SNAPSHOT_STORE_H_
