#ifndef MVPTREE_DYNAMIC_DYNAMIC_OVERLAY_H_
#define MVPTREE_DYNAMIC_DYNAMIC_OVERLAY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/macros.h"
#include "common/query.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/search_shared.h"
#include "dynamic/mvp_forest.h"
#include "metric/lp.h"
#include "metric/metric.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_store.h"
#include "wal/wal.h"

/// \file
/// The durable mutable layer over a static serving index
/// (docs/online_updates.md).
///
/// A DynamicOverlay serves the union of two structures:
///
///   - the BASE: the snapshot store's committed full generation — a
///     ShardedMvpIndex served straight off its mapped flat arenas (or
///     deserialized, for a generation an earlier release wrote as MVPT
///     streams), completely immutable;
///   - the MEMTABLE: an MvpForest (dynamic/mvp_forest.h, the Bentley-Saxe
///     structure) absorbing every insert since the base was written, plus a
///     tombstone set naming the base objects erased since then.
///
/// Queries fan out to both sides and merge by (distance, id) — the same
/// order a single index produces, so results are bit-identical to an index
/// rebuilt from scratch over the current live set (the overlay-equivalence
/// test holds exactly this). Range hits from the base are filtered through
/// the tombstones; a k-NN search hands the tombstones to the base as a
/// core::Exclusion, which skips them inside the traversal.
///
/// Every object carries a STABLE id: issued once at insert, never reused,
/// reported by all queries. The base maps its dense global ids to stable
/// ids through the generation's kStableIds chunk (identity for generations
/// built directly from a dataset); the memtable's dense forest ids map
/// affinely (stable = offset + forest id). Both maps are strictly
/// ascending, which is what preserves the (distance, id) tie-break order
/// across the translation.
///
/// Durability is write-ahead: a mutation is logged (wal/wal.h) and applied
/// in memory under one lock — so WAL order equals apply order equals seq
/// order — and acknowledged only after the log is fsynced (group commit
/// batches concurrent acks into one fsync). Recovery loads the committed
/// generation and replays the log's suffix above the manifest's
/// last_applied_seq watermark; replay is therefore idempotent across any
/// crash point, which the crash drill verifies by killing the process at
/// every injected fault site.
///
/// Checkpoint() folds the current mutations into a DELTA generation — the
/// serialized memtable + tombstones, layered on the unchanged base via the
/// manifest's base_generation field — so checkpoint I/O is proportional to
/// the churn since the base was written, never to the index size (the
/// base's container bytes are reused in place, not rewritten). Compact()
/// is the major merge: rebuild one full generation from the live set, swap
/// it in as the new base, and start an empty memtable. Both truncate the
/// WAL under the lock, so no acknowledged record is ever dropped before a
/// committed generation holds it.
///
/// Thread safety: one mutex serializes mutations, queries and snapshots.
/// Mutations hold it only for the in-memory apply (the fsync wait runs
/// outside, batched); queries hold it for the search. Checkpoints hold it
/// while serializing + committing, which pauses writers for a duration
/// proportional to the memtable — the price of the WAL-truncate atomicity.

namespace mvp::dynamic {

template <typename Object, metric::MetricFor<Object> Metric,
          CodecFor<Object> Codec>
class DynamicOverlay {
  // Generations are written as flat arenas, which hold vector rows.
  static_assert(std::is_same_v<Object, metric::Vector>,
                "DynamicOverlay serves dense vector collections");

 public:
  using Memtable = MvpForest<Object, Metric>;
  using BaseIndex = serve::ShardedMvpIndex<Object, Metric>;

  struct Options {
    /// Memtable (Bentley-Saxe forest) parameters.
    typename Memtable::Options memtable;
    /// Build parameters for generations this overlay writes (Compact, or a
    /// first checkpoint with no base). When opened over an existing base,
    /// the base's own parameters replace these so compactions preserve the
    /// serving configuration.
    typename BaseIndex::Options rebuild;
  };

  /// Mutation/lifecycle counters (queries are counted by serve::ServeStats
  /// at the executor layer, not here).
  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t compactions = 0;
    std::uint64_t replayed_records = 0;  ///< WAL records applied by Open
    std::uint64_t shipped_records = 0;   ///< records applied by ApplyReplicated
    /// Shard chunks compaction wrote by reference instead of rewriting
    /// (snapshot/format.h kShardTreeRef) — the I/O saved on low-churn
    /// compactions.
    std::uint64_t compaction_reused_chunks = 0;
  };

  /// Opens (or creates) the dynamic store at `dir`: loads the committed
  /// generation (full or delta; heap or flat), replays the WAL suffix
  /// above its watermark, repairs a torn WAL tail, and opens the log for
  /// appending. An empty/missing directory is a fresh store.
  static Result<std::unique_ptr<DynamicOverlay>> Open(
      std::string dir, Metric metric, Codec codec, Options options = {},
      serve::ThreadPool* pool = nullptr) {
    std::unique_ptr<DynamicOverlay> overlay(new DynamicOverlay(
        std::move(dir), std::move(metric), std::move(codec),
        std::move(options)));
    MVP_RETURN_NOT_OK(overlay->Recover(pool));
    return overlay;
  }

  DynamicOverlay(const DynamicOverlay&) = delete;
  DynamicOverlay& operator=(const DynamicOverlay&) = delete;

  /// Durably inserts `object`; returns its stable id. The id is assigned
  /// and the mutation applied under the lock (keeping WAL order = apply
  /// order); the call then waits for the group-commit fsync covering its
  /// record, so a returned id is crash-durable. InvalidArgument, before
  /// anything is logged, for a vector whose dimension is not the
  /// collection's or that has a NaN coordinate (see AdmitsLocked).
  Result<std::size_t> Insert(Object object) MVP_EXCLUDES(mu_) {
    BinaryWriter payload;
    codec_.Write(payload, object);
    std::uint64_t seq = 0;
    std::size_t id = 0;
    {
      MutexLock lock(&mu_);
      if (!AdmitsLocked(object, /*fresh=*/true)) {
        return Status::InvalidArgument(
            "vector has a NaN coordinate or another dimension than the "
            "collection's");
      }
      seq = next_seq_ + 1;
      id = static_cast<std::size_t>(next_stable_id_);
      wal::WalRecord record;
      record.op = wal::WalOp::kInsert;
      record.seq = seq;
      record.id = id;
      record.payload = std::move(payload).TakeBuffer();
      MVP_RETURN_NOT_OK(wal_->Append(record));
      next_seq_ = seq;
      const std::size_t forest_id = InsertLocked(std::move(object));
      MVP_DCHECK(memtable_offset_ + forest_id == next_stable_id_);
      (void)forest_id;  // checked by MVP_DCHECK; unused in release builds
      ++next_stable_id_;
      ++stats_.inserts;
    }
    MVP_RETURN_NOT_OK(wal_->Sync(seq));
    return id;
  }

  /// Durably erases the live object with `stable_id`. NotFound when the id
  /// was never issued or is already erased — checked BEFORE the WAL append,
  /// so the log only ever holds erases that applied (replay can treat a
  /// failing one as corruption rather than guessing).
  Status Erase(std::size_t stable_id) MVP_EXCLUDES(mu_) {
    std::uint64_t seq = 0;
    {
      MutexLock lock(&mu_);
      if (!ContainsLocked(stable_id)) {
        return Status::NotFound("no live object with this id");
      }
      seq = next_seq_ + 1;
      wal::WalRecord record;
      record.op = wal::WalOp::kErase;
      record.seq = seq;
      record.id = stable_id;
      MVP_RETURN_NOT_OK(wal_->Append(record));
      next_seq_ = seq;
      ApplyEraseLocked(stable_id);
      ++stats_.erases;
    }
    return wal_->Sync(seq);
  }

  /// All live objects within `radius`, sorted by (distance, stable id) —
  /// bit-identical to the same query on an index rebuilt from the live set
  /// (with its dense ids mapped through the ascending stable-id order).
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr) const
      MVP_EXCLUDES(mu_) {
    std::vector<Neighbor> result;
    RangeSearchInto(query, radius, &result, stats);
    std::sort(result.begin(), result.end(), NeighborLess);
    return result;
  }

  /// The k nearest live objects, same order contract as RangeSearch. The
  /// base is asked for exactly k and skips its tombstoned objects inside
  /// the traversal (core::Exclusion), so no erased object costs a distance
  /// computation unless it is a vantage point on the search path.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr) const
      MVP_EXCLUDES(mu_) {
    std::vector<Neighbor> merged;
    KnnSearchInto(query, k, &merged, stats);
    std::sort(merged.begin(), merged.end(), NeighborLess);
    if (merged.size() > k) merged.resize(k);
    return merged;
  }

  /// RangeSearch appending unsorted hits (stable ids) into the caller-owned
  /// `*out` — the serve::RunBatch harvest interface, so mutable collections
  /// degrade under deadlines exactly like static ones. On a mid-search
  /// cancellation everything the base found before the cut is
  /// tombstone-filtered, translated and appended (each hit passed the exact
  /// d <= r test, so the harvest is a true subset of the live answer)
  /// before CancelledError is rethrown; the memtable is skipped — its
  /// deadline is already blown. Memtable distance evaluations are not
  /// cancellation points (the forest runs the raw metric); base shards are,
  /// which is where the index-proportional work lives.
  void RangeSearchInto(const Object& query, double radius,
                       std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr) const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    bool cancelled = false;
    if (base_.has_value()) {
      std::vector<Neighbor> base_hits;
      try {
        base_->RangeSearchInto(query, radius, &base_hits, stats);
      } catch (const serve::CancelledError&) {
        cancelled = true;
      }
      AppendBaseHitsLocked(base_hits, out);
    }
    if (!cancelled) {
      AppendMemtableHitsLocked(memtable_.RangeSearch(query, radius, stats),
                               out);
    }
    if (cancelled) throw serve::CancelledError();
  }

  /// KnnSearch's harvest interface: appends the base's best k live
  /// candidates (tombstones are excluded inside the traversal) plus the
  /// memtable's, all unsorted — the caller sorts and trims to k, landing on
  /// exactly the KnnSearch result. The memtable search is capped at the
  /// base answer's k-th distance, so it skips only candidates strictly
  /// worse than k live base objects. On cancellation the candidates
  /// evaluated so far are appended before the rethrow, same contract as
  /// the sharded index.
  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<Neighbor>* out,
                     SearchStats* stats = nullptr) const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    bool cancelled = false;
    double bound = std::numeric_limits<double>::infinity();
    if (base_.has_value()) {
      std::vector<Neighbor> base_hits;
      const std::vector<bool>& erased = base_erased_;
      const auto is_erased = [&erased](std::size_t g) { return erased[g]; };
      const core::Exclusion exclude = tombstone_count_ == 0
                                          ? core::Exclusion{}
                                          : core::Exclusion::Of(is_erased);
      try {
        base_->KnnSearchInto(query, k, &base_hits, stats, nullptr, nullptr,
                             exclude);
      } catch (const serve::CancelledError&) {
        cancelled = true;
      }
      if (k > 0 && base_hits.size() >= k) {
        bound = std::max_element(base_hits.begin(), base_hits.end(),
                                 NeighborLess)
                    ->distance;
      }
      AppendBaseHitsLocked(base_hits, out);
    }
    if (!cancelled) {
      AppendMemtableHitsLocked(memtable_.KnnSearch(query, k, stats, bound),
                               out);
    }
    if (cancelled) throw serve::CancelledError();
  }

  std::size_t size() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return (base_.has_value() ? base_->size() : 0) - tombstone_count_ +
           memtable_.size();
  }
  /// The dimension of the collection's rows (AdmitsLocked's rule); 0 until
  /// it holds a vector.
  std::size_t dim() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return dim_;
  }

  /// Folds the outstanding mutations into a committed generation and
  /// truncates the WAL; returns the new generation (or the current one
  /// when there is nothing new to fold). With a base this writes a DELTA
  /// generation — serialized memtable + tombstones layered on the
  /// base_generation — so the I/O is proportional to churn, not index
  /// size. Without a base (fresh store) it falls through to a full
  /// compaction.
  Result<std::uint64_t> Checkpoint() MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (next_seq_ == checkpoint_seq_ && generation_ != 0) {
      return generation_;  // nothing mutated since the last fold
    }
    MVP_RETURN_NOT_OK(wal_->SyncAll());
    if (!base_.has_value()) return CompactLocked(nullptr);
    const std::uint64_t issued = next_stable_id_ - memtable_offset_;
    std::vector<std::uint64_t> forest_ids(
        static_cast<std::size_t>(issued));
    for (std::size_t f = 0; f < forest_ids.size(); ++f) {
      forest_ids[f] = memtable_offset_ + f;
    }
    std::vector<std::uint64_t> tombs;  // ascending, as the stable map is
    tombs.reserve(tombstone_count_);
    for (std::size_t g = 0; g < base_erased_.size(); ++g) {
      if (base_erased_[g]) tombs.push_back(BaseStableLocked(g));
    }
    auto gen = store_.SaveDelta(memtable_, forest_ids, tombs,
                                base_generation_, next_seq_, next_stable_id_,
                                codec_);
    if (!gen.ok()) return gen.status();
    MVP_RETURN_NOT_OK(wal_->TruncateToEmpty());
    generation_ = gen.value();
    checkpoint_seq_ = next_seq_;
    ++stats_.checkpoints;
    return generation_;
  }

  /// Major merge: rebuilds ONE full generation from the live set (base
  /// minus tombstones, plus memtable), commits it with its stable-id map,
  /// truncates the WAL, and swaps it in as the new base with an empty
  /// memtable. With a pool the shard trees build in parallel.
  Result<std::uint64_t> Compact(serve::ThreadPool* pool = nullptr)
      MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    MVP_RETURN_NOT_OK(wal_->SyncAll());
    return CompactLocked(pool);
  }

  /// Applies a batch of leader WAL records shipped by replication
  /// (docs/network_serving.md). Records carry the leader's seq and stable
  /// ids verbatim; each must be exactly the next sequence number —
  /// Corruption on a gap or overlap, so a stream that skipped records can
  /// never be half-applied silently. Every record is checked, then
  /// appended to the local WAL, then applied (same order discipline as
  /// Insert/Erase, so the local log never holds a record that fails to
  /// apply), and one group-commit fsync covers the whole batch, so a
  /// follower crash replays exactly what it acknowledged.
  Status ApplyReplicated(const std::vector<wal::WalRecord>& records)
      MVP_EXCLUDES(mu_) {
    if (records.empty()) return Status::OK();
    std::uint64_t last = 0;
    {
      MutexLock lock(&mu_);
      for (const wal::WalRecord& record : records) {
        if (record.seq != next_seq_ + 1) {
          return Status::Corruption(
              "replicated wal record out of sequence (expected " +
              std::to_string(next_seq_ + 1) + ", got " +
              std::to_string(record.seq) + ")");
        }
        MVP_RETURN_NOT_OK(ApplyRecordLocked(record, /*log=*/true));
        next_seq_ = record.seq;
        ++stats_.shipped_records;
        last = record.seq;
      }
    }
    return wal_->Sync(last);
  }

  // Introspection (tests, CLI, bench).
  std::uint64_t generation() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return generation_;
  }
  std::uint64_t base_generation() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return base_generation_;
  }
  std::uint64_t next_stable_id() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_stable_id_;
  }
  /// Last WAL sequence applied in memory (0 = none). For a follower this
  /// is its replication cursor: the leader ships records above it.
  std::uint64_t applied_seq() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_seq_;
  }
  /// Highest seq folded into the committed generation — the WAL floor.
  /// Records at or below it live only in generations, so a follower whose
  /// cursor is below the leader's floor must pull generations instead.
  std::uint64_t checkpoint_seq() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return checkpoint_seq_;
  }
  std::size_t memtable_size() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return memtable_.size();
  }
  std::size_t tombstone_count() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return tombstone_count_;
  }
  Stats stats() const MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  wal::WalWriterStats wal_stats() const { return wal_->stats(); }
  const std::string& dir() const { return dir_; }
  std::string wal_path() const { return dir_ + "/" + wal::kWalFileName; }

 private:
  DynamicOverlay(std::string dir, Metric metric, Codec codec,
                 Options options)
      : dir_(std::move(dir)),
        metric_(std::move(metric)),
        codec_(std::move(codec)),
        options_(std::move(options)),
        store_(dir_),
        memtable_(metric_, options_.memtable) {}

  /// Stable id of base global id `g`.
  std::uint64_t BaseStableLocked(std::size_t g) const MVP_REQUIRES(mu_) {
    return base_stable_ids_.empty() ? g : base_stable_ids_[g];
  }

  /// Base global id of base stable id `stable`, or nullopt when no base
  /// object carries it.
  std::optional<std::size_t> BaseGlobalLocked(std::uint64_t stable) const
      MVP_REQUIRES(mu_) {
    if (!base_.has_value()) return std::nullopt;
    if (base_stable_ids_.empty()) {
      if (stable >= base_->size()) return std::nullopt;
      return static_cast<std::size_t>(stable);
    }
    const auto it = std::lower_bound(base_stable_ids_.begin(),
                                     base_stable_ids_.end(), stable);
    if (it == base_stable_ids_.end() || *it != stable) return std::nullopt;
    return static_cast<std::size_t>(it - base_stable_ids_.begin());
  }

  /// Tombstones base global id `g` (idempotent).
  void EraseBaseLocked(std::size_t g) MVP_REQUIRES(mu_) {
    if (base_erased_[g]) return;
    base_erased_[g] = true;
    ++tombstone_count_;
  }

  /// Clears every tombstone, sized for the current base.
  void ResetTombstonesLocked() MVP_REQUIRES(mu_) {
    base_erased_.assign(base_.has_value() ? base_->size() : 0, false);
    tombstone_count_ = 0;
  }

  /// Filters base hits through the tombstones and appends them to `*out`
  /// with their stable ids.
  void AppendBaseHitsLocked(const std::vector<Neighbor>& hits,
                            std::vector<Neighbor>* out) const
      MVP_REQUIRES(mu_) {
    for (const Neighbor& hit : hits) {
      if (base_erased_[hit.id]) continue;
      out->push_back(Neighbor{
          static_cast<std::size_t>(BaseStableLocked(hit.id)), hit.distance});
    }
  }

  /// Appends memtable hits to `*out` with their stable ids.
  void AppendMemtableHitsLocked(const std::vector<Neighbor>& hits,
                                std::vector<Neighbor>* out) const
      MVP_REQUIRES(mu_) {
    for (const Neighbor& hit : hits) {
      out->push_back(Neighbor{
          static_cast<std::size_t>(memtable_offset_) + hit.id, hit.distance});
    }
  }

  /// True when `stable_id` names a live object (base or memtable).
  bool ContainsLocked(std::uint64_t stable_id) const MVP_REQUIRES(mu_) {
    if (stable_id >= memtable_offset_) {
      return memtable_.contains(
          static_cast<std::size_t>(stable_id - memtable_offset_));
    }
    const std::optional<std::size_t> g = BaseGlobalLocked(stable_id);
    return g.has_value() && !base_erased_[*g];
  }

  /// Applies an erase that ContainsLocked already validated.
  void ApplyEraseLocked(std::uint64_t stable_id) MVP_REQUIRES(mu_) {
    if (stable_id >= memtable_offset_) {
      const Status erased = memtable_.Erase(
          static_cast<std::size_t>(stable_id - memtable_offset_));
      MVP_DCHECK(erased.ok());
      (void)erased;  // validated by ContainsLocked; checked by MVP_DCHECK
    } else {
      EraseBaseLocked(*BaseGlobalLocked(stable_id));
    }
  }

  /// Collects every live base object as (stable id, owned object), copying
  /// each stored object (for vectors, a row, owned or mapped) out of its
  /// shard tree.
  void GatherBaseLiveLocked(
      std::vector<std::pair<std::uint64_t, Object>>* live) const
      MVP_REQUIRES(mu_) {
    for (std::size_t s = 0; s < base_->num_shards(); ++s) {
      const auto& globals = base_->shard_global_ids(s);
      for (std::size_t local = 0; local < globals.size(); ++local) {
        const std::size_t g = globals[local];
        if (base_erased_[g]) continue;
        live->emplace_back(BaseStableLocked(g),
                           Object(base_->shard(s).object(local)));
      }
    }
  }

  Result<std::uint64_t> CompactLocked(serve::ThreadPool* pool)
      MVP_REQUIRES(mu_) {
    std::vector<std::pair<std::uint64_t, Object>> live;
    if (base_.has_value()) GatherBaseLiveLocked(&live);
    memtable_.ForEachLive([&](std::size_t forest_id, const auto& object) {
      live.emplace_back(memtable_offset_ + forest_id, Object(object));
    });
    // Dense global ids must rise with stable ids so the (distance, id)
    // tie-break order survives the translation.
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::uint64_t> stable_ids;
    std::vector<Object> objects;
    stable_ids.reserve(live.size());
    objects.reserve(live.size());
    for (auto& entry : live) {
      stable_ids.push_back(entry.first);
      objects.push_back(std::move(entry.second));
    }
    auto built =
        BaseIndex::Build(std::move(objects), metric_, options_.rebuild, pool);
    if (!built.ok()) return built.status();
    // Offer the outgoing base for chunk reuse: shards whose arena bytes are
    // unchanged (zero churn in that shard) are written as 28-byte refs
    // into the old container instead of full rewrites.
    std::uint64_t reused = 0;
    auto gen = store_.SaveCompacted(built.value(), stable_ids, next_seq_,
                                    next_stable_id_, base_generation_,
                                    &reused);
    if (!gen.ok()) return gen.status();
    stats_.compaction_reused_chunks += reused;
    MVP_RETURN_NOT_OK(wal_->TruncateToEmpty());
    base_ = std::move(built).ValueOrDie();
    bool identity = true;
    for (std::size_t g = 0; g < stable_ids.size(); ++g) {
      if (stable_ids[g] != g) {
        identity = false;
        break;
      }
    }
    base_stable_ids_ = identity ? std::vector<std::uint64_t>{}
                                : std::move(stable_ids);
    base_generation_ = gen.value();
    generation_ = gen.value();
    checkpoint_seq_ = next_seq_;
    memtable_offset_ = next_stable_id_;
    memtable_ = Memtable(metric_, options_.memtable);
    ResetTombstonesLocked();
    ++stats_.compactions;
    return generation_;
  }

  /// Loads the full generation `gen` as the base and resets the mutable
  /// layer to empty on top of it.
  Status InstallBaseLocked(std::uint64_t gen, serve::ThreadPool* pool)
      MVP_REQUIRES(mu_) {
    auto loaded =
        store_.LoadSharded<Object, Metric>(metric_, codec_, pool, gen);
    if (!loaded.ok()) return loaded.status();
    const snapshot::SnapshotManifest& m = loaded.value().manifest;
    base_stable_ids_ = std::move(loaded.value().stable_ids);
    base_.emplace(std::move(loaded.value().index));
    options_.rebuild = base_->options();
    base_generation_ = gen;
    memtable_offset_ = m.next_stable_id != 0 ? m.next_stable_id
                                             : m.object_count;
    next_stable_id_ = memtable_offset_;
    memtable_ = Memtable(metric_, options_.memtable);
    ResetTombstonesLocked();
    return Status::OK();
  }

  /// Applies one WAL record that originated elsewhere (recovery replay or
  /// a shipped leader record, which `log` appends to the local WAL once it
  /// has passed the checks). The record was originally applied against
  /// exactly this state (same generation, same prior records), so every
  /// check here failing means a corrupt or mismatched log, not a tolerable
  /// anomaly.
  Status ApplyRecordLocked(const wal::WalRecord& record, bool log)
      MVP_REQUIRES(mu_) {
    if (record.op == wal::WalOp::kInsert) {
      Object object;
      BinaryReader reader(record.payload.data(), record.payload.size());
      MVP_RETURN_NOT_OK(codec_.Read(reader, &object));
      if (!reader.AtEnd()) {
        return Status::Corruption("trailing bytes in wal insert payload");
      }
      if (record.id != next_stable_id_) {
        return Status::Corruption("wal insert id out of sequence");
      }
      if (!AdmitsLocked(object, /*fresh=*/false)) {
        return Status::Corruption(
            "wal insert holds a vector of another dimension");
      }
      if (log) MVP_RETURN_NOT_OK(wal_->Append(record));
      const std::size_t forest_id = InsertLocked(std::move(object));
      if (memtable_offset_ + forest_id != record.id) {
        return Status::Corruption("wal insert id mismatches memtable state");
      }
      ++next_stable_id_;
    } else {
      if (!ContainsLocked(record.id)) {
        return Status::Corruption("wal erases an id that is not live");
      }
      if (log) MVP_RETURN_NOT_OK(wal_->Append(record));
      ApplyEraseLocked(record.id);
    }
    return Status::OK();
  }

  /// The collection holds one dimension: a vector mvp-tree stores
  /// fixed-width rows, and its Build refuses a mix, which a memtable merge
  /// or a compaction could not survive. True when `object` may join the
  /// collection: a vector of dim_, or, while dim_ is unset, a vector of any
  /// dimension a tree can hold. A `fresh` vector (Insert's) must also have
  /// no NaN coordinate, whose NaN distances no search can order. A logged
  /// one (WAL replay, a shipped leader record) is held to the dimension
  /// alone, so logs that builds without the NaN rule wrote replay as they
  /// always did.
  bool AdmitsLocked(const Object& object, bool fresh) const
      MVP_REQUIRES(mu_) {
    if (fresh && std::any_of(object.begin(), object.end(),
                             [](double x) { return std::isnan(x); })) {
      return false;
    }
    return dim_ == 0
               ? core::ObjectStore<metric::Vector>::ValidDim(object.size())
               : object.size() == dim_;
  }

  /// Inserts an admitted object into the memtable, fixing dim_ with the
  /// first vector; returns its forest id.
  std::size_t InsertLocked(Object object) MVP_REQUIRES(mu_) {
    dim_ = object.size();
    return memtable_.Insert(std::move(object));
  }

  /// Sets dim_ from the vectors a loaded generation holds: the base's rows,
  /// else the memtable's live objects; 0 when it holds none.
  void LoadDimLocked() MVP_REQUIRES(mu_) {
    std::size_t dim = base_.has_value() ? base_->dim() : 0;
    if (dim == 0) {
      memtable_.ForEachLive([&dim](std::size_t, const auto& object) {
        dim = object.size();
      });
    }
    dim_ = dim;
  }

  /// Re-applies one WAL record during Open.
  Status ReplayLocked(const wal::WalRecord& record) MVP_REQUIRES(mu_) {
    MVP_RETURN_NOT_OK(ApplyRecordLocked(record, /*log=*/false));
    ++stats_.replayed_records;
    return Status::OK();
  }

  Status Recover(serve::ThreadPool* pool) MVP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    std::uint64_t last_applied = 0;
    auto current = store_.CurrentGeneration();
    if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
      return current.status();
    }
    if (current.ok()) {
      auto manifest = store_.ReadManifest(current.value());
      if (!manifest.ok()) return manifest.status();
      const snapshot::SnapshotManifest& m = manifest.value();
      generation_ = current.value();
      last_applied = m.last_applied_seq;
      if (m.index_kind == snapshot::IndexKind::kDynamicDelta) {
        if (m.base_generation == 0 ||
            m.base_generation >= current.value()) {
          return Status::Corruption(
              "delta generation names an invalid base generation");
        }
        MVP_RETURN_NOT_OK(InstallBaseLocked(m.base_generation, pool));
        auto delta = store_.LoadDelta<Object, Metric>(
            metric_, codec_, options_.memtable, current.value());
        if (!delta.ok()) return delta.status();
        auto& d = delta.value();
        // The overlay's memtable mapping is affine (stable = offset +
        // forest id); the persisted map must agree with the base's
        // high-water mark or the two generations do not belong together.
        for (std::size_t f = 0; f < d.forest_stable_ids.size(); ++f) {
          if (d.forest_stable_ids[f] != memtable_offset_ + f) {
            return Status::Corruption(
                "delta stable-id map does not continue its base generation");
          }
        }
        if (m.next_stable_id !=
            memtable_offset_ + d.forest_stable_ids.size()) {
          return Status::Corruption(
              "delta id high-water mark mismatches its stable-id map");
        }
        for (const std::uint64_t t : d.base_tombstones) {
          const std::optional<std::size_t> g = BaseGlobalLocked(t);
          if (!g.has_value()) {
            return Status::Corruption(
                "delta tombstone does not name a base object");
          }
          EraseBaseLocked(*g);
        }
        memtable_ = std::move(d.forest);
        next_stable_id_ = m.next_stable_id;
      } else {
        MVP_RETURN_NOT_OK(InstallBaseLocked(current.value(), pool));
      }
    }
    next_seq_ = last_applied;
    checkpoint_seq_ = last_applied;
    LoadDimLocked();

    auto log = wal::ReadWal(wal_path());
    if (!log.ok()) return log.status();
    for (const wal::WalRecord& record : log.value().records) {
      // Records at or below the manifest watermark are already folded into
      // the committed generation (a crash between commit and WAL truncate
      // leaves them behind) — skipping them is what makes replay
      // idempotent.
      if (record.seq <= last_applied) continue;
      MVP_RETURN_NOT_OK(ReplayLocked(record));
      next_seq_ = record.seq;
    }
    if (log.value().torn_tail) {
      MVP_RETURN_NOT_OK(
          wal::TruncateWal(wal_path(), log.value().valid_bytes));
    }
    auto writer = wal::WalWriter::Open(wal_path());
    if (!writer.ok()) return writer.status();
    wal_ = std::move(writer).ValueOrDie();
    return Status::OK();
  }

  const std::string dir_;
  const Metric metric_;
  const Codec codec_;
  Options options_;
  snapshot::SnapshotStore store_;
  std::unique_ptr<wal::WalWriter> wal_;

  mutable Mutex mu_;
  std::optional<BaseIndex> base_ MVP_GUARDED_BY(mu_);
  /// Base global id -> stable id, ascending; empty = identity.
  std::vector<std::uint64_t> base_stable_ids_ MVP_GUARDED_BY(mu_);
  std::uint64_t base_generation_ MVP_GUARDED_BY(mu_) = 0;  ///< 0 = no base
  std::uint64_t generation_ MVP_GUARDED_BY(mu_) = 0;  ///< committed gen
  Memtable memtable_ MVP_GUARDED_BY(mu_);
  /// First stable id owned by the memtable; smaller ids are the base's.
  std::uint64_t memtable_offset_ MVP_GUARDED_BY(mu_) = 0;
  /// Tombstones: the erased base objects, flagged by base global id, and
  /// how many are flagged (memtable erases live inside the forest). Dense,
  /// so a k-NN search can test every leaf entry it sees against it.
  std::vector<bool> base_erased_ MVP_GUARDED_BY(mu_);
  std::size_t tombstone_count_ MVP_GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ MVP_GUARDED_BY(mu_) = 0;  ///< last assigned seq
  std::uint64_t next_stable_id_ MVP_GUARDED_BY(mu_) = 0;
  /// Seq folded into the committed generation (WAL truncation watermark).
  std::uint64_t checkpoint_seq_ MVP_GUARDED_BY(mu_) = 0;
  Stats stats_ MVP_GUARDED_BY(mu_);
  /// The dimension every vector in the collection shares; 0 until the
  /// first vector is stored.
  std::size_t dim_ MVP_GUARDED_BY(mu_) = 0;
};

}  // namespace mvp::dynamic

#endif  // MVPTREE_DYNAMIC_DYNAMIC_OVERLAY_H_
