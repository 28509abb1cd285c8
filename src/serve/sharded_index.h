#ifndef MVPTREE_SERVE_SHARDED_INDEX_H_
#define MVPTREE_SERVE_SHARDED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "metric/kernels/kernels.h"
#include "metric/metric.h"
#include "serve/cancel.h"
#include "serve/thread_pool.h"
#include "snapshot/flat_tree.h"

/// \file
/// Sharded mvp-tree — the serving layer's unit of parallelism.
///
/// A single mvp-tree search is a sequential recursion; a machine serving
/// heavy traffic wants both queries-across-cores and, for latency-critical
/// single queries, one-query-across-cores. ShardedMvpIndex provides the
/// substrate for both: the dataset is partitioned round-robin over K
/// independent mvp-trees, built in parallel on a ThreadPool, and every
/// query fans out per-shard searches whose merged result is EXACTLY the
/// result one unsharded tree over the same data would return (same ids,
/// same distances — round-robin keeps global ids stable, and merging sorts
/// by the library-wide NeighborLess order). tests/sharded_index_test.cc
/// asserts this equivalence bit for bit.
///
/// Trade-off (docs/serving.md discusses it): K shards of n/K points do
/// slightly more total distance computations than one tree of n points —
/// each shard pays its own vantage-point evaluations — in exchange for a
/// build that scales near-linearly with cores and searches that can run
/// K-wide. Keep K near the core count, not higher.
///
/// Every shard tree is built over a CancelChecked metric, so any search —
/// serial or fanned out — is cancellable mid-flight by the executor's
/// deadline machinery at the granularity of one distance computation.
///
/// Each shard holds ONE of two representations behind the same search
/// interface: the heap tree (Build/Restore — owns its objects, supports
/// any Object type; over vectors it owns one row-major slab) or a flat
/// mmap-native view (RestoreFlat — vector datasets served directly out of
/// a snapshot mapping with zero deserialization; snapshot/flat_tree.h).
/// For vectors both evaluate the same rows in place as metric::VectorView,
/// differing only in who owns the bytes. Searches dispatch per shard and
/// return bit-identical results either way; flat shards recover global ids
/// arithmetically (local i in shard s of K is global i*K + s) instead of
/// from a stored map.
///
/// Thread-safety analysis: the index is immutable after Build/Restore and
/// searched concurrently without locks; per-query fan-out state is either
/// task-private or a std::atomic. No capabilities to annotate — the TSA
/// build (and the raw-mutex lint) keep it that way.

namespace mvp::serve {

template <typename Object, metric::MetricFor<Object> Metric>
class ShardedMvpIndex {
 public:
  using Tree = core::MvpTree<Object, CancelChecked<Metric>>;
  using FlatView = snapshot::flat::FlatTreeView<CancelChecked<Metric>>;

  /// Whether this instantiation can serve the flat representation: vector
  /// objects. A vector tree's metric already evaluates against the
  /// zero-copy metric::VectorView rows a flat arena hands out
  /// (metric::RowMetric, which core::MvpTree checks).
  static constexpr bool kFlatCapable =
      std::is_same_v<Object, std::vector<double>>;

  struct Options {
    /// Number of independent mvp-trees the data is partitioned over.
    /// 0 (the default) means adaptive: Build resolves it from the dataset
    /// size and the machine's core count via AdaptiveShardCount, so small
    /// datasets are not over-sharded (each shard pays its own vantage
    /// evaluations) and large ones use every core. Restore paths always
    /// receive the explicit count recorded in the snapshot manifest.
    std::size_t num_shards = 0;
    /// Construction parameters for every shard tree. Shard s is built with
    /// seed `tree.seed + s` so shards make decorrelated vantage choices.
    typename Tree::Options tree;
  };

  /// Shards worth using for `dataset_size` objects on `hardware_threads`
  /// cores: one shard per core, but never so many that a shard drops below
  /// kMinObjectsPerShard objects (the point where per-shard vantage
  /// overhead outweighs the parallelism; docs/serving.md discusses the
  /// trade-off), clamped to [1, kMaxAdaptiveShards]. `hardware_threads`
  /// defaults to the machine's; std::thread::hardware_concurrency may
  /// report 0, which is treated as a single core.
  static constexpr std::size_t kMinObjectsPerShard = 2048;
  static constexpr std::size_t kMaxAdaptiveShards = 64;
  static std::size_t AdaptiveShardCount(
      std::size_t dataset_size,
      std::size_t hardware_threads = std::thread::hardware_concurrency()) {
    const std::size_t cores = std::max<std::size_t>(hardware_threads, 1);
    const std::size_t by_size =
        std::max<std::size_t>(dataset_size / kMinObjectsPerShard, 1);
    return std::min({cores, by_size, kMaxAdaptiveShards});
  }

  /// The parameters the index was built with, flattened for recording in a
  /// snapshot manifest (and for validating a loaded snapshot against what
  /// its manifest claims — a mismatch means the bytes would deserialize
  /// into a structurally different index than the one saved).
  struct BuildParams {
    std::size_t num_shards = 0;
    int order = 0;
    int leaf_capacity = 0;
    int num_path_distances = 0;
    std::uint64_t seed = 0;  ///< base seed; shard s used seed + s
    bool store_exact_bounds = false;

    friend bool operator==(const BuildParams&, const BuildParams&) = default;
  };

  /// Precomputed root vantage-point distances for one query of a batch,
  /// one core::RootPrime per shard (PrimeBatch; consumed by the primed
  /// RangeSearchInto/KnnSearchInto overload parameter). Empty when the
  /// index could not be primed.
  struct QueryPrime {
    std::vector<core::RootPrime> shard;
  };

  /// Partitions `objects` round-robin over the shards (global id g lands in
  /// shard g % K) and builds the shard trees — in parallel on `pool` when
  /// one is given, serially otherwise. The result is identical either way.
  static Result<ShardedMvpIndex> Build(std::vector<Object> objects,
                                       Metric metric, const Options& options,
                                       ThreadPool* pool = nullptr) {
    ShardedMvpIndex index;
    index.options_ = options;
    if (index.options_.num_shards == 0) {
      index.options_.num_shards = AdaptiveShardCount(objects.size());
    }
    index.size_ = objects.size();
    const std::size_t k = index.options_.num_shards;

    std::vector<std::vector<Object>> parts(k);
    std::vector<std::vector<std::size_t>> ids(k);
    for (std::size_t s = 0; s < k; ++s) {
      parts[s].reserve(objects.size() / k + 1);
      ids[s].reserve(objects.size() / k + 1);
    }
    for (std::size_t g = 0; g < objects.size(); ++g) {
      parts[g % k].push_back(std::move(objects[g]));
      ids[g % k].push_back(g);
    }

    std::vector<std::optional<Result<Tree>>> built(k);
    auto build_shard = [&](std::size_t s) {
      typename Tree::Options tree_options = options.tree;
      tree_options.seed = options.tree.seed + s;
      built[s] = Tree::Build(std::move(parts[s]),
                             CancelChecked<Metric>(metric), tree_options);
    };
    if (pool == nullptr || k == 1) {
      for (std::size_t s = 0; s < k; ++s) build_shard(s);
    } else {
      ParallelFor(*pool, k, build_shard);
    }

    index.shards_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      if (!built[s]->ok()) return built[s]->status();
      index.shards_.push_back(std::make_unique<Shard>(
          Shard{std::move(*built[s]).ValueOrDie(), std::move(ids[s]),
                std::nullopt}));
    }
    return index;
  }

  /// All objects within `radius` of `query` (closed ball), sorted by
  /// distance then global id — exactly the unsharded MvpTree result. With
  /// a pool, shards are searched in parallel (the calling thread helps).
  std::vector<Neighbor> RangeSearch(const Object& query, double radius,
                                    SearchStats* stats = nullptr,
                                    ThreadPool* pool = nullptr) const {
    std::vector<Neighbor> merged;
    RangeSearchInto(query, radius, &merged, stats, pool);
    std::sort(merged.begin(), merged.end(), NeighborLess);
    return merged;
  }

  /// RangeSearch appending unsorted hits (global ids) into the caller-owned
  /// `*out`. On a mid-search cancellation, everything every shard had found
  /// by then — including shards that were interrupted — is harvested into
  /// `*out` and accounted into `*stats` before CancelledError is rethrown,
  /// so the executor can serve the partial answer. Every harvested hit is a
  /// true member of the full answer (it passed the exact d <= r test).
  void RangeSearchInto(const Object& query, double radius,
                       std::vector<Neighbor>* out,
                       SearchStats* stats = nullptr,
                       ThreadPool* pool = nullptr,
                       const QueryPrime* prime = nullptr) const {
    FanOutInto(
        [&](std::size_t s, const Shard& shard, std::vector<Neighbor>* sink,
            SearchStats* shard_stats) {
          if (shard.tree.has_value()) {
            shard.tree->RangeSearchInto(query, radius, sink, shard_stats);
          } else if constexpr (kFlatCapable) {
            shard.flat->RangeSearchInto(query, radius, sink, shard_stats,
                                        ShardPrime(prime, s));
          } else {
            MVP_DCHECK(false);  // flat shards need a flat-capable metric
          }
        },
        out, stats, pool);
  }

  /// The k nearest objects, sorted by distance then global id — exactly
  /// the unsharded result: each shard returns its own best k, and the best
  /// k of that union are the global best k. `exclude` names GLOBAL ids that
  /// must not be returned (core::Exclusion); the answer is then the k
  /// nearest among the rest.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr,
                                  ThreadPool* pool = nullptr,
                                  core::Exclusion exclude = {}) const {
    std::vector<Neighbor> merged;
    KnnSearchInto(query, k, &merged, stats, pool, nullptr, exclude);
    std::sort(merged.begin(), merged.end(), NeighborLess);
    if (merged.size() > k) merged.resize(k);
    return merged;
  }

  /// KnnSearch appending each shard's (unsorted) candidate set into the
  /// caller-owned `*out` — up to k per shard, so the caller sorts and trims
  /// to k. On cancellation the harvested union holds the best candidates
  /// among the points evaluated so far (a valid degraded answer; not
  /// necessarily the true top-k), appended before CancelledError is
  /// rethrown. `exclude` names global ids, as in KnnSearch.
  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<Neighbor>* out, SearchStats* stats = nullptr,
                     ThreadPool* pool = nullptr,
                     const QueryPrime* prime = nullptr,
                     core::Exclusion exclude = {}) const {
    FanOutInto(
        [&](std::size_t s, const Shard& shard, std::vector<Neighbor>* sink,
            SearchStats* shard_stats) {
          // The shard searches its local ids; translate them for `exclude`.
          const auto excluded_local = [&](std::size_t local) {
            return exclude(GlobalId(s, local));
          };
          const core::Exclusion shard_exclude =
              exclude ? core::Exclusion::Of(excluded_local)
                      : core::Exclusion{};
          if (shard.tree.has_value()) {
            shard.tree->KnnSearchInto(query, k, sink, shard_stats,
                                      shard_exclude);
          } else if constexpr (kFlatCapable) {
            shard.flat->KnnSearchInto(query, k, sink, shard_stats,
                                      ShardPrime(prime, s), shard_exclude);
          } else {
            MVP_DCHECK(false);  // flat shards need a flat-capable metric
          }
        },
        out, stats, pool);
  }

  /// Precomputes, for each query of a co-arriving batch, its distance to
  /// every shard root's vantage points — the paper's cost model made batch-
  /// shaped: one many-queries-one-vantage-point kernel sweep per vantage
  /// point (metric/kernels/kernels.h) instead of one metric call per query.
  /// The primed values are bit-identical to what each search would compute
  /// itself, and consumers still charge SearchStats and the cancellation
  /// budget per primed distance, so batched and unbatched execution agree
  /// exactly. Returns empty when priming does not apply: heap serving, a
  /// metric without a batch kernel family, or no queries. Queries whose
  /// dimension mismatches a shard's stored vectors are left unprimed (the
  /// search then evaluates them itself, preserving whatever the metric does
  /// with them).
  std::vector<QueryPrime> PrimeBatch(
      const std::vector<const Object*>& queries) const {
    std::vector<QueryPrime> primes;
    if constexpr (kFlatCapable && metric::kernels::FamilyFor<Metric>::available) {
      if (!flat_serving() || queries.empty()) return primes;
      constexpr metric::kernels::Family kFamily =
          metric::kernels::FamilyFor<Metric>::family;
      const std::size_t num_shards = shards_.size();
      primes.resize(queries.size());
      for (auto& qp : primes) qp.shard.resize(num_shards);
      std::vector<const double*> qptrs;
      std::vector<std::size_t> qidx;
      std::vector<double> out1;
      std::vector<double> out2;
      for (std::size_t s = 0; s < num_shards; ++s) {
        const FlatView& view = *shards_[s]->flat;
        const double* vp1 = nullptr;
        const double* vp2 = nullptr;
        if (!view.RootVantagePoints(&vp1, &vp2)) continue;
        const std::size_t dim = view.dim();
        qptrs.clear();
        qidx.clear();
        for (std::size_t i = 0; i < queries.size(); ++i) {
          if (queries[i] != nullptr && queries[i]->size() == dim) {
            qptrs.push_back(queries[i]->data());
            qidx.push_back(i);
          }
        }
        if (qptrs.empty()) continue;
        out1.resize(qptrs.size());
        metric::kernels::ManyToOne(kFamily, qptrs.data(), qptrs.size(), vp1,
                                   dim, out1.data());
        if (vp2 != nullptr) {
          out2.resize(qptrs.size());
          metric::kernels::ManyToOne(kFamily, qptrs.data(), qptrs.size(), vp2,
                                     dim, out2.data());
        }
        for (std::size_t j = 0; j < qptrs.size(); ++j) {
          core::RootPrime& rp = primes[qidx[j]].shard[s];
          rp.d1 = out1[j];
          rp.has_d1 = true;
          if (vp2 != nullptr) {
            rp.d2 = out2[j];
            rp.has_d2 = true;
          }
        }
      }
    } else {
      (void)queries;  // not a status: unused in the non-flat-capable branch
    }
    return primes;
  }

  std::size_t size() const { return size_; }
  std::size_t num_shards() const { return shards_.size(); }
  const Options& options() const { return options_; }

  /// True when this index serves from flat arenas (RestoreFlat) rather than
  /// heap trees. Heap-only accessors below must not be called on it.
  bool flat_serving() const {
    return !shards_.empty() && shards_[0]->flat.has_value();
  }

  /// Heap representation only.
  const Tree& shard(std::size_t s) const {
    MVP_DCHECK(s < shards_.size() && shards_[s]->tree.has_value());
    return *shards_[s]->tree;
  }

  /// Flat representation only.
  const FlatView& flat_shard(std::size_t s) const {
    MVP_DCHECK(s < shards_.size() && shards_[s]->flat.has_value());
    return *shards_[s]->flat;
  }

  /// Shard s's local-id -> global-id map (round-robin: entry i is the
  /// global id of the i-th object handed to shard s's tree). The snapshot
  /// writer persists this next to each shard tree. Heap representation
  /// only — flat shards derive the mapping arithmetically.
  const std::vector<std::size_t>& shard_global_ids(std::size_t s) const {
    MVP_DCHECK(s < shards_.size() && shards_[s]->tree.has_value());
    return shards_[s]->global_ids;
  }

  BuildParams build_params() const {
    BuildParams params;
    params.num_shards = options_.num_shards;
    params.order = options_.tree.order;
    params.leaf_capacity = options_.tree.leaf_capacity;
    params.num_path_distances = options_.tree.num_path_distances;
    params.seed = options_.tree.seed;
    params.store_exact_bounds = options_.tree.store_exact_bounds;
    return params;
  }

  /// Reassembles an index from deserialized shard trees and their global-id
  /// maps (the inverse of per-shard serialization). Validates the
  /// round-robin partition invariant — shard s holds exactly the global
  /// ids congruent to s mod K, each id exactly once — so a snapshot whose
  /// chunks were reordered, dropped, or truncated is rejected as
  /// Corruption instead of producing an index with silently wrong ids.
  static Result<ShardedMvpIndex> Restore(
      const Options& options,
      std::vector<std::pair<Tree, std::vector<std::size_t>>> parts) {
    const std::size_t k = options.num_shards;
    if (k < 1 || parts.size() != k) {
      return Status::Corruption("shard count mismatches restore options");
    }
    std::size_t total = 0;
    for (const auto& [tree, ids] : parts) {
      if (tree.size() != ids.size()) {
        return Status::Corruption("shard tree size mismatches its id map");
      }
      total += ids.size();
    }
    std::vector<bool> seen(total, false);
    for (std::size_t s = 0; s < k; ++s) {
      for (const std::size_t id : parts[s].second) {
        if (id >= total || id % k != s || seen[id]) {
          return Status::Corruption("shard id map violates the round-robin "
                                    "partition invariant");
        }
        seen[id] = true;
      }
    }
    ShardedMvpIndex index;
    index.options_ = options;
    index.size_ = total;
    index.shards_.reserve(k);
    for (auto& [tree, ids] : parts) {
      index.shards_.push_back(std::make_unique<Shard>(
          Shard{std::move(tree), std::move(ids), std::nullopt}));
    }
    return index;
  }

  /// Reassembles an index serving directly out of flat arenas in a mapped
  /// snapshot — zero deserialization; the shards alias `arena_owner`'s
  /// bytes, which the index keeps alive. `views` is one validated
  /// FlatTreeView per shard, in shard order. Flat chunks carry no id map,
  /// so the round-robin invariant is enforced arithmetically: shard s of K
  /// must hold exactly ceil((total - s) / K) objects, and local id i maps
  /// to global id i*K + s (SaveFlat refuses indexes whose id maps are not
  /// in this canonical form).
  static Result<ShardedMvpIndex> RestoreFlat(
      const Options& options, std::size_t total, std::vector<FlatView> views,
      std::shared_ptr<const void> arena_owner) {
    const std::size_t k = options.num_shards;
    if (k < 1 || views.size() != k) {
      return Status::Corruption("shard count mismatches restore options");
    }
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t expected = total > s ? (total - s - 1) / k + 1 : 0;
      if (views[s].size() != expected) {
        return Status::Corruption(
            "flat shard size violates the round-robin partition invariant");
      }
      if (views[s].order() != options.tree.order ||
          views[s].leaf_capacity() != options.tree.leaf_capacity ||
          views[s].num_path_distances() != options.tree.num_path_distances ||
          views[s].store_exact_bounds() != options.tree.store_exact_bounds) {
        return Status::InvalidArgument(
            "flat shard build parameters mismatch restore options");
      }
    }
    ShardedMvpIndex index;
    index.options_ = options;
    index.size_ = total;
    index.arena_owner_ = std::move(arena_owner);
    index.shards_.reserve(k);
    for (auto& view : views) {
      index.shards_.push_back(std::make_unique<Shard>(
          Shard{std::nullopt, {}, std::move(view)}));
    }
    return index;
  }

  /// Aggregated structural statistics (construction distances sum over
  /// shards; height is the tallest shard's). Heap representation only —
  /// flat arenas do not record construction-time statistics.
  TreeStats Stats() const {
    TreeStats total;
    for (const auto& shard : shards_) {
      MVP_DCHECK(shard->tree.has_value());
      const TreeStats s = shard->tree->Stats();
      total.num_internal_nodes += s.num_internal_nodes;
      total.num_leaf_nodes += s.num_leaf_nodes;
      total.num_vantage_points += s.num_vantage_points;
      total.num_leaf_points += s.num_leaf_points;
      total.height = std::max(total.height, s.height);
      total.construction_distance_computations +=
          s.construction_distance_computations;
    }
    return total;
  }

 private:
  /// Exactly one representation is engaged: `tree` (heap, with its stored
  /// id map) or `flat` (arena view; global ids are arithmetic).
  struct Shard {
    std::optional<Tree> tree;
    std::vector<std::size_t> global_ids;  // heap only: local id -> global id
    std::optional<FlatView> flat;
  };

  ShardedMvpIndex() = default;

  /// Local -> global id for shard s under either representation.
  std::size_t GlobalId(std::size_t s, std::size_t local) const {
    const Shard& shard = *shards_[s];
    return shard.tree.has_value() ? shard.global_ids[local]
                                  : local * shards_.size() + s;
  }

  /// This query's primed root distances for shard s, or null when the batch
  /// was not primed (the search then computes them itself).
  static const core::RootPrime* ShardPrime(const QueryPrime* prime,
                                           std::size_t s) {
    if (prime == nullptr || s >= prime->shard.size()) return nullptr;
    return &prime->shard[s];
  }

  /// Runs `search` over every shard into a per-shard sink, translates local
  /// ids to global ids, and appends everything into `*out`. Parallel shard
  /// searches propagate the caller's cancellation context onto the worker
  /// threads, so a deadline set by the executor aborts all shards of the
  /// query, and every shard's distance evaluations are flushed into the
  /// query's counter.
  ///
  /// Cancellation (serial or parallel) is caught per shard: whatever every
  /// shard accumulated before being interrupted is still translated,
  /// appended and accounted — the partial-results harvest — and only then
  /// is CancelledError rethrown to signal the caller the answer is
  /// incomplete.
  template <typename SearchFn>
  void FanOutInto(const SearchFn& search, std::vector<Neighbor>* out,
                  SearchStats* stats, ThreadPool* pool) const {
    MVP_DCHECK(out != nullptr);
    const std::size_t k = shards_.size();
    std::vector<std::vector<Neighbor>> hits(k);
    std::vector<SearchStats> shard_stats(k);
    bool cancelled = false;

    if (pool == nullptr || k == 1) {
      try {
        for (std::size_t s = 0; s < k; ++s) {
          search(s, *shards_[s], &hits[s],
                 stats != nullptr ? &shard_stats[s] : nullptr);
        }
      } catch (const CancelledError&) {
        cancelled = true;
      }
    } else {
      const CancelContext context = CancelScope::Current();
      std::atomic<bool> flag{false};
      ParallelFor(*pool, k, [&](std::size_t s) {
        CancelScope scope(context);
        try {
          search(s, *shards_[s], &hits[s],
                 stats != nullptr ? &shard_stats[s] : nullptr);
        } catch (const CancelledError&) {
          flag.store(true, std::memory_order_relaxed);
        }
      });
      cancelled = flag.load(std::memory_order_relaxed);
    }

    std::size_t total = 0;
    for (const auto& h : hits) total += h.size();
    out->reserve(out->size() + total);
    for (std::size_t s = 0; s < k; ++s) {
      for (const Neighbor& n : hits[s]) {
        out->push_back(Neighbor{GlobalId(s, n.id), n.distance});
      }
      if (stats != nullptr) {
        stats->distance_computations += shard_stats[s].distance_computations;
        stats->nodes_visited += shard_stats[s].nodes_visited;
        stats->leaf_points_seen += shard_stats[s].leaf_points_seen;
        stats->leaf_points_filtered += shard_stats[s].leaf_points_filtered;
      }
    }
    if (cancelled) throw CancelledError();
  }

  Options options_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Keeps the mapped snapshot (or heap-fallback buffer) the flat views
  /// alias alive for the index's lifetime. Null for heap indexes.
  std::shared_ptr<const void> arena_owner_;
};

}  // namespace mvp::serve

#endif  // MVPTREE_SERVE_SHARDED_INDEX_H_
