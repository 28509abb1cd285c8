#ifndef MVPTREE_SERVE_SHARDED_INDEX_H_
#define MVPTREE_SERVE_SHARDED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/query.h"
#include "common/shard_partition.h"
#include "common/status.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "metric/metric.h"
#include "serve/cancel.h"
#include "serve/thread_pool.h"

/// \file
/// Sharded mvp-tree — the serving layer's unit of parallelism.
///
/// The dataset is split over K independent mvp-trees, built in parallel on
/// a ThreadPool, and every answer is EXACTLY the one a linear scan (or one
/// unsharded tree) gives: same ids, same distances, sorted by the
/// library-wide NeighborLess order. tests/sharded_index_test.cc asserts
/// this bit for bit.
///
/// The split is the paper's m-way vp split (§3), one level above the
/// trees: Build picks one seeded top vantage point v, ranks every object by
/// (d(v, x), global id) and gives shard s the ranks [n·s/K, n·(s+1)/K). So
/// shard s is a shell [lo_s, hi_s] around v, and a search computes
/// d0 = d(q, v) once and prunes whole shards by the triangle inequality,
/// the same rule core::ShellIntersects applies inside every node:
///   - range visits shard s iff [d0 - r, d0 + r] meets [lo_s, hi_s], and
///     may search the visited shards in parallel;
///   - k-NN ranks shards by max(0, lo_s - d0, d0 - hi_s) and searches in
///     two waves into one global heap: the nearest shell first, then every
///     shell whose bound does not exceed the k-th distance that wave found,
///     each capped at it, side by side when a pool is given.
/// With one shard there is no v, and the index is that shard's tree.
///
/// Generations written before the partition dealt objects out round-robin
/// (global id g in shard g % K). They restore with no v and unbounded
/// shells [0, +inf), so they run the same search without shard pruning.
///
/// Trade-off (docs/serving.md gives measured counts): building costs n
/// distances more than the K shard trees, one per object to v, and a k-NN
/// query then costs about what one unsharded tree costs. Both query kinds
/// search their shards in parallel on a pool, and the same shards with the
/// same caps without one, so pooled and serial counts are equal.
///
/// Every shard tree is built over a CancelChecked metric, and d(q, v) is
/// evaluated through it, so any search is cancellable mid-flight by the
/// executor's deadline machinery at the granularity of one distance
/// computation.
///
/// Each shard is one core::MvpTree and an ascending local-id -> global-id
/// map, which snapshots of either layout store. A tree Build or a
/// deserializing Restore made owns its objects and arrays; one opened from
/// a flat snapshot (snapshot::flat::OpenTree) borrows them from the mapping
/// and keeps it alive. Nothing above the tree tells the two apart.
///
/// Thread-safety analysis: the index is immutable after Build/Restore and
/// searched concurrently without locks; per-query fan-out state is either
/// task-private or a std::atomic. No capabilities to annotate — the TSA
/// build (and the raw-mutex lint) keep it that way.

namespace mvp::serve {

template <typename Object, metric::MetricFor<Object> Metric>
class ShardedMvpIndex {
  /// Vector collections: one row dimension (dim()).
  static constexpr bool kVectors = std::is_same_v<Object, metric::Vector>;

 public:
  using Tree = core::MvpTree<Object, CancelChecked<Metric>>;

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

  /// The metric partition Build records and snapshots persist
  /// (common/shard_partition.h): v as (shard, local id), and each shard's
  /// shell around it.
  using Shell = ShardShell;
  using Partition = ShardPartition;

  /// Partitions `objects` into K shells around one seeded vantage point
  /// (see the file comment) and builds the shard trees. The n distances to
  /// v and the shard builds run on `pool` when one is given, serially
  /// otherwise; the result is identical either way. Shard s's objects keep
  /// ascending global ids, so local ids order ties as global ids do.
  static Result<ShardedMvpIndex> Build(std::vector<Object> objects,
                                       Metric metric, const Options& options,
                                       ThreadPool* pool = nullptr) {
    ShardedMvpIndex index;
    index.options_ = options;
    if (index.options_.num_shards == 0) {
      index.options_.num_shards = AdaptiveShardCount(objects.size());
    }
    const std::size_t n = objects.size();
    index.size_ = n;
    const std::size_t k = index.options_.num_shards;

    std::vector<std::vector<std::size_t>> ids(k);
    std::vector<Shell> shells(k);
    std::optional<std::size_t> vantage;  // global id of v
    if (k == 1 || n == 0) {
      ids[0].resize(n);
      std::iota(ids[0].begin(), ids[0].end(), std::size_t{0});
    } else {
      vantage = std::mt19937_64(options.tree.seed ^ kVantageSeedSalt)() % n;
      const std::vector<double> dist =
          VantageDistances(objects, *vantage, metric, pool);
      index.partition_distances_ = n;
      // Rank by (distance, global id). nth_element at each cut finds the
      // first object of every shard; an ascending pass then places each
      // object by those K-1 keys, so every id map comes out ascending.
      const auto by_rank = [&dist](std::size_t a, std::size_t b) {
        return dist[a] < dist[b] || (dist[a] == dist[b] && a < b);
      };
      std::vector<std::size_t> firsts;  // shards 1..K-1
      {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t s = 1; s < k; ++s) {
          std::nth_element(order.begin() + Cut(n, k, s - 1),
                           order.begin() + Cut(n, k, s), order.end(), by_rank);
          firsts.push_back(order[Cut(n, k, s)]);
        }
      }
      for (std::size_t s = 0; s < k; ++s) {
        ids[s].reserve(Cut(n, k, s + 1) - Cut(n, k, s));
        shells[s] = Shell{kInfinity, -kInfinity};
      }
      for (std::size_t g = 0; g < n; ++g) {
        const std::size_t s = static_cast<std::size_t>(
            std::upper_bound(firsts.begin(), firsts.end(), g, by_rank) -
            firsts.begin());
        ids[s].push_back(g);
        shells[s].lo = std::min(shells[s].lo, dist[g]);
        shells[s].hi = std::max(shells[s].hi, dist[g]);
      }
      for (std::size_t s = 0; s < k; ++s) {
        // An empty shard's shell meets no query.
        if (ids[s].empty()) shells[s] = Shell{kInfinity, kInfinity};
      }
    }

    std::vector<std::vector<Object>> parts(k);
    for (std::size_t s = 0; s < k; ++s) {
      parts[s].reserve(ids[s].size());
      for (const std::size_t g : ids[s]) {
        parts[s].push_back(std::move(objects[g]));
      }
    }
    std::vector<Object>().swap(objects);

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
      if (vantage.has_value()) {
        const auto& v_ids = ids[s];
        const auto it = std::lower_bound(v_ids.begin(), v_ids.end(), *vantage);
        if (it != v_ids.end() && *it == *vantage) {
          index.vantage_.emplace(s, static_cast<std::size_t>(it - v_ids.begin()));
        }
      }
      index.shards_.push_back(Shard{std::move(*built[s]).ValueOrDie(),
                                    std::move(ids[s]), shells[s]});
    }
    index.ResolveVantageRow();
    return index;
  }

  /// All objects within `radius` of `query` (closed ball), sorted by
  /// distance then global id — exactly a linear scan's result. With a pool,
  /// the shards whose shells meet the query ball are searched in parallel
  /// (the calling thread helps).
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
                       ThreadPool* pool = nullptr) const {
    MVP_DCHECK(out != nullptr);
    const double d0 = VantageDistance(query, stats);
    std::vector<std::size_t> visit;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shell& shell = shards_[s].shell;
      if (core::ShellIntersects(d0, radius, shell.lo, shell.hi)) {
        visit.push_back(s);
      }
    }
    std::vector<std::vector<Neighbor>> hits(visit.size());
    std::vector<SearchStats> shard_stats(visit.size());
    const bool cancelled = ForEachShard(
        visit.size(), pool, [&](std::size_t i) {
          const std::size_t s = visit[i];
          shards_[s].tree.RangeSearchInto(query, radius, &hits[i],
                                          &shard_stats[i]);
        });
    std::size_t total = 0;
    for (const auto& h : hits) total += h.size();
    out->reserve(out->size() + total);
    for (std::size_t i = 0; i < visit.size(); ++i) {
      const Shard& shard = shards_[visit[i]];
      for (const Neighbor& n : hits[i]) {
        out->push_back(Neighbor{shard.ids[n.id], n.distance});
      }
      if (stats != nullptr) MergeSearchStats(stats, shard_stats[i]);
    }
    if (cancelled) throw CancelledError();
  }

  /// The k nearest objects, sorted by distance then global id — exactly a
  /// linear scan's result. `exclude` names GLOBAL ids that must not be
  /// returned (core::Exclusion); the answer is then the k nearest among the
  /// rest. With a pool, the second wave of shards (see KnnSearchInto) is
  /// searched in parallel, and `exclude` may be called from pool threads.
  std::vector<Neighbor> KnnSearch(const Object& query, std::size_t k,
                                  SearchStats* stats = nullptr,
                                  ThreadPool* pool = nullptr,
                                  core::Exclusion exclude = {}) const {
    std::vector<Neighbor> merged;
    KnnSearchInto(query, k, &merged, stats, pool, exclude);
    std::sort(merged.begin(), merged.end(), NeighborLess);
    return merged;
  }

  /// KnnSearch appending its (unsorted) best <= k into the caller-owned
  /// `*out`, in two waves over the shards ranked by their shells' lower
  /// bound max(0, lo - d0, d0 - hi):
  ///   1. the nearest shell, unbounded, which yields a k-th distance tau;
  ///   2. every other shell whose lower bound is not above tau, each capped
  ///      at tau — side by side on `pool` when one is given.
  /// Shells with a lower bound above tau hold no answer (pruning is strict,
  /// so ties survive). The schedule does not depend on `pool`, so pooled
  /// and serial searches compute exactly the same distances. On
  /// cancellation the best candidates among the points evaluated so far (a
  /// valid degraded answer; not necessarily the true top-k), including
  /// what interrupted shards had found, are appended before CancelledError
  /// is rethrown. `exclude` names global ids, as in KnnSearch.
  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<Neighbor>* out, SearchStats* stats = nullptr,
                     ThreadPool* pool = nullptr,
                     core::Exclusion exclude = {}) const {
    MVP_DCHECK(out != nullptr);
    if (k == 0) return;
    const double d0 = VantageDistance(query, stats);
    std::vector<std::pair<double, std::size_t>> order;  // (lower bound, s)
    order.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shell& shell = shards_[s].shell;
      order.emplace_back(std::max({0.0, shell.lo - d0, d0 - shell.hi}), s);
    }
    std::sort(order.begin(), order.end());

    std::vector<Neighbor> best;  // max-heap of global ids under NeighborLess
    // Searches order[first, last) capped at `tau` and merges the hits into
    // `best` and the counts into `*stats`; returns whether it was cancelled.
    const auto wave = [&](std::size_t first, std::size_t last, double tau) {
      std::vector<std::vector<Neighbor>> found(last - first);  // local ids
      std::vector<SearchStats> shard_stats(last - first);
      const bool cancelled =
          ForEachShard(last - first, pool, [&](std::size_t i) {
            ShardKnn(order[first + i].second, query, k, tau, exclude,
                     &found[i], &shard_stats[i]);
          });
      for (std::size_t i = 0; i < found.size(); ++i) {
        const Shard& shard = shards_[order[first + i].second];
        for (const Neighbor& n : found[i]) {
          KnnOffer(best, k, Neighbor{shard.ids[n.id], n.distance});
        }
        if (stats != nullptr) MergeSearchStats(stats, shard_stats[i]);
      }
      return cancelled;
    };
    bool cancelled = wave(0, std::min<std::size_t>(1, order.size()), kInfinity);
    if (!cancelled && order.size() > 1) {
      const double tau = KnnTau(best, k);
      std::size_t last = 1;
      while (last < order.size() && order[last].first <= tau) ++last;
      cancelled = wave(1, last, tau);
    }
    out->insert(out->end(), best.begin(), best.end());
    if (cancelled) throw CancelledError();
  }

  std::size_t size() const { return size_; }
  std::size_t num_shards() const { return shards_.size(); }
  const Options& options() const { return options_; }

  /// The dimension of a vector collection's rows, which every shard
  /// shares (Restore checks it); 0 when the index holds no objects.
  std::size_t dim() const
    requires kVectors
  {
    for (const Shard& shard : shards_) {
      if (shard.tree.size() > 0) return shard.tree.dim();
    }
    return 0;
  }

  const Tree& shard(std::size_t s) const {
    MVP_DCHECK(s < shards_.size());
    return shards_[s].tree;
  }

  /// The same as shard(s), kept under this name because perfbench's layer
  /// trace (perfbench/mvpbench.cc) calls it, and perfbench must build
  /// unchanged at every commit so that its runs compare across commits.
  const Tree& flat_shard(std::size_t s) const { return shard(s); }

  /// Shard s's local-id -> global-id map, ascending: entry i is the global
  /// id of the shard tree's object i. The snapshot writers persist it next
  /// to each shard.
  const std::vector<std::size_t>& shard_global_ids(std::size_t s) const {
    MVP_DCHECK(s < shards_.size());
    return shards_[s].ids;
  }

  /// The metric partition (top vantage point and shells), or nullopt for an
  /// index without one: a single shard, no objects, or a round-robin
  /// generation restored from an older snapshot.
  std::optional<Partition> partition() const {
    if (!vantage_.has_value()) return std::nullopt;
    Partition partition{vantage_->first, vantage_->second, {}};
    for (const Shard& shard : shards_) partition.shells.push_back(shard.shell);
    return partition;
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

  /// Reassembles an index from shard trees — deserialized, or opened from
  /// flat arenas — and their global-id maps (the inverse of per-shard
  /// serialization), and `partition` when the snapshot recorded one. Every
  /// tree of a vector index must hold rows of one dimension. See Assemble
  /// for what else is validated.
  static Result<ShardedMvpIndex> Restore(
      const Options& options,
      std::vector<std::pair<Tree, std::vector<std::size_t>>> parts,
      std::optional<Partition> partition = std::nullopt) {
    std::vector<Shard> shards;
    shards.reserve(parts.size());
    std::size_t total = 0;
    std::size_t dim = 0;
    for (auto& [tree, ids] : parts) {
      if (tree.size() != ids.size()) {
        return Status::Corruption("shard tree size mismatches its id map");
      }
      if constexpr (kVectors) {
        if (tree.size() > 0 && dim != 0 && tree.dim() != dim) {
          return Status::Corruption(
              "shard trees hold rows of unequal dimension");
        }
        if (tree.size() > 0) dim = tree.dim();
      }
      total += ids.size();
      shards.push_back(Shard{std::move(tree), std::move(ids), Shell{}});
    }
    return Assemble(options, total, std::move(shards), std::move(partition));
  }

  /// Aggregated structural statistics. Construction distances sum over the
  /// shards plus the partition's n distances to v; height is the tallest
  /// shard's. Snapshots do not record construction-time statistics, so
  /// Restore starts those counts at zero.
  TreeStats Stats() const {
    TreeStats total;
    total.construction_distance_computations = partition_distances_;
    for (const Shard& shard : shards_) {
      const TreeStats s = shard.tree.Stats();
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
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  /// Mixed into Options::tree.seed to pick v, so v does not follow the
  /// first shard tree's own random choices.
  static constexpr std::uint64_t kVantageSeedSalt = 0x76616e7461676531ull;
  /// Objects per task of the parallel distance pass.
  static constexpr std::size_t kDistanceBlock = 4096;

  /// One shard: its tree, the local -> global id map, and its shell
  /// around v.
  struct Shard {
    Tree tree;
    std::vector<std::size_t> ids;
    Shell shell;
  };

  ShardedMvpIndex() = default;

  /// First rank of shard s of K over n objects.
  static std::size_t Cut(std::size_t n, std::size_t k, std::size_t s) {
    return n / k * s + n % k * s / k;
  }

  /// d(v, x) for every object, split into blocks across `pool`. A NaN
  /// distance ranks last, as +infinity, so the shells stay well-formed.
  static std::vector<double> VantageDistances(
      const std::vector<Object>& objects, std::size_t v, const Metric& metric,
      ThreadPool* pool) {
    std::vector<double> dist(objects.size());
    const std::size_t blocks =
        (objects.size() + kDistanceBlock - 1) / kDistanceBlock;
    auto block = [&](std::size_t b) {
      const std::size_t end =
          std::min(objects.size(), (b + 1) * kDistanceBlock);
      for (std::size_t i = b * kDistanceBlock; i < end; ++i) {
        const double d = metric(objects[v], objects[i]);
        dist[i] = std::isnan(d) ? kInfinity : d;
      }
    };
    if (pool == nullptr) {
      for (std::size_t b = 0; b < blocks; ++b) block(b);
    } else {
      ParallelFor(*pool, blocks, block);
    }
    return dist;
  }

  /// d(q, v), evaluated through the vantage shard's CancelChecked metric
  /// and counted in `*stats`; 0 when the index has no v (its shells are
  /// then unbounded, so every shard is visited).
  double VantageDistance(const Object& query, SearchStats* stats) const {
    if (!vantage_.has_value()) return 0.0;
    const Tree& tree = shards_[vantage_->first].tree;
    const double d = tree.metric()(query, tree.object_at_row(vantage_row_));
    if (stats != nullptr) ++stats->distance_computations;
    return d;
  }

  /// Validates the partition and installs the shards. With `partition`:
  /// v names an object, there is one shell per shard with lo <= hi and no
  /// NaN bound, and the id maps are each ascending and together a
  /// permutation of [0, total). Without it (a round-robin generation):
  /// shard s holds exactly the global ids congruent to s mod K. Either way
  /// a snapshot whose chunks were reordered, dropped or truncated is
  /// rejected as Corruption instead of producing silently wrong ids.
  static Result<ShardedMvpIndex> Assemble(const Options& options,
                                          std::size_t total,
                                          std::vector<Shard> shards,
                                          std::optional<Partition> partition) {
    const std::size_t k = options.num_shards;
    if (k < 1 || shards.size() != k) {
      return Status::Corruption("shard count mismatches restore options");
    }
    std::size_t sum = 0;
    for (const Shard& shard : shards) sum += shard.ids.size();
    if (sum != total) {
      return Status::Corruption("shard sizes do not sum to the object count");
    }
    if (partition.has_value()) {
      if (partition->shells.size() != k ||
          partition->vantage_shard >= k ||
          partition->vantage_local >=
              shards[partition->vantage_shard].ids.size()) {
        return Status::Corruption(
            "shard partition names no stored vantage point");
      }
      for (const Shell& shell : partition->shells) {
        if (std::isnan(shell.lo) || std::isnan(shell.hi) ||
            shell.lo > shell.hi) {
          return Status::Corruption("shard partition holds a malformed shell");
        }
      }
    }
    std::vector<bool> seen(total, false);
    for (std::size_t s = 0; s < k; ++s) {
      const auto& ids = shards[s].ids;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::size_t id = ids[i];
        const bool placed = partition.has_value()
                                ? i == 0 || ids[i - 1] < id
                                : id % k == s;
        if (id >= total || !placed || seen[id]) {
          return Status::Corruption(
              partition.has_value()
                  ? "shard id maps are not an ascending permutation"
                  : "shard id map violates the round-robin partition "
                    "invariant");
        }
        seen[id] = true;
      }
    }
    ShardedMvpIndex index;
    index.options_ = options;
    index.size_ = total;
    if (partition.has_value()) {
      index.vantage_.emplace(partition->vantage_shard,
                             partition->vantage_local);
      for (std::size_t s = 0; s < k; ++s) {
        shards[s].shell = partition->shells[s];
      }
    }
    index.shards_ = std::move(shards);
    index.ResolveVantageRow();
    return index;
  }

  /// Looks v's row up in its shard's tree, once, for VantageDistance.
  void ResolveVantageRow() {
    if (!vantage_.has_value()) return;
    const auto [s, local] = *vantage_;
    vantage_row_ = shards_[s].tree.row_of(local);
  }

  /// Shard s's k nearest to `query` (local ids) appended to `*found`, with
  /// every candidate farther than `tau` pruned; `exclude` names global ids.
  void ShardKnn(std::size_t s, const Object& query, std::size_t k, double tau,
                const core::Exclusion& exclude, std::vector<Neighbor>* found,
                SearchStats* stats) const {
    const Shard& shard = shards_[s];
    const auto excluded_local = [&](std::size_t local_id) {
      return exclude(shard.ids[local_id]);
    };
    const core::Exclusion shard_exclude =
        exclude ? core::Exclusion::Of(excluded_local) : core::Exclusion{};
    shard.tree.KnnSearchInto(query, k, found, stats, shard_exclude, tau);
  }

  /// Runs `search(i)` for i in [0, count): serially, or in parallel on
  /// `pool` with the caller's cancellation context carried onto the worker
  /// threads, so a deadline set by the executor aborts every task and
  /// every task's distance evaluations are flushed into the query's
  /// counter. Cancellation is caught per task, so whatever every task
  /// accumulated stays in place for the caller's harvest; returns whether
  /// any task was cancelled.
  template <typename SearchFn>
  static bool ForEachShard(std::size_t count, ThreadPool* pool,
                           const SearchFn& search) {
    if (pool == nullptr || count <= 1) {
      try {
        for (std::size_t i = 0; i < count; ++i) search(i);
      } catch (const CancelledError&) {
        return true;
      }
      return false;
    }
    const CancelContext context = CancelScope::Current();
    std::atomic<bool> flag{false};
    ParallelFor(*pool, count, [&](std::size_t i) {
      CancelScope scope(context);
      try {
        search(i);
      } catch (const CancelledError&) {
        flag.store(true, std::memory_order_relaxed);
      }
    });
    return flag.load(std::memory_order_relaxed);
  }

  Options options_;
  std::size_t size_ = 0;
  std::vector<Shard> shards_;
  /// v as (shard, local id); empty without a partition.
  std::optional<std::pair<std::size_t, std::size_t>> vantage_;
  /// v's row in its shard's tree (ResolveVantageRow).
  std::size_t vantage_row_ = 0;
  /// Build's distances to v (n with a partition), for Stats().
  std::uint64_t partition_distances_ = 0;
};

}  // namespace mvp::serve

#endif  // MVPTREE_SERVE_SHARDED_INDEX_H_
