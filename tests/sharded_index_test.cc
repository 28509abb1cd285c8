// ShardedMvpIndex correctness: the defining property is exact result
// equality — same ids, same distances, same order — with a linear scan and
// with a single unsharded mvp-tree over the same data, for every shard
// count, with and without a thread pool, for both range and k-NN queries.
// The shards are shells around one vantage point; the shell invariant,
// the partition's validation at Restore, and the agreement of every way
// the index is served (heap, flat, loaded, overlay, remote) down to the
// four SearchStats counters are pinned here too.

#include "serve/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/server.h"
#include "scan/linear_scan.h"
#include "serve/executor.h"
#include "serve/thread_pool.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"

namespace mvp::serve {
namespace {

using metric::L2;
using metric::Vector;
using Sharded = ShardedMvpIndex<Vector, L2>;
using Plain = core::MvpTree<Vector, L2>;
using Scan = scan::LinearScan<Vector, L2>;
using Part = std::pair<Sharded::Tree, std::vector<std::size_t>>;
using Request = core::SearchRequest<Vector>;

Sharded BuildSharded(const std::vector<Vector>& data, std::size_t shards,
                     ThreadPool* pool = nullptr) {
  Sharded::Options options;
  options.num_shards = shards;
  auto built = Sharded::Build(data, L2(), options, pool);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).ValueOrDie();
}

std::vector<Vector> Clustered(std::size_t count, std::size_t dim,
                              std::uint64_t seed) {
  dataset::ClusterParams params;
  params.count = count;
  params.dim = dim;
  params.cluster_size = 100;
  params.epsilon = 0.05;
  return dataset::ClusteredVectors(params, seed);
}

/// Queries near the data: every `stride`-th stored point, shifted a little.
std::vector<Vector> NearData(const std::vector<Vector>& data,
                             std::size_t stride) {
  std::vector<Vector> queries;
  for (std::size_t i = 0; i < data.size(); i += stride) {
    queries.push_back(data[i]);
    for (double& x : queries.back()) x += 0.01;
  }
  return queries;
}

/// The index torn down to (tree, id map) parts the way the snapshot layer
/// does, each tree rebuilt from its serialized bytes.
std::vector<Part> PartsOf(const Sharded& index) {
  std::vector<Part> parts;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    BinaryWriter w;
    EXPECT_TRUE(index.shard(s).Serialize(&w, VectorCodec()).ok());
    BinaryReader r(w.buffer());
    auto tree = Sharded::Tree::Deserialize(&r, CancelChecked<L2>(L2()),
                                           VectorCodec());
    EXPECT_TRUE(tree.ok());
    const auto ids = index.shard_global_ids(s);
    parts.emplace_back(std::move(tree).ValueOrDie(),
                       std::vector<std::size_t>(ids.begin(), ids.end()));
  }
  return parts;
}

/// The parts of a round-robin generation, as snapshots written before the
/// metric partition hold them: global id g in shard g % K.
std::vector<Part> RoundRobinParts(const std::vector<Vector>& data,
                                  std::size_t k) {
  std::vector<Part> parts;
  for (std::size_t s = 0; s < k; ++s) {
    std::vector<Vector> objects;
    std::vector<std::size_t> ids;
    for (std::size_t g = s; g < data.size(); g += k) {
      objects.push_back(data[g]);
      ids.push_back(g);
    }
    Sharded::Tree::Options options;
    options.seed += s;
    auto tree = Sharded::Tree::Build(std::move(objects),
                                     CancelChecked<L2>(L2()), options);
    EXPECT_TRUE(tree.ok());
    parts.emplace_back(std::move(tree).ValueOrDie(), std::move(ids));
  }
  return parts;
}

Sharded::Options OptionsWithShards(std::size_t k) {
  Sharded::Options options;
  options.num_shards = k;
  return options;
}

/// Results and all four SearchStats counters of two searches agree.
void ExpectSameSearch(const std::vector<Neighbor>& a,
                      const std::vector<Neighbor>& b, const SearchStats& sa,
                      const SearchStats& sb, const std::string& what) {
  EXPECT_EQ(a, b) << what;
  EXPECT_EQ(sa.distance_computations, sb.distance_computations) << what;
  EXPECT_EQ(sa.nodes_visited, sb.nodes_visited) << what;
  EXPECT_EQ(sa.leaf_points_seen, sb.leaf_points_seen) << what;
  EXPECT_EQ(sa.leaf_points_filtered, sb.leaf_points_filtered) << what;
}

TEST(ShardedIndexTest, RangeSearchEqualsUnshardedExactly) {
  const auto data = dataset::UniformVectors(3000, 10, 21);
  const auto queries = dataset::UniformQueryVectors(12, 10, 33);
  const auto plain = Plain::Build(data, L2(), {}).ValueOrDie();
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 8u}) {
    const Sharded sharded = BuildSharded(data, shards);
    for (const auto& q : queries) {
      for (const double r : {0.2, 0.5, 0.9}) {
        const auto expected = plain.RangeSearch(q, r);
        const auto got = sharded.RangeSearch(q, r);
        EXPECT_EQ(got, expected) << "shards=" << shards << " r=" << r;
      }
    }
  }
}

TEST(ShardedIndexTest, KnnSearchEqualsUnshardedExactly) {
  const auto data = dataset::UniformVectors(2500, 8, 55);
  const auto queries = dataset::UniformQueryVectors(12, 8, 66);
  const auto plain = Plain::Build(data, L2(), {}).ValueOrDie();
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const Sharded sharded = BuildSharded(data, shards);
    for (const auto& q : queries) {
      for (const std::size_t k : {1u, 10u, 100u}) {
        const auto expected = plain.KnnSearch(q, k);
        const auto got = sharded.KnnSearch(q, k);
        EXPECT_EQ(got, expected) << "shards=" << shards << " k=" << k;
      }
    }
  }
}

/// Range and k-NN answers equal a linear scan's on uniform and clustered
/// data, for several shard counts, with and without an exclusion.
TEST(ShardedIndexTest, ResultsEqualLinearScan) {
  const auto is_erased = [](std::size_t id) { return id % 5 == 2; };
  const core::Exclusion erased = core::Exclusion::Of(is_erased);
  for (const bool clustered : {false, true}) {
    const auto data = clustered ? Clustered(3000, 10, 5)
                                : dataset::UniformVectors(3000, 10, 5);
    const auto queries = clustered ? NearData(data, 250)
                                   : dataset::UniformQueryVectors(12, 10, 6);
    const Scan scan(data, L2());
    // The scan over only the objects the exclusion leaves, ids mapped back.
    std::vector<Vector> kept;
    std::vector<std::size_t> kept_ids;
    for (std::size_t g = 0; g < data.size(); ++g) {
      if (is_erased(g)) continue;
      kept.push_back(data[g]);
      kept_ids.push_back(g);
    }
    const Scan kept_scan(kept, L2());
    for (const std::size_t shards : {2u, 4u, 7u}) {
      const Sharded sharded = BuildSharded(data, shards);
      const std::string what = std::string(clustered ? "clustered" : "uniform") +
                               " shards=" + std::to_string(shards);
      for (const auto& q : queries) {
        for (const double r : {0.1, 0.3, 0.6}) {
          EXPECT_EQ(sharded.RangeSearch(q, r), scan.RangeSearch(q, r))
              << what << " r=" << r;
        }
        for (const std::size_t k : {1u, 10u, 50u}) {
          EXPECT_EQ(sharded.KnnSearch(q, k), scan.KnnSearch(q, k))
              << what << " k=" << k;
          auto want = kept_scan.KnnSearch(q, k);
          for (Neighbor& n : want) n.id = kept_ids[n.id];
          EXPECT_EQ(core::Answer(sharded,
                                 Request{.kind = core::SearchKind::kKnn,
                                         .object = q,
                                         .k = k,
                                         .exclude = erased},
                                 nullptr),
                    want)
              << what << " k=" << k << " with exclusion";
        }
      }
    }
  }
}

TEST(ShardedIndexTest, ParallelBuildEqualsSerialBuild) {
  const auto data = dataset::UniformVectors(4000, 8, 77);
  const auto queries = dataset::UniformQueryVectors(10, 8, 88);
  ThreadPool pool(4);
  const Sharded serial = BuildSharded(data, 4);
  const Sharded parallel = BuildSharded(data, 4, &pool);

  // Shard builds are deterministic given (partition, options, seed), so a
  // parallel build must produce byte-for-byte the same trees: identical
  // structural stats AND identical per-query work, not just results.
  const TreeStats a = serial.Stats();
  const TreeStats b = parallel.Stats();
  EXPECT_EQ(a.construction_distance_computations,
            b.construction_distance_computations);
  EXPECT_EQ(a.num_internal_nodes, b.num_internal_nodes);
  EXPECT_EQ(a.num_leaf_nodes, b.num_leaf_nodes);
  EXPECT_EQ(a.num_vantage_points, b.num_vantage_points);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(serial.partition(), parallel.partition());
  for (const auto& q : queries) {
    SearchStats sa, sb;
    EXPECT_EQ(serial.RangeSearch(q, 0.5, &sa), parallel.RangeSearch(q, 0.5, &sb));
    EXPECT_EQ(sa.distance_computations, sb.distance_computations);
    EXPECT_EQ(sa.nodes_visited, sb.nodes_visited);
  }
}

/// Pooled and serial searches agree in results and all four counters.
TEST(ShardedIndexTest, ParallelSearchEqualsSerialSearch) {
  const auto data = dataset::UniformVectors(3000, 8, 99);
  const auto queries = dataset::UniformQueryVectors(10, 8, 111);
  ThreadPool pool(4);
  const Sharded sharded = BuildSharded(data, 4, &pool);
  for (const auto& q : queries) {
    SearchStats serial_stats;
    core::SearchContext parallel{.pool = &pool};
    const auto serial = sharded.RangeSearch(q, 0.5, &serial_stats);
    ExpectSameSearch(
        core::Answer(sharded, Request{.object = q, .radius = 0.5}, parallel),
        serial, parallel.stats, serial_stats, "range");
    SearchStats knn_serial;
    core::SearchContext knn_parallel{.pool = &pool};
    ExpectSameSearch(
        core::Answer(sharded,
                     Request{.kind = core::SearchKind::kKnn, .object = q,
                             .k = 20},
                     knn_parallel),
        sharded.KnnSearch(q, 20, &knn_serial), knn_parallel.stats, knn_serial,
        "knn");
  }
}

/// Range and k-NN under an exclusion, run serially and on a pool: each
/// shard narrows the exclusion and the id map the same way for both kinds,
/// so the two runs agree in results and all four counters, and both equal
/// the scan over the points the exclusion leaves.
TEST(ShardedIndexTest, ExclusionSerialAndPooledEqualScanMinusExcluded) {
  const auto data = Clustered(3000, 8, 17);
  const auto queries = NearData(data, 200);
  const auto is_erased = [](std::size_t id) { return id % 3 == 1; };
  const core::Exclusion erased = core::Exclusion::Of(is_erased);
  std::vector<Vector> kept;
  std::vector<std::size_t> kept_ids;
  for (std::size_t g = 0; g < data.size(); ++g) {
    if (is_erased(g)) continue;
    kept.push_back(data[g]);
    kept_ids.push_back(g);
  }
  const Scan kept_scan(kept, L2());
  const auto to_global = [&](std::vector<Neighbor> answer) {
    for (Neighbor& n : answer) n.id = kept_ids[n.id];
    return answer;
  };
  ThreadPool pool(4);
  const Sharded sharded = BuildSharded(data, 4, &pool);
  const auto check = [&](const Request& request,
                         const std::vector<Neighbor>& want,
                         const std::string& what) {
    SearchStats serial;
    core::SearchContext pooled{.pool = &pool};
    const auto serial_out = core::Answer(sharded, request, &serial);
    EXPECT_EQ(serial_out, want) << what;
    ExpectSameSearch(core::Answer(sharded, request, pooled), serial_out,
                     pooled.stats, serial, "pooled " + what);
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Vector& q = queries[i];
    const std::string what = "query " + std::to_string(i);
    for (const double r : {0.1, 0.3, 0.6}) {
      check(Request{.object = q, .radius = r, .exclude = erased},
            to_global(kept_scan.RangeSearch(q, r)),
            what + " r=" + std::to_string(r));
    }
    for (const std::size_t k : {1u, 10u, 50u}) {
      check(Request{.kind = core::SearchKind::kKnn,
                    .object = q,
                    .k = k,
                    .exclude = erased},
            to_global(kept_scan.KnnSearch(q, k)),
            what + " k=" + std::to_string(k));
    }
  }
}

TEST(ShardedIndexTest, GlobalIdsSurviveSharding) {
  // Ids in results must be positions in the ORIGINAL input vector.
  const auto data = dataset::UniformVectors(500, 6, 13);
  const Sharded sharded = BuildSharded(data, 3);
  const auto hits = sharded.KnnSearch(data[123], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 123u);
  EXPECT_EQ(hits[0].distance, 0.0);
}

TEST(ShardedIndexTest, EmptyDatasetIsValid) {
  const Sharded sharded = BuildSharded({}, 4);
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_FALSE(sharded.partition().has_value());
  EXPECT_TRUE(sharded.RangeSearch(Vector{0.5, 0.5}, 10.0).empty());
  EXPECT_TRUE(sharded.KnnSearch(Vector{0.5, 0.5}, 3).empty());
}

/// A shard tree keeps its rows in one slab, so Build refuses vectors that
/// do not share one dimension of at least 1 with the messages
/// MvpTree::Build gives, at every shard count, with and without a pool.
TEST(ShardedIndexTest, BuildRejectsMixedAndEmptyVectors) {
  const std::string kMixed = "mvp-tree vectors must all have one dimension";
  const std::string kZero = "mvp-tree vector dimension must be 1 to 2^32-1";
  auto mixed = dataset::UniformVectors(60, 3, 8);
  mixed[41] = Vector{0.5, 0.5};
  auto one_empty = dataset::UniformVectors(60, 3, 9);
  one_empty[7] = Vector{};
  const std::vector<Vector> all_empty(60);
  const std::pair<const std::vector<Vector>*, std::string> cases[] = {
      {&mixed, kMixed}, {&one_empty, kMixed}, {&all_empty, kZero}};
  ThreadPool pool(2);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (ThreadPool* use : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("shards " + std::to_string(shards) +
                   (use != nullptr ? ", pooled" : ", serial"));
      Sharded::Options options;
      options.num_shards = shards;
      for (const auto& [data, message] : cases) {
        const auto built = Sharded::Build(*data, L2(), options, use);
        ASSERT_FALSE(built.ok());
        EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(built.status().message(), message);
      }
    }
  }
  // The messages one tree gives.
  EXPECT_EQ(Plain::Build(mixed, L2()).status().message(), kMixed);
  EXPECT_EQ(Plain::Build(one_empty, L2()).status().message(), kMixed);
  EXPECT_EQ(Plain::Build(all_empty, L2()).status().message(), kZero);
}

TEST(ShardedIndexTest, MoreShardsThanPoints) {
  const auto data = dataset::UniformVectors(5, 4, 3);
  const Sharded sharded = BuildSharded(data, 8);
  const auto plain = Plain::Build(data, L2(), {}).ValueOrDie();
  const Vector q(4, 0.5);
  EXPECT_EQ(sharded.KnnSearch(q, 5), plain.KnnSearch(q, 5));
  EXPECT_EQ(sharded.RangeSearch(q, 2.0), plain.RangeSearch(q, 2.0));
}

/// n < K leaves empty shards: they restore, save and load, and answers
/// still equal a scan.
TEST(ShardedIndexTest, EmptyShardsRoundTripAndAnswerExactly) {
  const auto data = dataset::UniformVectors(5, 4, 3);
  const Sharded sharded = BuildSharded(data, 8);
  std::size_t empty = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    empty += sharded.shard_global_ids(s).empty() ? 1 : 0;
  }
  EXPECT_EQ(empty, 3u);
  const Scan scan(data, L2());
  auto restored =
      Sharded::Restore(sharded.options(), PartsOf(sharded), sharded.partition());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const std::string dir = ::testing::TempDir() + "/sharded_empty_shards";
  std::filesystem::remove_all(dir);
  snapshot::SnapshotStore store(dir);
  ASSERT_TRUE(store.SaveFlat(sharded).ok());
  auto flat = store.OpenFlat(L2());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  for (const auto& q : dataset::UniformQueryVectors(6, 4, 9)) {
    for (const Sharded* index : std::vector<const Sharded*>{
             &sharded, &restored.value(), &flat.value().index}) {
      EXPECT_EQ(index->KnnSearch(q, 3), scan.KnnSearch(q, 3));
      EXPECT_EQ(index->RangeSearch(q, 0.7), scan.RangeSearch(q, 0.7));
    }
  }
  std::filesystem::remove_all(dir);
}

/// One shard has no vantage point, so it costs exactly one tree built with
/// the same options: results and all four counters.
TEST(ShardedIndexTest, SingleShardCountsEqualOneTree) {
  const auto data = dataset::UniformVectors(2000, 8, 41);
  const Sharded sharded = BuildSharded(data, 1);
  EXPECT_FALSE(sharded.partition().has_value());
  const auto plain =
      core::MvpTree<Vector, L2>::Build(data, L2(), Sharded::Options{}.tree)
          .ValueOrDie();
  EXPECT_EQ(sharded.Stats().construction_distance_computations,
            plain.Stats().construction_distance_computations);
  for (const auto& q : dataset::UniformQueryVectors(8, 8, 42)) {
    SearchStats a, b;
    ExpectSameSearch(sharded.RangeSearch(q, 0.5, &a), plain.RangeSearch(q, 0.5, &b),
                     a, b, "range");
    SearchStats c, d;
    ExpectSameSearch(sharded.KnnSearch(q, 10, &c), plain.KnnSearch(q, 10, &d),
                     c, d, "knn");
  }
}

/// Every object equidistant from v: the cuts fall inside one run of ties,
/// which the (distance, global id) rank splits evenly; answers still equal
/// a scan's, ties ordered by id.
TEST(ShardedIndexTest, AllDuplicatesTieAtTheCuts) {
  const std::vector<Vector> data(40, Vector{0.25, 0.75, 0.5});
  const Sharded sharded = BuildSharded(data, 4);
  ASSERT_TRUE(sharded.partition().has_value());
  for (std::size_t s = 0; s < 4; ++s) {
    const auto ids = sharded.shard_global_ids(s);
    ASSERT_EQ(ids.size(), 10u);
    EXPECT_EQ(ids.front(), 10 * s);  // ranks cut by global id among ties
    EXPECT_EQ(sharded.partition()->shells[s], (Sharded::Shell{0.0, 0.0}));
  }
  const Scan scan(data, L2());
  for (const Vector& q : {data[0], Vector{0.3, 0.7, 0.5}}) {
    EXPECT_EQ(sharded.KnnSearch(q, 15), scan.KnnSearch(q, 15));
    EXPECT_EQ(sharded.RangeSearch(q, 0.1), scan.RangeSearch(q, 0.1));
  }
}

/// Two points, each stored 20 times with alternating ids, and a query
/// halfway between them (every distance exact): all four shells have the
/// same lower bound, which equals the k-th distance the first shell finds.
/// The later shells must still be searched, since the other point's ids
/// interleave with the first shell's, or the answer keeps larger ids. Two
/// more layouts: ids 0-9 stored at the point v is not, so they form the
/// one far shell, searched last; and an exclusion that removes tied ids.
TEST(ShardedIndexTest, TiesAcrossShellsKeepTheLowestIds) {
  ThreadPool pool(2);
  const Vector q{1.0, 0.0};
  const auto check = [&](const std::vector<Vector>& data,
                         const core::Exclusion& exclude,
                         const std::string& what) {
    const Sharded sharded = BuildSharded(data, 4);
    ASSERT_TRUE(sharded.partition().has_value());
    std::vector<std::size_t> kept;  // every distance is 1
    for (std::size_t g = 0; g < data.size(); ++g) {
      if (!exclude(g)) kept.push_back(g);
    }
    for (const std::size_t k : {1u, 5u, 15u}) {
      std::vector<Neighbor> want;
      for (std::size_t i = 0; i < k; ++i) {
        want.push_back(Neighbor{kept[i], 1.0});
      }
      if (!exclude) {
        EXPECT_EQ(Scan(data, L2()).KnnSearch(q, k), want) << what;
      }
      const Request request{.kind = core::SearchKind::kKnn,
                            .object = q,
                            .k = k,
                            .exclude = exclude};
      SearchStats serial;
      core::SearchContext pooled{.pool = &pool};
      const std::string name = what + " k=" + std::to_string(k);
      EXPECT_EQ(core::Answer(sharded, request, &serial), want) << name;
      ExpectSameSearch(core::Answer(sharded, request, pooled), want,
                       pooled.stats, serial, "pooled " + name);
    }
  };
  std::vector<Vector> alternating;
  for (std::size_t g = 0; g < 40; ++g) {
    alternating.push_back(g % 2 == 0 ? Vector{0.0, 0.0} : Vector{2.0, 0.0});
  }
  check(alternating, {}, "alternating");
  const auto tied = [](std::size_t g) { return g == 0 || g == 3 || g == 6; };
  check(alternating, core::Exclusion::Of(tied), "excluded");

  // v's point holds ids 10-39, three shells, searched first.
  const Sharded probe = BuildSharded(alternating, 4);
  const Vector& v = alternating[probe.shard_global_ids(
      probe.partition()->vantage_shard)[probe.partition()->vantage_local]];
  const Vector far =
      v == Vector{0.0, 0.0} ? Vector{2.0, 0.0} : Vector{0.0, 0.0};
  std::vector<Vector> far_first(40, v);
  std::fill(far_first.begin(), far_first.begin() + 10, far);
  const Sharded last = BuildSharded(far_first, 4);
  const auto& ids = last.shard_global_ids(3);
  ASSERT_EQ(std::vector<std::size_t>(ids.begin(), ids.end()),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  check(far_first, {}, "far shell last");
}

/// 1-d integer points, so every L2 distance is exact, in 4 shells around
/// v. Each query's closed ball just touches one shell's lo or hi: the ball
/// reaches the point at distance lo (or hi) from v at exactly its radius,
/// the shell's bound max(0, lo - d0, d0 - hi) equals the radius, and the
/// shard must be searched. Serial and pooled answers equal the scan, which
/// holds that point at distance exactly r.
TEST(ShardedIndexTest, RangeBallTouchingAShellVisitsIt) {
  std::vector<Vector> data;
  for (std::size_t g = 0; g < 40; ++g) {
    data.push_back(Vector{static_cast<double>(g * 17 % 40)});
  }
  ThreadPool pool(2);
  const Sharded sharded = BuildSharded(data, 4);
  const auto partition = sharded.partition();
  ASSERT_TRUE(partition.has_value());
  const double v = data[sharded.shard_global_ids(
      partition->vantage_shard)[partition->vantage_local]][0];
  const Scan scan(data, L2());
  std::size_t touched = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const Sharded::Shell& shell = partition->shells[s];
    for (const double sign : {-1.0, 1.0}) {
      for (const double r : {0.0, 1.0, 2.0, 3.0}) {
        // (query, the point the ball touches at distance r)
        std::vector<std::pair<double, double>> cases = {
            {v + sign * (shell.hi + r), v + sign * shell.hi}};
        if (shell.lo >= r) {
          cases.emplace_back(v + sign * (shell.lo - r), v + sign * shell.lo);
        }
        for (const auto& [at, touches] : cases) {
          const Vector q{at};
          const std::string what = "shell " + std::to_string(s) + " q=" +
                                   std::to_string(at) +
                                   " r=" + std::to_string(r);
          const auto want = scan.RangeSearch(q, r);
          const bool stored = touches >= 0.0 && touches < 40.0;
          touched += stored ? 1 : 0;
          EXPECT_EQ(std::any_of(want.begin(), want.end(),
                                [&](const Neighbor& n) {
                                  return n.distance == r &&
                                         data[n.id][0] == touches;
                                }),
                    stored)
              << what;
          SearchStats serial;
          core::SearchContext pooled{.pool = &pool};
          const Request request{.object = q, .radius = r};
          EXPECT_EQ(core::Answer(sharded, request, &serial), want) << what;
          ExpectSameSearch(core::Answer(sharded, request, pooled), want,
                           pooled.stats, serial, "pooled " + what);
        }
      }
    }
  }
  EXPECT_GT(touched, 32u);  // most touched points are stored ones
}

TEST(ShardedIndexTest, KLargerThanSizeReturnsEverything) {
  const auto data = Clustered(300, 6, 8);
  const Sharded sharded = BuildSharded(data, 4);
  const Scan scan(data, L2());
  const Vector q(6, 0.4);
  const auto all = sharded.KnnSearch(q, 1000);
  EXPECT_EQ(all.size(), data.size());
  EXPECT_EQ(all, scan.KnnSearch(q, 1000));
  EXPECT_TRUE(sharded.KnnSearch(q, 0).empty());
}

TEST(ShardedIndexTest, AdaptiveShardCountScalesWithDataAndCores) {
  // Small datasets never over-shard: below one shard's worth of objects
  // the answer is a single tree, regardless of core count.
  EXPECT_EQ(Sharded::AdaptiveShardCount(0, 16), 1u);
  EXPECT_EQ(Sharded::AdaptiveShardCount(Sharded::kMinObjectsPerShard - 1, 16),
            1u);
  // The data-size bound: ~one shard per kMinObjectsPerShard objects until
  // the core count caps it.
  EXPECT_EQ(Sharded::AdaptiveShardCount(2 * Sharded::kMinObjectsPerShard, 16),
            2u);
  // The core bound: plenty of data uses every core...
  EXPECT_EQ(Sharded::AdaptiveShardCount(1'000'000, 8), 8u);
  // ...up to the global clamp.
  EXPECT_EQ(Sharded::AdaptiveShardCount(100'000'000, 1024),
            Sharded::kMaxAdaptiveShards);
  // hardware_concurrency may report 0; that is one core, not zero shards.
  EXPECT_EQ(Sharded::AdaptiveShardCount(1'000'000, 0), 1u);
}

TEST(ShardedIndexTest, DefaultOptionsResolveAdaptively) {
  // num_shards = 0 (the default) resolves from dataset size and cores at
  // Build time, and the resolved count is recorded in options()/
  // build_params() so snapshots round-trip the real value.
  const auto data = dataset::UniformVectors(100, 4, 3);
  const auto built = Sharded::Build(data, L2(), Sharded::Options{});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().num_shards(), 1u);  // 100 objects: one shard
  EXPECT_EQ(built.value().options().num_shards, 1u);
  EXPECT_EQ(built.value().build_params().num_shards, 1u);

  // Results are still bit-identical to the unsharded tree.
  const auto plain = Plain::Build(data, L2(), {}).ValueOrDie();
  const Vector q(4, 0.5);
  EXPECT_EQ(built.value().KnnSearch(q, 7), plain.KnnSearch(q, 7));
}

TEST(ShardedIndexTest, SearchStatsAccumulateAcrossShards) {
  const auto data = dataset::UniformVectors(2000, 8, 31);
  const Sharded sharded = BuildSharded(data, 4);
  SearchStats stats;
  (void)sharded.RangeSearch(Vector(8, 0.5), 0.5, &stats);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GT(stats.nodes_visited, 0u);
  // The query ball meets several shells: at least one node per shard.
  EXPECT_GE(stats.nodes_visited, 4u);
}

TEST(ShardedIndexTest, BuildParamsFlattenOptions) {
  Sharded::Options options;
  options.num_shards = 5;
  options.tree.order = 4;
  options.tree.leaf_capacity = 11;
  options.tree.num_path_distances = 6;
  options.tree.seed = 99;
  options.tree.store_exact_bounds = true;
  const auto built =
      Sharded::Build(dataset::UniformVectors(50, 4, 7), L2(), options);
  ASSERT_TRUE(built.ok());
  const Sharded::BuildParams params = built.value().build_params();
  EXPECT_EQ(params.num_shards, 5u);
  EXPECT_EQ(params.order, 4);
  EXPECT_EQ(params.leaf_capacity, 11);
  EXPECT_EQ(params.num_path_distances, 6);
  EXPECT_EQ(params.seed, 99u);
  EXPECT_TRUE(params.store_exact_bounds);
  EXPECT_EQ(params, built.value().build_params());  // == is usable
}

/// The partition invariant: each shard's id map is ascending, together
/// they are a permutation of the global ids, shard s holds the ranks
/// [n·s/K, n·(s+1)/K) of (d(v, x), id), and every object lies within its
/// shard's shell. Building it costs n distances more than the trees.
TEST(ShardedIndexTest, ShardsAreShellsAroundTheVantagePoint) {
  for (const bool clustered : {false, true}) {
    const auto data = clustered ? Clustered(2003, 8, 19)
                                : dataset::UniformVectors(2003, 8, 19);
    const Sharded sharded = BuildSharded(data, 4);
    const auto partition = sharded.partition();
    ASSERT_TRUE(partition.has_value());
    ASSERT_EQ(partition->shells.size(), 4u);
    const auto v_ids = sharded.shard_global_ids(partition->vantage_shard);
    ASSERT_LT(partition->vantage_local, v_ids.size());
    const Vector& v = data[v_ids[partition->vantage_local]];

    std::vector<bool> seen(data.size(), false);
    std::size_t rank = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto ids = sharded.shard_global_ids(s);
      EXPECT_EQ(ids.size(), 2003 * (s + 1) / 4 - 2003 * s / 4);
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      const Sharded::Shell& shell = partition->shells[s];
      EXPECT_LE(shell.lo, shell.hi);
      if (s > 0) {
        EXPECT_LE(partition->shells[s - 1].hi, shell.lo);
      }
      for (std::size_t local = 0; local < ids.size(); ++local) {
        ASSERT_LT(ids[local], data.size());
        EXPECT_FALSE(seen[ids[local]]);
        seen[ids[local]] = true;
        const double d = L2()(v, data[ids[local]]);
        EXPECT_GE(d, shell.lo);
        EXPECT_LE(d, shell.hi);
        // The tree's object `local` is the input object ids[local].
        EXPECT_EQ(Vector(sharded.shard(s).object(local)), data[ids[local]]);
      }
      rank += ids.size();
    }
    EXPECT_EQ(rank, data.size());
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));

    std::uint64_t trees = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      trees += sharded.shard(s).Stats().construction_distance_computations;
    }
    EXPECT_EQ(sharded.Stats().construction_distance_computations,
              trees + data.size());
  }
}

/// Heap, flat, LoadSharded (both layouts), the dynamic overlay and the
/// network path serve one partitioned generation with identical results
/// and all four SearchStats counters. The heap store holds the MVPT stream
/// layout (index kind 1) that earlier releases wrote, so LoadSharded and
/// the overlay's base run the legacy read path.
TEST(ShardedIndexTest, EveryServingPathAgreesExactly) {
  const auto data = Clustered(1500, 8, 61);
  const auto queries = NearData(data, 125);
  const Sharded built = BuildSharded(data, 4);
  const std::string dir = ::testing::TempDir() + "/sharded_paths";
  std::filesystem::remove_all(dir);
  snapshot::SnapshotStore heap_store(dir + "/heap");
  snapshot::SnapshotStore flat_store(dir + "/flat");
  ASSERT_NO_FATAL_FAILURE(snapshot::WriteHeapGeneration(dir + "/heap", built));
  ASSERT_TRUE(flat_store.SaveFlat(built).ok());
  auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
  auto flat = flat_store.OpenFlat(L2());
  auto loaded_flat = flat_store.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_TRUE(loaded_flat.ok()) << loaded_flat.status().ToString();
  EXPECT_EQ(heap.value().manifest.index_kind,
            snapshot::IndexKind::kShardedMvpIndex);
  EXPECT_EQ(loaded_flat.value().manifest.index_kind,
            snapshot::IndexKind::kFlatShardedMvpIndex);
  EXPECT_EQ(heap.value().index.partition(), built.partition());
  EXPECT_EQ(flat.value().index.partition(), built.partition());
  using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;
  auto overlay = Overlay::Open(dir + "/heap", L2(), VectorCodec());
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();

  net::ServerOptions server_options;
  server_options.threads = 2;
  net::CollectionOptions collection;
  collection.name = "vecs";
  collection.dir = dir + "/flat";
  server_options.collections.push_back(collection);
  auto server = net::Server::Start(std::move(server_options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = net::Client::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<const Sharded*> indexes = {
      &heap.value().index, &flat.value().index, &loaded_flat.value().index};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Vector& q = queries[i];
    for (const bool knn : {false, true}) {
      const std::string what =
          std::string(knn ? "knn" : "range") + " query " + std::to_string(i);
      SearchStats want_stats;
      const auto want = knn ? built.KnnSearch(q, 10, &want_stats)
                            : built.RangeSearch(q, 0.15, &want_stats);
      for (const Sharded* index : indexes) {
        SearchStats got_stats;
        const auto got = knn ? index->KnnSearch(q, 10, &got_stats)
                             : index->RangeSearch(q, 0.15, &got_stats);
        ExpectSameSearch(got, want, got_stats, want_stats, what);
      }
      SearchStats over_stats;
      const auto over = knn ? overlay.value()->KnnSearch(q, 10, &over_stats)
                            : overlay.value()->RangeSearch(q, 0.15, &over_stats);
      ExpectSameSearch(over, want, over_stats, want_stats, what + " overlay");

      net::WireQuery wire;
      wire.kind = knn ? 1 : 0;
      wire.k = 10;
      wire.radius = 0.15;
      wire.point = q;
      auto remote = client.value().Query("vecs", wire);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ExpectSameSearch(remote.value().neighbors, want, remote.value().search,
                       want_stats, what + " remote");
    }
  }
  server.value()->Stop();
  overlay.value().reset();
  std::filesystem::remove_all(dir);
}

/// Budget-cut and deadline-cut searches serve partial answers that stay
/// valid: range hits are a subset of the full answer, and k-NN hits are
/// distinct stored objects at their true distances, at most k of them.
TEST(ShardedIndexTest, PartialAnswersStayValid) {
  const auto data = Clustered(3000, 8, 71);
  const Sharded sharded = BuildSharded(data, 4);
  const auto points = NearData(data, 300);
  std::size_t partial = 0;
  for (const std::uint64_t budget : {1u, 2u, 40u, 200u, 700u}) {
    std::vector<BatchQuery<Vector>> batch;
    for (const Vector& p : points) {
      BatchQuery<Vector> range;
      range.object = p;
      range.radius = 0.3;
      range.max_distance_computations = budget;
      batch.push_back(range);
      BatchQuery<Vector> knn = range;
      knn.kind = BatchQuery<Vector>::Kind::kKnn;
      knn.k = 10;
      batch.push_back(knn);
    }
    const auto outcomes = RunBatch(sharded, batch, nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& out = outcomes[i];
      const auto& q = batch[i];
      if (!out.status.ok()) {
        ++partial;
        EXPECT_TRUE(out.partial);
        EXPECT_LE(out.distance_computations, budget + 64);
      }
      if (q.kind == BatchQuery<Vector>::Kind::kRange) {
        const auto full = sharded.RangeSearch(q.object, q.radius);
        EXPECT_TRUE(std::includes(full.begin(), full.end(),
                                  out.neighbors.begin(), out.neighbors.end(),
                                  NeighborLess))
            << "budget " << budget;
      } else {
        EXPECT_LE(out.neighbors.size(), q.k);
        for (std::size_t j = 0; j < out.neighbors.size(); ++j) {
          const Neighbor& n = out.neighbors[j];
          ASSERT_LT(n.id, data.size());
          EXPECT_EQ(n.distance, L2()(q.object, data[n.id]));
          if (j > 0) {
            EXPECT_NE(n.id, out.neighbors[j - 1].id);
          }
        }
        EXPECT_TRUE(std::is_sorted(out.neighbors.begin(), out.neighbors.end(),
                                   NeighborLess));
        if (out.status.ok()) {
          EXPECT_EQ(out.neighbors, sharded.KnnSearch(q.object, q.k));
        }
      }
    }
  }
  EXPECT_GT(partial, 0u);  // the budgets did cut searches short
}

/// L2 that can stall each evaluation, so a deadline fires mid-search.
class StallingL2 {
 public:
  StallingL2() : stall_us_(std::make_shared<std::atomic<int>>(0)) {}
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    const int stall = stall_us_->load(std::memory_order_relaxed);
    if (stall > 0) std::this_thread::sleep_for(std::chrono::microseconds(stall));
    return L2()(a, b);
  }
  void set_stall_us(int us) const {
    stall_us_->store(us, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<int>> stall_us_;
};

TEST(ShardedIndexTest, DeadlinePartialKnnAnswerStaysValid) {
  const auto data = Clustered(2000, 8, 73);
  StallingL2 metric;
  ShardedMvpIndex<Vector, StallingL2>::Options options;
  options.num_shards = 4;
  const auto index =
      ShardedMvpIndex<Vector, StallingL2>::Build(data, metric, options)
          .ValueOrDie();
  BatchQuery<Vector> q;
  q.kind = BatchQuery<Vector>::Kind::kKnn;
  q.object = Vector(8, 0.5);
  q.k = 20;
  q.timeout = std::chrono::milliseconds(5);
  metric.set_stall_us(200);
  const auto outcomes = RunBatch(index, std::vector<BatchQuery<Vector>>{q},
                                 nullptr);
  metric.set_stall_us(0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(outcomes[0].partial);
  EXPECT_LE(outcomes[0].neighbors.size(), q.k);
  for (const Neighbor& n : outcomes[0].neighbors) {
    ASSERT_LT(n.id, data.size());
    EXPECT_EQ(n.distance, L2()(q.object, data[n.id]));
  }
}

TEST(ShardedIndexTest, RestoreRebuildsIdenticalIndex) {
  const auto data = dataset::UniformVectors(120, 4, 13);
  const Sharded original = BuildSharded(data, 3);
  auto restored = Sharded::Restore(original.options(), PartsOf(original),
                                   original.partition());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().size(), original.size());
  EXPECT_EQ(restored.value().partition(), original.partition());

  const Vector q(4, 0.5);
  SearchStats a, b, c, d;
  ExpectSameSearch(restored.value().RangeSearch(q, 1.0, &a),
                   original.RangeSearch(q, 1.0, &b), a, b, "range");
  ExpectSameSearch(restored.value().KnnSearch(q, 7, &c),
                   original.KnnSearch(q, 7, &d), c, d, "knn");
}

/// A round-robin generation (no partition) keeps the residue-class check.
TEST(ShardedIndexTest, RestoreRejectsBrokenPartition) {
  const auto data = dataset::UniformVectors(30, 4, 17);

  // Id maps swapped between shards: ids land in the wrong residue class.
  auto swapped = RoundRobinParts(data, 2);
  std::swap(swapped[0].second, swapped[1].second);
  EXPECT_EQ(Sharded::Restore(OptionsWithShards(2), std::move(swapped))
                .status()
                .code(),
            StatusCode::kCorruption);

  // Wrong shard count.
  EXPECT_EQ(Sharded::Restore(OptionsWithShards(2), {}).status().code(),
            StatusCode::kCorruption);

  // Id map shorter than its tree.
  auto parts = RoundRobinParts(data, 2);
  parts[0].second.pop_back();
  EXPECT_EQ(Sharded::Restore(OptionsWithShards(2), std::move(parts))
                .status()
                .code(),
            StatusCode::kCorruption);

  // The intact round-robin parts restore with unbounded shells and answer
  // exactly.
  auto legacy = Sharded::Restore(OptionsWithShards(2), RoundRobinParts(data, 2));
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_FALSE(legacy.value().partition().has_value());
  const Scan scan(data, L2());
  const Vector q(4, 0.5);
  EXPECT_EQ(legacy.value().KnnSearch(q, 6), scan.KnnSearch(q, 6));
  EXPECT_EQ(legacy.value().RangeSearch(q, 0.6), scan.RangeSearch(q, 0.6));
}

/// A partitioned generation's metadata is validated at Restore: v must
/// name a stored object, every shell must be ordered and NaN-free, and
/// the id maps must be ascending and a permutation.
TEST(ShardedIndexTest, RestoreRejectsMalformedPartition) {
  const auto data = dataset::UniformVectors(60, 4, 23);
  const Sharded original = BuildSharded(data, 3);
  const Sharded::Partition good = *original.partition();
  const auto restore = [&](const Sharded::Partition& partition,
                           std::vector<Part> parts) {
    return Sharded::Restore(original.options(), std::move(parts), partition)
        .status()
        .code();
  };
  ASSERT_EQ(restore(good, PartsOf(original)), StatusCode::kOk);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  auto bad = good;
  bad.vantage_shard = 3;
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);
  bad = good;
  bad.vantage_local = original.shard_global_ids(good.vantage_shard).size();
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);
  bad = good;
  bad.shells[1] = {bad.shells[1].hi + 1.0, bad.shells[1].hi};
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);
  bad = good;
  bad.shells[2].lo = nan;
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);
  bad = good;
  bad.shells[0].hi = nan;
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);
  bad = good;
  bad.shells.pop_back();
  EXPECT_EQ(restore(bad, PartsOf(original)), StatusCode::kCorruption);

  auto descending = PartsOf(original);
  std::swap(descending[1].second[0], descending[1].second[1]);
  EXPECT_EQ(restore(good, std::move(descending)), StatusCode::kCorruption);
  auto duplicate = PartsOf(original);
  duplicate[2].second.back() = duplicate[0].second.back();
  std::sort(duplicate[2].second.begin(), duplicate[2].second.end());
  EXPECT_EQ(restore(good, std::move(duplicate)), StatusCode::kCorruption);
  auto out_of_range = PartsOf(original);
  out_of_range[0].second.back() = data.size();
  EXPECT_EQ(restore(good, std::move(out_of_range)), StatusCode::kCorruption);
}

}  // namespace
}  // namespace mvp::serve
