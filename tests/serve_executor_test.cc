// Batch executor semantics: result fidelity against direct searches,
// per-query deadline enforcement (zero-budget queries never touch the
// index; expiry mid-search cancels cooperatively, reports DeadlineExceeded,
// and harvests the partial answer found so far), the distance-computation
// budget degrading the same way, the rejection of malformed queries,
// distance accounting, and the serving stats sink — including the
// lock-free latency histogram.

#include "serve/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace mvp::serve {
namespace {

using metric::L2;
using metric::Vector;
using Query = BatchQuery<Vector>;
using Overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>;

/// L2 with a switchable per-evaluation stall: fast during Build, slow
/// during the deadline tests so a search reliably outlives a deadline.
class ThrottledL2 {
 public:
  ThrottledL2() : stall_us_(std::make_shared<std::atomic<int>>(0)) {}

  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    const int stall = stall_us_->load(std::memory_order_relaxed);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall));
    }
    return inner_(a, b);
  }

  void set_stall_us(int us) const {
    stall_us_->store(us, std::memory_order_relaxed);
  }

 private:
  L2 inner_;
  std::shared_ptr<std::atomic<int>> stall_us_;
};

std::vector<Query> MakeRangeBatch(const std::vector<Vector>& queries,
                                  double radius) {
  std::vector<Query> batch;
  for (const auto& q : queries) {
    Query bq;
    bq.kind = Query::Kind::kRange;
    bq.object = q;
    bq.radius = radius;
    batch.push_back(bq);
  }
  return batch;
}

TEST(ExecutorTest, BatchResultsMatchDirectSearches) {
  const auto data = dataset::UniformVectors(3000, 8, 5);
  const auto queries = dataset::UniformQueryVectors(16, 8, 6);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 3;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto plain = core::MvpTree<Vector, L2>::Build(data, L2(), {})
                         .ValueOrDie();

  auto batch = MakeRangeBatch(queries, 0.5);
  // Mix in k-NN queries.
  for (const auto& q : queries) {
    Query bq;
    bq.kind = Query::Kind::kKnn;
    bq.object = q;
    bq.k = 15;
    batch.push_back(bq);
  }

  ThreadPool pool(4);
  const auto outcomes = RunBatch(index, batch, &pool);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(outcomes[i].status.ok());
    EXPECT_EQ(outcomes[i].neighbors, plain.RangeSearch(queries[i], 0.5));
    const auto& knn = outcomes[queries.size() + i];
    EXPECT_TRUE(knn.status.ok());
    EXPECT_EQ(knn.neighbors, plain.KnnSearch(queries[i], 15));
    EXPECT_GT(outcomes[i].distance_computations, 0u);
    EXPECT_GT(outcomes[i].latency.count(), 0);
  }
}

TEST(ExecutorTest, SerialAndParallelExecutionAgree) {
  const auto data = dataset::UniformVectors(2000, 8, 9);
  const auto queries = dataset::UniformQueryVectors(12, 8, 10);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 4;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  auto batch = MakeRangeBatch(queries, 0.4);
  // k-NN too: it searches its shards serially, so parallel_shards must
  // leave its answers and counts as they are.
  for (const auto& q : queries) {
    Query bq;
    bq.kind = Query::Kind::kKnn;
    bq.object = q;
    bq.k = 10;
    batch.push_back(bq);
  }

  ThreadPool pool(4);
  const auto serial = RunBatch(index, batch, /*pool=*/nullptr);
  const auto parallel = RunBatch(index, batch, &pool);
  ExecutorOptions shard_parallel;
  shard_parallel.parallel_shards = true;
  const auto nested = RunBatch(index, batch, &pool, nullptr, shard_parallel);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(serial[i].neighbors, parallel[i].neighbors);
    EXPECT_EQ(serial[i].neighbors, nested[i].neighbors);
    EXPECT_EQ(serial[i].distance_computations,
              parallel[i].distance_computations);
    EXPECT_EQ(serial[i].distance_computations,
              nested[i].distance_computations);
  }
}

/// A dynamic overlay in its own directory, removed with it: `data`'s first
/// `base` objects compacted into a 3-shard base with every fourth of them
/// erased, and the rest inserted into the memtable, 16 to its buffer, so
/// the memtable holds tree levels and a part-filled buffer.
struct ChurnedOverlay {
  ChurnedOverlay(const std::string& name, const std::vector<Vector>& data,
                 std::size_t base)
      : dir(::testing::TempDir() + "/executor_" + name) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Overlay::Options options;
    options.memtable.buffer_capacity = 16;
    options.rebuild.num_shards = 3;
    auto opened = Overlay::Open(dir, L2(), VectorCodec{}, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    overlay = std::move(opened).ValueOrDie();
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (i == base) {
        EXPECT_TRUE(overlay->Compact().ok());
      }
      EXPECT_TRUE(overlay->Insert(data[i]).ok());
    }
    for (std::size_t id = 0; id < base; id += 4) {
      EXPECT_TRUE(overlay->Erase(id).ok());
    }
  }
  ~ChurnedOverlay() {
    overlay.reset();
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  std::unique_ptr<Overlay> overlay;
};

/// The same agreement over a dynamic overlay whose base has tombstones and
/// whose memtable is not empty. With parallel_shards the executor's pool
/// reaches the overlay, which must search its base without it (it holds
/// its lock meanwhile); the batch has more queries than the pool has
/// threads, so pooled queries run beside each other on the same overlay.
TEST(ExecutorTest, OverlaySerialAndParallelExecutionAgree) {
  const auto data = dataset::UniformVectors(1200, 8, 21);
  const auto queries = dataset::UniformQueryVectors(12, 8, 22);
  const ChurnedOverlay churned("overlay_agree", data, 900);
  const Overlay& overlay = *churned.overlay;
  ASSERT_GT(overlay.tombstone_count(), 0u);
  ASSERT_GT(overlay.memtable_size(), 0u);
  auto batch = MakeRangeBatch(queries, 0.4);
  for (const auto& q : queries) {
    Query bq;
    bq.kind = Query::Kind::kKnn;
    bq.object = q;
    bq.k = 10;
    batch.push_back(bq);
  }

  ThreadPool pool(4);
  ASSERT_GT(batch.size(), pool.num_threads());
  const auto serial = RunBatch(overlay, batch, /*pool=*/nullptr);
  const auto parallel = RunBatch(overlay, batch, &pool);
  ExecutorOptions shard_parallel;
  shard_parallel.parallel_shards = true;
  const auto nested = RunBatch(overlay, batch, &pool, nullptr, shard_parallel);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    EXPECT_EQ(serial[i].neighbors,
              i < queries.size()
                  ? overlay.RangeSearch(batch[i].object, 0.4)
                  : overlay.KnnSearch(batch[i].object, 10));
    EXPECT_EQ(serial[i].neighbors, parallel[i].neighbors);
    EXPECT_EQ(serial[i].neighbors, nested[i].neighbors);
    EXPECT_EQ(serial[i].distance_computations,
              parallel[i].distance_computations);
    EXPECT_EQ(serial[i].distance_computations,
              nested[i].distance_computations);
  }
}

/// A k = 0 query asks for nothing and pays for nothing, on every index the
/// executor serves: the overlay's memtable included, whose buffer holds
/// inserts that a scan would otherwise measure.
TEST(ExecutorTest, ZeroKQueriesComputeNoDistances) {
  const auto data = dataset::UniformVectors(600, 8, 23);
  const ChurnedOverlay churned("zero_k", data, 500);
  ASSERT_GT(churned.overlay->memtable_size(), 0u);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 3;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto tree = core::MvpTree<Vector, L2>::Build(data, L2(), {})
                        .ValueOrDie();
  Query q;
  q.kind = Query::Kind::kKnn;
  q.object = data[3];
  q.k = 0;
  const std::vector<Query> batch{q};
  for (const auto& outcomes :
       {RunBatch(*churned.overlay, batch, nullptr),
        RunBatch(index, batch, nullptr), RunBatch(tree, batch, nullptr)}) {
    ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
    EXPECT_TRUE(outcomes[0].neighbors.empty());
    EXPECT_EQ(outcomes[0].distance_computations, 0u);
  }
}

TEST(ExecutorTest, ZeroTimeoutQueriesNeverRun) {
  const auto data = dataset::UniformVectors(1000, 8, 11);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();

  auto batch = MakeRangeBatch(dataset::UniformQueryVectors(6, 8, 12), 0.5);
  for (auto& q : batch) q.timeout = std::chrono::nanoseconds(0);
  ThreadPool pool(2);
  ServeStats stats;
  const auto outcomes = RunBatch(index, batch, &pool, &stats);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(out.neighbors.empty());
    EXPECT_EQ(out.distance_computations, 0u);  // the index was never touched
  }
  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.deadline_exceeded, batch.size());
  EXPECT_EQ(snap.ok, 0u);
  EXPECT_EQ(snap.distance_computations, 0u);
}

TEST(ExecutorTest, DeadlineExpiryMidSearchHarvestsPartialResults) {
  const auto data = dataset::UniformVectors(1500, 8, 13);
  ThrottledL2 throttled;
  ShardedMvpIndex<Vector, ThrottledL2>::Options options;
  options.num_shards = 2;
  const auto index = ShardedMvpIndex<Vector, ThrottledL2>::Build(
                         data, throttled, options)
                         .ValueOrDie();
  // The full answer, for subset verification (fast metric, no stall).
  const auto queries = dataset::UniformQueryVectors(1, 8, 14);
  const auto full = index.RangeSearch(queries[0], 0.6);

  // ~200us per distance computation: a full search (hundreds of
  // evaluations) takes far longer than the 10ms budget, so the deadline
  // must fire mid-search. Run serially — the query then starts the moment
  // the batch does, so "began searching, then was cancelled" is
  // deterministic even on a loaded single-core machine.
  throttled.set_stall_us(200);

  auto batch = MakeRangeBatch(queries, 0.6);
  for (auto& q : batch) q.timeout = std::chrono::milliseconds(10);
  ServeStats stats;
  const auto outcomes = RunBatch(index, batch, /*pool=*/nullptr, &stats);
  throttled.set_stall_us(0);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(out.partial);                  // degraded, not discarded
    EXPECT_GT(out.distance_computations, 0u);  // it did start searching
    EXPECT_LT(out.distance_computations, 1500u);  // and was cut short
    // Every harvested neighbor is a true answer: it passed the exact
    // d <= r test before the cut, so the harvest is a subset of the full
    // result set, sorted the same way.
    EXPECT_LE(out.neighbors.size(), full.size());
    EXPECT_TRUE(std::is_sorted(out.neighbors.begin(), out.neighbors.end(),
                               NeighborLess));
    EXPECT_TRUE(std::includes(full.begin(), full.end(),
                              out.neighbors.begin(), out.neighbors.end(),
                              NeighborLess));
  }
  const auto snap = stats.Snapshot();
  // Disjoint outcome classes: a harvest-bearing expiry counts as partial,
  // not as deadline_exceeded (that class is for dead-on-arrival queries).
  EXPECT_EQ(snap.partial, batch.size());
  EXPECT_EQ(snap.deadline_exceeded, 0u);
}

TEST(ExecutorTest, DistanceBudgetDegradesToPartialResults) {
  const auto data = dataset::UniformVectors(4000, 8, 23);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto queries = dataset::UniformQueryVectors(4, 8, 24);
  const auto unbounded = RunBatch(index, MakeRangeBatch(queries, 0.6),
                                  /*pool=*/nullptr);

  auto batch = MakeRangeBatch(queries, 0.6);
  for (auto& q : batch) q.max_distance_computations = 256;
  ServeStats stats;
  const auto outcomes = RunBatch(index, batch, /*pool=*/nullptr, &stats);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    ASSERT_GT(unbounded[i].distance_computations, 256u)
        << "query too easy to exercise the budget";
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(out.status.message().find("distance budget"), std::string::npos);
    EXPECT_TRUE(out.partial);
    // The budget is enforced at stride boundaries (serially: one frame),
    // so the overshoot is bounded by one check stride.
    EXPECT_GE(out.distance_computations, 256u);
    EXPECT_LE(out.distance_computations, 256u + 64u);
    // Partial range answers are a subset of the unbounded answer.
    EXPECT_TRUE(std::includes(unbounded[i].neighbors.begin(),
                              unbounded[i].neighbors.end(),
                              out.neighbors.begin(), out.neighbors.end(),
                              NeighborLess));
  }
  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.partial, batch.size());
  EXPECT_EQ(snap.deadline_exceeded, 0u);

  // The same budget over an overlay whose objects all sit in its memtable,
  // plus one 10-NN query: the memtable's buffer and trees evaluate through
  // CancelChecked too, so the budget cuts them.
  const ChurnedOverlay churned("budget", data, 0);
  ASSERT_EQ(churned.overlay->memtable_size(), data.size());
  auto overlay_batch = MakeRangeBatch(queries, 0.6);
  Query knn;
  knn.kind = Query::Kind::kKnn;
  knn.object = queries[0];
  knn.k = 10;
  overlay_batch.push_back(knn);
  const auto overlay_unbounded =
      RunBatch(*churned.overlay, overlay_batch, /*pool=*/nullptr);
  for (auto& q : overlay_batch) q.max_distance_computations = 256;
  const auto overlay_outcomes =
      RunBatch(*churned.overlay, overlay_batch, /*pool=*/nullptr);
  for (std::size_t i = 0; i < overlay_outcomes.size(); ++i) {
    const auto& out = overlay_outcomes[i];
    ASSERT_GT(overlay_unbounded[i].distance_computations, 256u)
        << "query too easy to exercise the budget";
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded) << i;
    EXPECT_TRUE(out.partial) << i;
    EXPECT_GE(out.distance_computations, 256u) << i;
    EXPECT_LE(out.distance_computations, 256u + 64u) << i;
    if (i < queries.size()) {
      EXPECT_TRUE(std::includes(overlay_unbounded[i].neighbors.begin(),
                                overlay_unbounded[i].neighbors.end(),
                                out.neighbors.begin(), out.neighbors.end(),
                                NeighborLess))
          << i;
    }
  }
}

TEST(ExecutorTest, DegradedOutcomeClassesFoldIntoStatsDisjointly) {
  const auto data = dataset::UniformVectors(3000, 8, 25);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();

  // 3 healthy + 3 shed-at-start (zero timeout) + 3 budget-degraded.
  auto batch = MakeRangeBatch(dataset::UniformQueryVectors(9, 8, 26), 0.6);
  for (std::size_t i = 3; i < 6; ++i) {
    batch[i].timeout = std::chrono::nanoseconds(0);
  }
  for (std::size_t i = 6; i < 9; ++i) {
    batch[i].max_distance_computations = 128;
  }
  ServeStats stats;
  const auto outcomes = RunBatch(index, batch, /*pool=*/nullptr, &stats);

  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 9u);
  EXPECT_EQ(snap.ok, 3u);
  EXPECT_EQ(snap.deadline_exceeded, 3u);  // expired before any search work
  EXPECT_EQ(snap.partial, 3u);            // budget-degraded, harvest served
  EXPECT_EQ(snap.shed, 0u);
  EXPECT_EQ(snap.ok + snap.partial + snap.deadline_exceeded + snap.shed,
            snap.queries);
  // Degraded latencies (everything that was not a complete OK answer) have
  // their own histogram: 3 zero-timeout + 3 budget-cut queries.
  EXPECT_EQ(stats.degraded_latency().count(), 6u);
  for (std::size_t i = 6; i < 9; ++i) {
    EXPECT_TRUE(outcomes[i].partial);
  }
}

TEST(ExecutorTest, MixedDeadlinesAreEnforcedPerQuery) {
  const auto data = dataset::UniformVectors(1500, 8, 15);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto plain =
      core::MvpTree<Vector, L2>::Build(data, L2(), {}).ValueOrDie();

  auto batch = MakeRangeBatch(dataset::UniformQueryVectors(8, 8, 16), 0.5);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].timeout = (i % 2 == 0) ? std::chrono::seconds(30)
                                    : std::chrono::nanoseconds(0);
  }
  ThreadPool pool(3);
  const auto outcomes = RunBatch(index, batch, &pool);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(outcomes[i].status.ok());
      EXPECT_EQ(outcomes[i].neighbors,
                plain.RangeSearch(batch[i].object, 0.5));
    } else {
      EXPECT_EQ(outcomes[i].status.code(), StatusCode::kDeadlineExceeded);
    }
  }
}

TEST(ExecutorTest, StatsAggregateAcrossBatch) {
  const auto data = dataset::UniformVectors(2000, 8, 17);
  const auto queries = dataset::UniformQueryVectors(20, 8, 18);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto batch = MakeRangeBatch(queries, 0.5);
  ThreadPool pool(4);
  ServeStats stats;
  const auto outcomes = RunBatch(index, batch, &pool, &stats);

  std::uint64_t distances = 0, results = 0;
  for (const auto& out : outcomes) {
    distances += out.distance_computations;
    results += out.neighbors.size();
  }
  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, batch.size());
  EXPECT_EQ(snap.ok, batch.size());
  EXPECT_EQ(snap.deadline_exceeded, 0u);
  EXPECT_EQ(snap.distance_computations, distances);
  EXPECT_EQ(snap.results_returned, results);
  EXPECT_GT(snap.p50.count(), 0);
  EXPECT_LE(snap.p50.count(), snap.p95.count());
  EXPECT_LE(snap.p95.count(), snap.p99.count());
}

/// RunBatch refuses a query the index cannot answer exactly, before any
/// search: a vector of another dimension than the collection's (without
/// the check, a 3-d query against 8-d shards is measured against a prefix
/// of each row, and a 12-d one reads past the last stored row, which ASan
/// reports), a NaN or infinite coordinate (an infinite one is at distance
/// +inf from every vantage point, where inf - inf = NaN prunes every
/// answer), and a NaN or negative range radius. Each comes back
/// InvalidArgument with no neighbors and no distance computed, serially and
/// on a pool, from a sharded index and a single tree, and the valid queries
/// batched with them answer as they do alone. An infinite radius is valid:
/// a finite query's ball then holds every point, as a linear scan says.
TEST(ExecutorTest, MalformedQueriesAreRejectedBeforeSearch) {
  const auto data = dataset::UniformVectors(600, 8, 19);
  ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 3;
  options.tree.leaf_capacity = 6;
  const auto index =
      ShardedMvpIndex<Vector, L2>::Build(data, L2(), options).ValueOrDie();
  const auto tree =
      core::MvpTree<Vector, L2>::Build(data, L2(), options.tree).ValueOrDie();
  ASSERT_EQ(index.dim(), 8u);

  const auto good = dataset::UniformQueryVectors(2, 8, 20);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Vector nan_point = good[0];
  nan_point[5] = std::numeric_limits<double>::quiet_NaN();
  Vector inf_point = good[0];
  inf_point[2] = kInf;
  Vector minus_inf_point = good[1];
  minus_inf_point[7] = -kInf;
  const auto make = [](Query::Kind kind, Vector point, double radius) {
    Query q;
    q.kind = kind;
    q.object = std::move(point);
    q.radius = radius;
    q.k = 4;
    return q;
  };
  const std::vector<Query> batch = {
      make(Query::Kind::kRange, good[0], 0.5),
      make(Query::Kind::kKnn, Vector(3, 0.5), 0.0),
      make(Query::Kind::kRange, Vector(3, 0.5), 0.5),
      make(Query::Kind::kRange, Vector(12, 0.5), 1e9),
      make(Query::Kind::kKnn, nan_point, 0.0),
      make(Query::Kind::kRange, inf_point, kInf),
      make(Query::Kind::kKnn, minus_inf_point, 0.0),
      make(Query::Kind::kRange, good[1],
           std::numeric_limits<double>::quiet_NaN()),
      make(Query::Kind::kRange, good[1], -0.25),
      make(Query::Kind::kKnn, good[1], 0.0),
  };
  const auto check = [&](const auto& target, ThreadPool* pool) {
    const auto outcomes = RunBatch(target, batch, pool);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 1; i + 1 < batch.size(); ++i) {
      EXPECT_EQ(outcomes[i].status.code(), StatusCode::kInvalidArgument)
          << "query " << i;
      EXPECT_TRUE(outcomes[i].neighbors.empty()) << "query " << i;
      EXPECT_FALSE(outcomes[i].partial) << "query " << i;
      EXPECT_EQ(outcomes[i].distance_computations, 0u) << "query " << i;
      EXPECT_EQ(outcomes[i].search.nodes_visited, 0u) << "query " << i;
    }
    for (const std::size_t i : {std::size_t{0}, batch.size() - 1}) {
      const auto alone = RunBatch(target, std::vector{batch[i]}, nullptr);
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      EXPECT_EQ(outcomes[i].neighbors, alone[0].neighbors);
      EXPECT_EQ(outcomes[i].distance_computations,
                alone[0].distance_computations);
    }
  };
  ThreadPool pool(2);
  check(index, nullptr);
  check(index, &pool);
  check(tree, nullptr);

  const auto scan_all =
      scan::LinearScan<Vector, L2>(data, L2()).RangeSearch(good[0], kInf);
  ASSERT_EQ(scan_all.size(), data.size());
  const std::vector<Query> everything = {
      make(Query::Kind::kRange, good[0], kInf)};
  for (const auto& outcomes : {RunBatch(index, everything, nullptr),
                               RunBatch(tree, everything, nullptr)}) {
    ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
    EXPECT_EQ(outcomes[0].neighbors, scan_all);
  }
}

TEST(LatencyHistogramTest, QuantilesBoundRecordedValues) {
  LatencyHistogram hist;
  // 100 samples: 90 at ~1us, 10 at ~1ms.
  for (int i = 0; i < 90; ++i) hist.Record(std::chrono::microseconds(1));
  for (int i = 0; i < 10; ++i) hist.Record(std::chrono::milliseconds(1));
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.max(), std::chrono::nanoseconds(1000000));
  // p50 lands in the ~1us bucket: its upper bound is < 3us.
  EXPECT_LT(hist.Quantile(0.5), std::chrono::microseconds(3));
  // p95 and p99 land in the ~1ms bucket: bounds in (1ms, 3ms).
  EXPECT_GE(hist.Quantile(0.95), std::chrono::milliseconds(1));
  EXPECT_LT(hist.Quantile(0.99), std::chrono::milliseconds(3));
  // Quantiles are monotone in q.
  EXPECT_LE(hist.Quantile(0.5), hist.Quantile(0.95));
  EXPECT_LE(hist.Quantile(0.95), hist.Quantile(1.0));
}

TEST(LatencyHistogramTest, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist.Record(std::chrono::nanoseconds(100 * (t + 1)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(hist.max(), std::chrono::nanoseconds(400));
}

}  // namespace
}  // namespace mvp::serve
