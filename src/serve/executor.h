#ifndef MVPTREE_SERVE_EXECUTOR_H_
#define MVPTREE_SERVE_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/query.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "metric/counting.h"
#include "serve/admission.h"
#include "serve/cancel.h"
#include "serve/serve_stats.h"
#include "serve/thread_pool.h"

/// \file
/// Batch query executor — the serving layer's front door.
///
/// `RunBatch` takes a vector of queries, each with an optional deadline
/// budget, runs them across a ThreadPool, and returns one `QueryOutcome`
/// per query in input order. Semantics:
///
///  * Deadlines are absolute from the moment the batch starts: a query's
///    deadline is batch-start + its timeout, so time spent queued behind
///    other work counts against it — exactly what load shedding needs. A
///    query whose deadline has already passed when a worker picks it up is
///    shed without touching the index (a zero timeout never runs); one
///    whose deadline expires mid-search is cancelled cooperatively at the
///    next distance computation (see serve/cancel.h).
///  * Graceful degradation: a cancelled query does not discard the work it
///    already paid for: the neighbors the index's Search had appended
///    before the cut are returned with `QueryOutcome::partial == true` and
///    status DeadlineExceeded. Range partials are a true subset of the full
///    answer (every hit passed the exact d <= r test); k-NN partials are
///    the best candidates among the points evaluated so far.
///    A per-query `max_distance_computations` budget degrades the same way.
///  * Load shedding: with `ExecutorOptions::admission` set, each query asks
///    the AdmissionController before being submitted; refused queries get
///    Status::ResourceExhausted immediately — no queueing, no index work —
///    instead of blocking the submitter unboundedly.
///  * Backpressure: at most `ThreadPool::Options::queue_capacity` query
///    tasks are queued at once; the submitting thread runs queries itself
///    while the queue is full, so submission can never outrun execution.
///  * Validation: a query the index cannot answer exactly — a range query
///    whose radius is NaN or negative, or a vector query with a NaN or
///    infinite coordinate or of another dimension than the collection's —
///    gets Status::InvalidArgument and runs no search (ValidateQuery). This
///    is the one check for the in-process and the network path alike. An
///    infinite radius is valid.
///  * Accounting: each outcome carries wall latency (batch start to
///    completion, queue time included) and the exact number of distance
///    computations the query performed, aggregated across every thread
///    that worked on it. Outcomes are optionally folded into a shared
///    `ServeStats` (ok / partial / deadline_exceeded / shed).
///
/// Each query becomes one core::SearchRequest, which the index answers in
/// `Search(request, context, out)` — MvpTree, ShardedMvpIndex and
/// DynamicOverlay do — appending unsorted into the outcome, where it stays
/// if the search is cancelled; core::Present then sorts it and trims a k-NN
/// answer to k. With `ExecutorOptions::parallel_shards` the context carries
/// the pool into a sharded index, whose range queries fan out over it (k-NN
/// searches its shards serially into one heap); a DynamicOverlay still
/// searches its base serially, since it searches under its lock and a
/// pooled fan-out may run another query on the same overlay while it
/// waits. Mid-search cancellation requires the index's distance
/// evaluations to be cancellation points, which ShardedMvpIndex guarantees
/// (its shards are built over CancelChecked metrics); an index without
/// them only honours deadlines at query start, not mid-search.
///
/// Thread-safety analysis: RunBatch owns all cross-thread state either
/// per-task (each worker touches only its own QueryOutcome slot) or as a
/// std::atomic completion counter, so there is no lock and no capability
/// to annotate; the locked components it drives (ThreadPool,
/// AdmissionController) carry the annotations instead.

namespace mvp::serve {

/// Work item for RunBatch.
template <typename Object>
struct BatchQuery {
  using Kind = core::SearchKind;

  Kind kind = Kind::kRange;
  Object object{};
  double radius = 0.0;   ///< kRange: closed-ball radius
  std::size_t k = 0;     ///< kKnn: neighbor count
  /// Deadline budget measured from batch start; default: none. Zero means
  /// the query is shed unconditionally.
  std::chrono::nanoseconds timeout = std::chrono::nanoseconds::max();
  /// Cap on metric evaluations for this query, across all threads working
  /// on it (0 = unlimited). Exceeding it degrades to a partial answer,
  /// like a deadline — the cost-bounded flavour of the same knob.
  std::uint64_t max_distance_computations = 0;
};

/// Per-query result of RunBatch.
struct QueryOutcome {
  /// OK (complete answer), DeadlineExceeded (deadline or distance budget
  /// hit; `neighbors` holds a partial answer iff `partial`), or
  /// ResourceExhausted (shed by admission control before running).
  Status status;
  /// True when `neighbors` is a degraded-but-served partial answer from a
  /// cancelled search. Never true on OK or ResourceExhausted.
  bool partial = false;
  /// Neighbors, sorted by (distance, id). Complete on OK; the harvest on
  /// partial; empty otherwise.
  std::vector<Neighbor> neighbors;
  /// Batch start to query completion, queueing included.
  std::chrono::nanoseconds latency{0};
  /// Exact metric evaluations this query performed, across all threads.
  std::uint64_t distance_computations = 0;
  /// Full per-query search statistics as reported by the index (nodes
  /// visited, leaf filtering, distance computations). Zero on shed/DOA
  /// queries that never touched the index. `search.distance_computations`
  /// is reconciled with the cancellation counter, so it always equals
  /// `distance_computations` above — the network layer ships this struct
  /// so remote callers see exactly what an in-process caller would.
  SearchStats search;
};

struct ExecutorOptions {
  /// Also fan each range query out across the shards its ball meets,
  /// through core::SearchContext::pool. k-NN never fans out: its shards
  /// offer one after another into one heap, so each prunes against the
  /// best k found so far. Lowers single-query range latency and computes
  /// the same distances as without it; for batch throughput the
  /// query-level parallelism is usually enough and cheaper.
  /// A DynamicOverlay searches its base unpooled all the same: it holds its
  /// lock while it searches, and a pooled fan-out waits by running other
  /// queued tasks, one of which may be another query on the same overlay.
  bool parallel_shards = false;
  /// When set, every query must be admitted before it runs; refusals come
  /// back as ResourceExhausted outcomes. The controller is the caller's —
  /// typically shared across many batches so in-flight bounds hold
  /// process-wide.
  AdmissionController* admission = nullptr;
};

namespace internal {

inline ServeClock::time_point DeadlineFrom(ServeClock::time_point start,
                                           std::chrono::nanoseconds timeout) {
  if (timeout >= ServeClock::time_point::max() - start) return kNoDeadline;
  return start + timeout;
}

/// OK when `index` can answer `query` exactly; otherwise InvalidArgument
/// for a range radius that is NaN or negative, and, for vector queries, a
/// NaN or infinite coordinate or a dimension other than the index's dim()
/// (when the index reports one and holds vectors, dim() != 0). Without this
/// check a query longer than the rows reads past a stored row, a shorter
/// one is measured against a prefix of each row, NaN distances break the
/// NeighborLess ordering the result sort relies on, and an infinite
/// coordinate puts the query at distance +inf from every vantage point,
/// where inf - inf = NaN fails every shell test and prunes live answers.
template <typename Index, typename Object>
Status ValidateQuery(const Index& index, const BatchQuery<Object>& query) {
  if (query.kind == BatchQuery<Object>::Kind::kRange &&
      !(query.radius >= 0.0)) {
    return Status::InvalidArgument("query radius is NaN or negative");
  }
  if constexpr (std::is_same_v<Object, std::vector<double>>) {
    for (const double x : query.object) {
      if (!std::isfinite(x)) {
        return Status::InvalidArgument(
            "query has a NaN or infinite coordinate");
      }
    }
    if constexpr (requires { index.dim(); }) {
      const std::size_t dim = index.dim();
      if (dim != 0 && query.object.size() != dim) {
        return Status::InvalidArgument(
            "query dimension " + std::to_string(query.object.size()) +
            " differs from the collection's " + std::to_string(dim));
      }
    }
  }
  return Status::OK();
}

}  // namespace internal

/// Executes `queries` against `index`, in parallel on `pool` (serially on
/// the calling thread when `pool` is null — the single-threaded baseline).
/// Returns outcomes in input order; folds them into `stats` when given.
template <typename Index, typename Object>
std::vector<QueryOutcome> RunBatch(const Index& index,
                                   const std::vector<BatchQuery<Object>>& queries,
                                   ThreadPool* pool,
                                   ServeStats* stats = nullptr,
                                   const ExecutorOptions& options = {}) {
  std::vector<QueryOutcome> outcomes(queries.size());
  const ServeClock::time_point start = ServeClock::now();
  ThreadPool* shard_pool = options.parallel_shards ? pool : nullptr;

  auto finish = [&](std::size_t i) {
    QueryOutcome& out = outcomes[i];
    out.latency = ServeClock::now() - start;
    if (stats != nullptr) {
      stats->RecordQuery(out.status, out.partial, out.latency,
                         out.distance_computations, out.neighbors.size());
    }
  };

  auto run_one = [&](std::size_t i) {
    const BatchQuery<Object>& query = queries[i];
    const core::SearchRequest<Object> request{.kind = query.kind,
                                              .object = query.object,
                                              .radius = query.radius,
                                              .k = query.k};
    QueryOutcome& out = outcomes[i];
    const ServeClock::time_point deadline =
        internal::DeadlineFrom(start, query.timeout);
    const std::uint64_t budget = query.max_distance_computations;
    metric::AtomicDistanceCounter counter;
    CancelToken token;
    core::SearchContext context{.pool = shard_pool};
    const ServeClock::time_point work_start = ServeClock::now();
    Status valid = internal::ValidateQuery(index, query);
    if (!valid.ok()) {
      out.status = std::move(valid);
    } else if (work_start >= deadline) {
      out.status = Status::DeadlineExceeded("deadline passed before search");
    } else {
      try {
        CancelScope scope(&counter, &token, deadline, budget);
        index.Search(request, context, &out.neighbors);
        out.status = Status::OK();
      } catch (const CancelledError&) {
        // The scope (and any shard scopes) flushed into `counter` during
        // the unwind, so the budget-vs-deadline attribution below sees the
        // final count.
        out.partial = true;
        if (budget > 0 && counter.count() >= budget &&
            ServeClock::now() < deadline) {
          out.status =
              Status::DeadlineExceeded("distance budget exhausted mid-search");
        } else {
          out.status = Status::DeadlineExceeded("deadline expired mid-search");
        }
      }
      core::Present(request, &out.neighbors);
    }
    // Indexes without cancellation points report through SearchStats
    // instead of the counter; on the success path of a CancelChecked index
    // the two agree exactly.
    out.distance_computations =
        std::max(counter.count(), context.stats.distance_computations);
    out.search = context.stats;
    out.search.distance_computations = out.distance_computations;
    if (options.admission != nullptr) {
      options.admission->Complete(ServeClock::now() - work_start);
    }
    finish(i);
  };

  // Admission (when configured) happens at submit time: a refused query
  // never touches the pool or the index, and its outcome is final here.
  auto admit = [&](std::size_t i) {
    if (options.admission == nullptr) return true;
    Status admitted = options.admission->TryAdmit(queries[i].timeout);
    if (admitted.ok()) return true;
    outcomes[i].status = std::move(admitted);
    finish(i);
    return false;
  };

  if (pool == nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (admit(i)) run_one(i);
    }
    return outcomes;
  }

  std::atomic<std::size_t> done{0};
  std::size_t offloaded = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!admit(i)) continue;
    const bool queued = pool->TrySubmit([&run_one, &done, i] {
      run_one(i);
      done.fetch_add(1, std::memory_order_release);
    });
    if (queued) {
      ++offloaded;
    } else {
      // Queue full: backpressure. The submitter absorbs the query itself,
      // which both sheds queue pressure and keeps submission from racing
      // ahead of execution.
      run_one(i);
    }
  }
  while (done.load(std::memory_order_acquire) < offloaded) {
    if (!pool->RunOne()) std::this_thread::yield();
  }
  return outcomes;
}

}  // namespace mvp::serve

#endif  // MVPTREE_SERVE_EXECUTOR_H_
