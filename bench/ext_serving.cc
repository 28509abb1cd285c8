// Extension: concurrent query serving. Measures the serve/ subsystem on
// the paper's §5.1.A workload (uniform 20-d vectors, L2): batch throughput
// at 1/2/4/8 worker threads, the effect of sharding (1 vs K shards), and
// tail latency — while asserting every configuration returns results
// bit-identical to a single unsharded mvp-tree. Speedups depend on the
// machine's core count; the result-equality checks do not.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "core/mvp_tree.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/executor.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/snapshot_store.h"

namespace mvp::bench {
namespace {

using metric::L2;
using metric::Vector;
using Sharded = serve::ShardedMvpIndex<Vector, L2>;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int Run() {
  const std::size_t n = QuickMode() ? 5000 : 50000;
  const std::size_t num_queries = QuickMode() ? 50 : 400;
  const double radius = 0.3;
  harness::PrintFigureHeader(
      std::cout, "Extension: concurrent serving",
      "batch throughput and tail latency of the serve/ subsystem",
      std::to_string(n) + " uniform 20-d vectors, L2, radius " +
          harness::FormatDouble(radius, 2) + ", " +
          std::to_string(num_queries) + " queries/batch" +
          (QuickMode() ? "  (quick mode)" : ""));

  const auto data = dataset::UniformVectors(n, 20, 4242);
  const auto query_points = dataset::UniformQueryVectors(num_queries, 20, 777);
  std::vector<serve::BatchQuery<Vector>> batch;
  for (const auto& q : query_points) {
    serve::BatchQuery<Vector> bq;
    bq.object = q;
    bq.radius = radius;
    batch.push_back(bq);
  }

  auto plain = core::MvpTree<Vector, L2>::Build(data, L2(), {}).ValueOrDie();
  const auto t0 = Clock::now();
  const auto baseline = serve::RunBatch(plain, batch, /*pool=*/nullptr);
  const double base_ms = MillisSince(t0);
  std::printf("baseline (unsharded tree, serial executor): %.1f ms, %.0f qps\n",
              base_ms,
              1000.0 * static_cast<double>(batch.size()) / base_ms);

  serve::ThreadPool build_pool(4);
  harness::Table table({"shards", "threads", "wall_ms", "qps", "speedup",
                        "p50_us", "p95_us", "p99_us"});
  bool all_match = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Sharded::Options options;
    options.num_shards = shards;
    const Sharded index =
        Sharded::Build(data, L2(), options, &build_pool).ValueOrDie();
    for (const std::size_t threads : {1, 2, 4, 8}) {
      serve::ThreadPool pool(threads);
      serve::ServeStats stats;
      const auto start = Clock::now();
      const auto outcomes = serve::RunBatch(index, batch, &pool, &stats);
      const double wall_ms = MillisSince(start);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].status.ok() ||
            outcomes[i].neighbors != baseline[i].neighbors) {
          all_match = false;
        }
      }
      const auto snap = stats.Snapshot();
      table.AddRow(
          {std::to_string(shards), std::to_string(threads),
           harness::FormatDouble(wall_ms, 1),
           harness::FormatDouble(
               1000.0 * static_cast<double>(batch.size()) / wall_ms, 0),
           harness::FormatDouble(base_ms / wall_ms, 2),
           harness::FormatDouble(static_cast<double>(snap.p50.count()) / 1e3,
                                 0),
           harness::FormatDouble(static_cast<double>(snap.p95.count()) / 1e3,
                                 0),
           harness::FormatDouble(static_cast<double>(snap.p99.count()) / 1e3,
                                 0)});
    }
  }
  std::cout << table.ToText();
  std::printf("results identical to the unsharded tree in every "
              "configuration: %s\n",
              all_match ? "yes" : "NO (BUG)");

  // Single-query latency with `parallel_shards`: each query runs alone on a
  // 4-thread pool, so a range query searches the shards its ball meets side
  // by side, while k-NN (k = 10) walks the shards nearest shell first under
  // one shared bound.
  {
    Sharded::Options options;
    options.num_shards = 4;
    const Sharded index =
        Sharded::Build(data, L2(), options, &build_pool).ValueOrDie();
    serve::ThreadPool pool(4);
    serve::ExecutorOptions exec;
    exec.parallel_shards = true;
    harness::Table latency({"query", "p50_us", "p99_us", "dist/query"});
    for (const bool knn : {false, true}) {
      std::vector<double> us;
      std::uint64_t dists = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        std::vector<serve::BatchQuery<Vector>> one{batch[i]};
        if (knn) {
          one[0].kind = serve::BatchQuery<Vector>::Kind::kKnn;
          one[0].k = 10;
        }
        const auto start = Clock::now();
        const auto out = serve::RunBatch(index, one, &pool, nullptr, exec);
        us.push_back(MillisSince(start) * 1e3);
        dists += out[0].distance_computations;
        all_match = all_match &&
                    out[0].neighbors == (knn ? plain.KnnSearch(one[0].object, 10)
                                             : baseline[i].neighbors);
      }
      std::sort(us.begin(), us.end());
      latency.AddRow(
          {knn ? "10-NN" : "range", harness::FormatDouble(us[us.size() / 2], 0),
           harness::FormatDouble(us[std::min(us.size() - 1, us.size() * 99 / 100)],
                                 0),
           harness::FormatDouble(static_cast<double>(dists) /
                                     static_cast<double>(us.size()),
                                 1)});
    }
    std::printf("single queries, 4 shards, parallel_shards on a 4-thread "
                "pool:\n");
    std::cout << latency.ToText();
  }

  // Deadline behaviour: replay the batch with a budget that cuts into the
  // queue tail. Degradation is graceful twice over — expired queries
  // return the neighbors they had already found (partial), and the
  // harvested fraction of the full answer set is reported.
  {
    Sharded::Options options;
    options.num_shards = 4;
    const Sharded index =
        Sharded::Build(data, L2(), options, &build_pool).ValueOrDie();
    auto tight = batch;
    const auto budget =
        std::chrono::microseconds(QuickMode() ? 500 : 2000);
    for (auto& q : tight) q.timeout = budget;
    serve::ThreadPool pool(4);
    serve::ServeStats stats;
    const auto outcomes = serve::RunBatch(index, tight, &pool, &stats);
    std::size_t harvested = 0, full_answers = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      harvested += outcomes[i].neighbors.size();
      full_answers += baseline[i].neighbors.size();
    }
    const auto snap = stats.Snapshot();
    std::printf("with a %lldus per-query budget: %llu complete, %llu "
                "partial, %llu empty; %zu/%zu total neighbors still served "
                "(degraded p99 %.0fus)\n",
                static_cast<long long>(budget.count()),
                static_cast<unsigned long long>(snap.ok),
                static_cast<unsigned long long>(snap.partial),
                static_cast<unsigned long long>(snap.deadline_exceeded),
                harvested, full_answers,
                static_cast<double>(snap.degraded_p99.count()) / 1e3);
  }

  // Overload behaviour: a burst far beyond the in-flight window, with
  // admission control shedding the excess immediately instead of queueing
  // it into uselessness.
  {
    Sharded::Options options;
    options.num_shards = 4;
    const Sharded index =
        Sharded::Build(data, L2(), options, &build_pool).ValueOrDie();
    serve::AdmissionController::Options admission_options;
    admission_options.max_in_flight = 8;
    admission_options.num_workers = 4;
    serve::AdmissionController admission(admission_options);
    serve::ExecutorOptions exec;
    exec.admission = &admission;
    serve::ThreadPool pool(4);
    serve::ServeStats stats;
    // The burst carries deadlines, so admission sheds a query as soon as
    // its estimated queue wait alone would blow its budget.
    auto burst = batch;
    const auto budget =
        std::chrono::microseconds(QuickMode() ? 500 : 2000);
    for (auto& q : burst) q.timeout = budget;
    const auto start = Clock::now();
    // Outcomes land in `stats`; the burst is measured in aggregate.
    (void)serve::RunBatch(index, burst, &pool, &stats, exec);
    const double wall_ms = MillisSince(start);
    const auto snap = stats.Snapshot();
    std::printf("admission control (max 8 in flight) on the %zu-query "
                "burst: %llu served, %llu shed (ResourceExhausted) in "
                "%.1f ms\n",
                batch.size(), static_cast<unsigned long long>(snap.ok),
                static_cast<unsigned long long>(snap.shed), wall_ms);
  }
#if defined(MVPTREE_FAULT_FS_POSIX)
  // Network serving: the same workload through mvpt-server's loopback RPC
  // path — one round trip per query vs one streaming batch — against the
  // in-process executor over the identical flat snapshot. The deltas are
  // the cost of the wire: framing, CRCs, syscalls, and (for the per-query
  // mode) a full RTT of latency each.
  {
    const std::string store_dir =
        (std::filesystem::temp_directory_path() / "mvpt_bench_net_store")
            .string();
    std::filesystem::remove_all(store_dir);
    Sharded::Options options;
    options.num_shards = 4;
    const Sharded built =
        Sharded::Build(data, L2(), options, &build_pool).ValueOrDie();
    snapshot::SnapshotStore store(store_dir);
    const auto saved = store.SaveFlat(built);
    if (!saved.ok()) {
      std::printf("network section skipped: %s\n",
                  saved.status().ToString().c_str());
      return all_match ? 0 : 1;
    }

    net::CollectionOptions collection;
    collection.name = "bench";
    collection.dir = store_dir;
    // Throughput run: the whole batch may be in flight at once; do not let
    // default admission shed it.
    collection.admission.max_in_flight = std::size_t{1} << 20;
    net::ServerOptions server_options;
    server_options.threads = 4;
    server_options.collections.push_back(collection);
    auto server = net::Server::Start(std::move(server_options));
    auto client = server.ok()
                      ? net::Client::Connect("127.0.0.1", server.value()->port())
                      : Result<net::Client>(server.status());
    if (!client.ok()) {
      std::printf("network section skipped: %s\n",
                  client.status().ToString().c_str());
      std::filesystem::remove_all(store_dir);
      return all_match ? 0 : 1;
    }

    std::vector<net::WireQuery> wire_batch;
    for (const auto& q : query_points) {
      net::WireQuery wq;
      wq.kind = 0;
      wq.radius = radius;
      wq.point = q;
      wire_batch.push_back(std::move(wq));
    }

    // In-process floor: the identical snapshot through RunBatch directly.
    serve::ThreadPool pool(4);
    const auto opened = store.OpenFlat(L2(), &pool);
    if (!opened.ok()) {
      std::printf("network section skipped: %s\n",
                  opened.status().ToString().c_str());
      server.value()->Stop();
      std::filesystem::remove_all(store_dir);
      return all_match ? 0 : 1;
    }
    const auto t_local = Clock::now();
    const auto local = serve::RunBatch(opened.value().index, batch, &pool);
    const double local_ms = MillisSince(t_local);

    // Streaming batch: one request frame carrying every query, one
    // response frame per outcome, a single executor batch server-side.
    const auto t_stream = Clock::now();
    const auto streamed = client.value().BatchQuery("bench", wire_batch);
    const double stream_ms = MillisSince(t_stream);

    // Per-query RPCs: a full round trip each, serially — the latency-bound
    // worst case.
    const auto t_rpc = Clock::now();
    std::size_t rpc_ok = 0;
    for (const auto& wq : wire_batch) {
      auto outcome = client.value().Query("bench", wq);
      if (outcome.ok() && outcome.value().status_code == 0) ++rpc_ok;
    }
    const double rpc_ms = MillisSince(t_rpc);

    bool net_match = streamed.ok() && rpc_ok == wire_batch.size();
    if (streamed.ok()) {
      for (std::size_t i = 0; i < streamed.value().size(); ++i) {
        if (streamed.value()[i].status_code != 0 ||
            streamed.value()[i].neighbors != baseline[i].neighbors ||
            local[i].neighbors != baseline[i].neighbors) {
          net_match = false;
        }
      }
    }
    all_match = all_match && net_match;

    harness::Table net_table({"path", "wall_ms", "qps", "vs_inproc"});
    const auto qps = [&](double ms) {
      return harness::FormatDouble(
          1000.0 * static_cast<double>(wire_batch.size()) / ms, 0);
    };
    net_table.AddRow({"in-process RunBatch",
                      harness::FormatDouble(local_ms, 1), qps(local_ms),
                      "1.00"});
    net_table.AddRow({"loopback streaming batch",
                      harness::FormatDouble(stream_ms, 1), qps(stream_ms),
                      harness::FormatDouble(local_ms / stream_ms, 2)});
    net_table.AddRow({"loopback per-query RPC",
                      harness::FormatDouble(rpc_ms, 1), qps(rpc_ms),
                      harness::FormatDouble(local_ms / rpc_ms, 2)});
    std::cout << net_table.ToText();
    std::printf("network results identical to the in-process executor: %s\n",
                net_match ? "yes" : "NO (BUG)");
    server.value()->Stop();
    std::filesystem::remove_all(store_dir);
  }
#endif  // MVPTREE_FAULT_FS_POSIX

  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace mvp::bench

int main() { return mvp::bench::Run(); }
