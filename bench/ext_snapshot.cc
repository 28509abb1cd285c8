// Extension: snapshot store. Measures the snapshot/ subsystem on the
// paper's §5.1.A workload (uniform 20-d vectors, L2): save throughput of
// the checksummed container of flat arenas, open (mmap + one fingerprint
// pass + arena validation, no deserialization) versus rebuilding from raw
// vectors, and the time-to-first-query a server pays cold (build) versus
// warm (snapshot open) — across shard counts. Every opened index is
// checked to return results bit-identical to the index that was saved.
//
// A second table compares steady-state per-query latency of the built
// index and the one served off the mapping, with distance counts required
// to stay identical between the two.

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
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

std::string BenchDir() {
  const char* tmp = std::getenv("TMPDIR");
  return (tmp != nullptr ? std::string(tmp) : std::string("/tmp")) +
         "/mvpt_ext_snapshot";
}

int Run() {
  const std::size_t n = QuickMode() ? 5000 : 50000;
  const std::size_t dim = 20;
  harness::PrintFigureHeader(
      std::cout, "Extension: snapshot store",
      "checksummed snapshot save/open vs rebuild, and cold vs warm start",
      std::to_string(n) + " uniform " + std::to_string(dim) +
          "-d vectors, L2, CRC32C verified on every open" +
          (QuickMode() ? "  (quick mode)" : ""));

  const auto data = dataset::UniformVectors(n, dim, 4242);
  const auto query = dataset::UniformQueryVectors(1, dim, 777)[0];
  const auto steady_queries =
      dataset::UniformQueryVectors(QuickMode() ? 100 : 500, dim, 778);
  const double radius = 0.3;
  serve::ThreadPool pool(4);

  harness::Table table({"shards", "file_mb", "save_ms", "save_mb_s",
                        "open_ms", "rebuild_ms", "open_speedup",
                        "ttfq_cold_ms", "ttfq_warm_ms"});
  harness::Table steady_table({"shards", "q_built_us", "q_opened_us"});
  bool all_match = true;
  double worst_speedup = 0.0;

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const std::string dir = BenchDir() + "/k" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    snapshot::SnapshotStore store(dir);

    Sharded::Options options;
    options.num_shards = shards;

    // Cold start: build from raw vectors, answer one query.
    const auto build_t0 = Clock::now();
    const Sharded built =
        Sharded::Build(data, L2(), options, &pool).ValueOrDie();
    const double build_ms = MillisSince(build_t0);
    const auto cold_q0 = Clock::now();
    const auto cold_hits = built.RangeSearch(query, radius);
    const double cold_query_ms = MillisSince(cold_q0);

    // Save throughput (container + manifest + commit, fsync included).
    const auto save_t0 = Clock::now();
    const auto gen = store.SaveFlat(built).ValueOrDie();
    const double save_ms = MillisSince(save_t0);
    const auto container_bytes = std::filesystem::file_size(
        store.GenerationDir(gen) + "/" +
        snapshot::SnapshotStore::kContainerFile);
    const double mb = static_cast<double>(container_bytes) / (1024.0 * 1024.0);

    // Warm start: mmap + fingerprint pass + arena validation. Cold-start
    // costs are single-digit milliseconds, which scheduler noise on a
    // shared machine can double — so take the best of a few full
    // repetitions (each one re-does ALL the open work from disk).
    constexpr int kColdReps = 3;
    double open_ms = 0.0;
    double warm_query_ms = 0.0;
    std::optional<snapshot::LoadedSharded<Vector, L2>> opened;
    std::vector<Neighbor> warm_hits;
    for (int rep = 0; rep < kColdReps; ++rep) {
      const auto open_t0 = Clock::now();
      auto attempt = store.LoadSharded<Vector>(L2(), VectorCodec(), &pool);
      const double o = MillisSince(open_t0);
      if (!attempt.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     attempt.status().ToString().c_str());
        return 1;
      }
      const auto warm_q0 = Clock::now();
      auto hits = attempt.value().index.RangeSearch(query, radius);
      const double q = MillisSince(warm_q0);
      if (rep == 0 || o + q < open_ms + warm_query_ms) {
        open_ms = o;
        warm_query_ms = q;
        opened = std::move(attempt).ValueOrDie();
        warm_hits = std::move(hits);
      }
    }

    // Rebuild-from-scratch comparison point (what a server without
    // snapshots pays on every restart).
    const auto rebuild_t0 = Clock::now();
    const Sharded rebuilt =
        Sharded::Build(data, L2(), options, &pool).ValueOrDie();
    const double rebuild_ms = MillisSince(rebuild_t0);
    (void)rebuilt;  // built only to time the from-scratch baseline

    if (warm_hits != cold_hits) all_match = false;
    const double speedup = rebuild_ms / open_ms;
    if (worst_speedup == 0.0 || speedup < worst_speedup) {
      worst_speedup = speedup;
    }
    table.AddRow({std::to_string(shards), harness::FormatDouble(mb, 1),
                  harness::FormatDouble(save_ms, 1),
                  harness::FormatDouble(mb / (save_ms / 1000.0), 0),
                  harness::FormatDouble(open_ms, 2),
                  harness::FormatDouble(rebuild_ms, 1),
                  harness::FormatDouble(speedup, 1),
                  harness::FormatDouble(build_ms + cold_query_ms, 1),
                  harness::FormatDouble(open_ms + warm_query_ms, 2)});

    // Steady state: replay the batch on both indexes serially and keep the
    // distance-count equivalence honest while timing.
    auto replay_ms = [&](const Sharded& index, std::uint64_t* distances) {
      const auto t0 = Clock::now();
      for (const auto& q : steady_queries) {
        SearchStats stats;
        // Results unused: only the timing and the distance count matter.
        (void)index.RangeSearch(q, radius, &stats);
        *distances += stats.distance_computations;
      }
      return MillisSince(t0);
    };
    std::uint64_t built_distances = 0, opened_distances = 0;
    const double built_ms = replay_ms(built, &built_distances);
    const double opened_ms = replay_ms(opened->index, &opened_distances);
    if (built_distances != opened_distances) all_match = false;
    const double per_query_us =
        1000.0 / static_cast<double>(steady_queries.size());
    steady_table.AddRow({std::to_string(shards),
                         harness::FormatDouble(built_ms * per_query_us, 0),
                         harness::FormatDouble(opened_ms * per_query_us, 0)});
    std::filesystem::remove_all(dir);
  }

  std::cout << table.ToText();
  std::cout << steady_table.ToText();
  std::printf("opened results and distance counts bit-identical to the "
              "saved index: %s\n",
              all_match ? "yes" : "NO (BUG)");
  std::printf("warm-start advantage (min over shard counts): %.1fx faster "
              "open than a rebuild\n",
              worst_speedup);
  std::filesystem::remove_all(BenchDir());
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace mvp::bench

int main() { return mvp::bench::Run(); }
