// The served mvp-tree benchmark (perfbench/README.md).
//
//   mvpbench --workload range_flat|mixed_rw --seed N --seconds S
//            --trace 0|1 --work-dir DIR
//
// Generates the workload's inputs from the seed, sets the system up several
// times (the first set-up is a discarded warm-up), runs the timed phase,
// checks a seeded sample of answers against scan::LinearScan, and prints
// one metric per line followed by the result object as the last line of
// standard output. With --trace 1 it also replays a seeded sample of the
// workload's operations through each layer's entry point, outermost first,
// and reports the per-layer metrics instead of the end-to-end ones.
// Any wrong answer exits nonzero.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.h"
#include "common/codec.h"
#include "common/query.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "metric/kernels/kernels.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "scan/linear_scan.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/snapshot_store.h"
#include "wal/wal.h"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define MVPBENCH_UNOPTIMISED 1
#endif

namespace {

namespace fs = std::filesystem;
namespace kernels = mvp::metric::kernels;
using perfbench::NowNs;
using perfbench::Report;
using perfbench::Samples;
using perfbench::Tracer;
using mvp::Neighbor;
using mvp::SearchStats;
using mvp::metric::L2;
using mvp::metric::Vector;
using Index = mvp::serve::ShardedMvpIndex<Vector, L2>;
using Overlay = mvp::dynamic::DynamicOverlay<Vector, L2, mvp::VectorCodec>;
using Query = mvp::serve::BatchQuery<Vector>;
using Scan = mvp::scan::LinearScan<Vector, L2>;

// ---- workload constants ----------------------------------------------------
// Fixed here so that every run of one seed does the same work; changing any
// of them redefines the benchmark.

constexpr std::size_t kDim = 20;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBuildThreads = 4;
constexpr int kWarmupSetups = 1;  // discarded: first-touch slowdown
constexpr int kTimedSetups = 3;   // setup_s is their median
// The timed phase runs as kRounds identical rounds of --seconds / kRounds
// each; qps reports the median round, p50_us and p99_us all rounds' samples.
constexpr int kRounds = 3;
// mixed_rw replays each round on the store of its own timed set-up.
static_assert(kRounds <= kTimedSetups);

// range_flat: §5.1.A uniform vectors, Fig. 8 mid radius.
constexpr std::size_t kFlatPoints = 1'000'000;
constexpr double kRangeRadius = 0.3;
constexpr std::size_t kRangeQueries = 1000;  // distinct queries, cycled
constexpr double kControlOffset = 0.05;  // per coordinate: well inside r


// mixed_rw: §5.1.A set-2 clustered vectors, heap base under an overlay.
constexpr std::size_t kMixedPoints = 500'000;
constexpr double kMixedEpsilon = 0.03;  // generator perturbation (paper: 0.15)
constexpr std::size_t kMixedOpsPerSecond = 400;  // fixed sequence length
constexpr std::size_t kKnnK = 10;
constexpr double kKnnNoise = 0.01;  // per-coordinate query perturbation
constexpr std::size_t kCheckpointEvery = 256;  // writes between checkpoints
constexpr std::size_t kMixedChecks = 3;
// The mix is exact per block of 20 operations (16 reads, 3 inserts, 1
// erase, in seeded order), so the tombstone count — which sets how far the
// overlay over-fetches the base — grows the same way in every run.
constexpr std::size_t kMixBlock = 20;
// range_flat's traced run: blocks of the write mix (3 inserts, 1 erase each).
constexpr std::size_t kFlatWriteBlocks = 500;

// Shared by every workload.
constexpr std::size_t kOracleChecks = 8;
constexpr std::size_t kServerThreads = 2;  // the traced replay's server
constexpr std::size_t kTraceOps = 200;
// Heap k-NN probes per traced run: on 1M uniform 20-d points one 10-NN
// query computes most of the distances, so only a few are replayed.
constexpr std::size_t kHeapKnnOps = 10;
constexpr std::size_t kWalProbeRecords = 1000;
constexpr std::size_t kPings = 200;
constexpr std::size_t kKernelRows = 4096;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mvpbench: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const mvp::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(mvp::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

double UsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// Uniform double in [0, 1) from a 64-bit engine (53 random bits).
double Uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

Vector Perturb(const Vector& base, double half_width, std::mt19937_64& rng) {
  Vector v = base;
  for (double& x : v) x += (2.0 * Uniform01(rng) - 1.0) * half_width;
  return v;
}

bool SameStats(const SearchStats& a, const SearchStats& b) {
  return a.distance_computations == b.distance_computations &&
         a.nodes_visited == b.nodes_visited &&
         a.leaf_points_seen == b.leaf_points_seen &&
         a.leaf_points_filtered == b.leaf_points_filtered;
}

/// Seeded sample of `count` distinct positions in [0, n), ascending.
std::vector<std::size_t> SamplePositions(std::size_t n, std::size_t count,
                                         std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::mt19937_64 rng(seed);
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng() % (n - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

Index::Options BuildOptions(std::uint64_t seed) {
  Index::Options options;
  options.num_shards = kShards;
  options.tree.seed = seed;
  return options;
}

double ContainerMb(const mvp::snapshot::SnapshotStore& store,
                   std::uint64_t gen) {
  std::error_code ec;
  const auto bytes = fs::file_size(
      store.GenerationDir(gen) + "/" +
          mvp::snapshot::SnapshotStore::kContainerFile,
      ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Row-major copy of the first vectors of a workload, for the kernel
/// calibration (sized to stay cache-resident).
std::vector<double> PackRows(const std::vector<Vector>& data) {
  const std::size_t rows = std::min(kKernelRows, data.size());
  std::vector<double> packed(rows * kDim);
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy(data[i].begin(), data[i].end(), packed.begin() + i * kDim);
  }
  return packed;
}

// ---- shared run state ------------------------------------------------------

struct SetupTimes {
  Samples setup_s, build_s, save_s, open_ms;
  std::vector<double> all_s;  // every set-up, warm-up included
  double build_dists = 0.0;
  double arena_mb = 0.0;
};

/// Everything a run measures; turned into the printed metrics at the end.
struct Run {
  Args args;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::size_t checks = 0;

  /// One timed round: raw per-query latencies, throughput, and the mean
  /// distance count over the round's fixed query set.
  struct Round {
    Samples read_us;
    double qps = 0.0;
    double dist_per_query = 0.0;
  };

  SetupTimes setup;
  std::vector<Round> rounds;
  double peak_rss_mb = 0.0;

  // Per-layer samples (filled by the write path and, with --trace, the
  // traced replay).
  Samples insert_us, erase_us, checkpoint_ms;
  double dist_overhead = 0.0;
  double records_per_sync = 0.0, bytes_per_write = 0.0;

  void Mismatch(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "mvpbench: MISMATCH: %s\n", what.c_str());
  }
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Times one set-up; the first kWarmupSetups calls are discarded.
template <typename Fn>
void RepeatSetup(Fn&& one_setup) {
  for (int rep = 0; rep < kWarmupSetups + kTimedSetups; ++rep) {
    one_setup(rep, rep >= kWarmupSetups,
              rep + 1 == kWarmupSetups + kTimedSetups);
  }
}

void CheckAgainstOracle(Run& run, const Scan& scan, const Query& q,
                        const std::vector<Neighbor>& got,
                        const std::string& what) {
  const auto want = q.kind == Query::Kind::kKnn
                        ? scan.KnnSearch(q.object, q.k)
                        : scan.RangeSearch(q.object, q.radius);
  ++run.checks;
  if (got != want) run.Mismatch(what + " differs from the linear scan");
}

// ---- write path (DynamicOverlay + WAL) --------------------------------------

/// Standalone WalWriter on the store's filesystem: Append + Sync per record.
Samples WalAppendSyncProbe(const std::string& dir, const Vector& payload_obj) {
  fs::create_directories(dir);
  auto writer = Must(mvp::wal::WalWriter::Open(dir + "/wal.log"), "wal open");
  mvp::BinaryWriter payload;
  mvp::VectorCodec().Write(payload, payload_obj);
  Samples us;
  for (std::size_t i = 1; i <= kWalProbeRecords; ++i) {
    mvp::wal::WalRecord record;
    record.seq = i;
    record.id = i;
    record.payload = payload.buffer();
    const std::int64_t t = NowNs();
    MustOk(writer->Append(record), "wal append");
    MustOk(writer->Sync(i), "wal sync");
    us.Add(UsSince(t));
  }
  return us;
}

enum class MixOp { kRead, kInsert, kErase };

/// One block of the mixed_rw sequence: 16 reads, 3 inserts and 1 erase in
/// seeded order.
std::vector<MixOp> ShuffledBlock(std::mt19937_64& rng) {
  std::vector<MixOp> block(kMixBlock, MixOp::kRead);
  block[0] = block[1] = block[2] = MixOp::kInsert;  // 15 %
  block[3] = MixOp::kErase;                         // 5 %
  for (std::size_t i = kMixBlock - 1; i > 0; --i) {
    std::swap(block[i], block[rng() % (i + 1)]);
  }
  return block;
}

/// The write half of the mixed_rw sequence, and the only write path of the
/// benchmark: Insert of the next fresh point, Erase of a seeded random live
/// id, and a Checkpoint after every kCheckpointEvery writes. Each call is
/// timed into the run's dynamic.* samples.
class Writes {
 public:
  Writes(Run& run, Overlay& overlay, std::size_t base_count,
         const std::vector<Vector>& fresh)
      : run_(run), overlay_(overlay), base_count_(base_count), fresh_(fresh),
        alive_(base_count + fresh.size(), 0) {
    live_.resize(base_count);
    for (std::size_t i = 0; i < base_count; ++i) live_[i] = i;
    std::fill(alive_.begin(), alive_.begin() + base_count, 1);
  }

  void Insert() {
    const std::uint64_t want = base_count_ + inserted_;
    const std::int64_t t = NowNs();
    auto id = overlay_.Insert(fresh_[inserted_]);
    run_.insert_us.Add(UsSince(t));
    const bool ok = id.ok() && id.value() == want;
    run_.Count(ok);
    if (!ok) run_.Mismatch("insert returned an unexpected stable id");
    live_.push_back(want);
    alive_[want] = 1;
    ++inserted_;
    Done();
  }

  void Erase(std::mt19937_64& rng) {
    const std::size_t idx = rng() % live_.size();
    const std::uint64_t id = live_[idx];
    live_[idx] = live_.back();
    live_.pop_back();
    alive_[id] = 0;
    const std::int64_t t = NowNs();
    const mvp::Status status = overlay_.Erase(id);
    run_.erase_us.Add(UsSince(t));
    run_.Count(status.ok());
    Done();
  }

  /// Liveness by stable id: the base's ids, then the inserted points'.
  const std::vector<std::uint8_t>& alive() const { return alive_; }

  /// The overlay's WAL figures over the writes so far.
  void RecordWalStats() const {
    const auto stats = overlay_.wal_stats();
    run_.records_per_sync = static_cast<double>(stats.records_synced) /
                            static_cast<double>(stats.sync_batches);
    run_.bytes_per_write = static_cast<double>(stats.bytes_written) /
                           static_cast<double>(writes_);
  }

 private:
  void Done() {
    if (++writes_ % kCheckpointEvery != 0) return;
    const std::int64_t t = NowNs();
    MustOk(overlay_.Checkpoint().status(), "checkpoint");
    run_.checkpoint_ms.Add(UsSince(t) / 1e3);
  }

  Run& run_;
  Overlay& overlay_;
  const std::size_t base_count_;
  const std::vector<Vector>& fresh_;
  std::vector<std::uint64_t> live_;
  std::vector<std::uint8_t> alive_;
  std::size_t inserted_ = 0, writes_ = 0;
};

/// Overlay distance computations over the base alone, for the same queries.
double DistOverhead(const Overlay& overlay, const Index& base,
                    const std::vector<Query>& queries) {
  double over_d = 0.0, base_d = 0.0;
  for (const Query& q : queries) {
    SearchStats over, only;
    if (q.kind == Query::Kind::kKnn) {
      (void)overlay.KnnSearch(q.object, q.k, &over);
      (void)base.KnnSearch(q.object, q.k, &only);
    } else {
      (void)overlay.RangeSearch(q.object, q.radius, &over);
      (void)base.RangeSearch(q.object, q.radius, &only);
    }
    over_d += static_cast<double>(over.distance_computations);
    base_d += static_cast<double>(only.distance_computations);
  }
  return over_d / base_d;
}

// ---- traced replay -------------------------------------------------------

/// Per-layer numbers from the traced replay.
struct LayerStats {
  Samples ns_per_dist, flat_search_us, merge_us, dispatch_us, server_us,
      overhead_us, knn_heap_us, entry_us, untraced_entry_us, ping_us;
  double nodes = 0, seen = 0, filtered = 0, results = 0, dists = 0, ops = 0;
  double req_bytes = 0, resp_bytes = 0;
  std::size_t spans = 0;
};

mvp::net::WireQuery ToWire(const Query& q) {
  mvp::net::WireQuery w;
  w.kind = q.kind == Query::Kind::kKnn ? 1 : 0;
  w.radius = q.radius;
  w.k = q.k;
  w.point = q.object;
  return w;
}

/// Sends each operation through the entry points from the outermost layer
/// inward — Client::Query, RunBatch, ShardedMvpIndex, each FlatTreeView
/// shard, then the kernel calibration — recording one span per call, and
/// checks that every layer returns the same answer. A mutable workload's
/// `overlay` is timed first, as its own outermost span. `entry_layer` names
/// the span of the workload's own entry point; `entry` calls that entry
/// point, and is first timed over the same operations without spans, so the
/// difference is the tracing overhead.
LayerStats TraceChain(Run& run, const std::vector<Query>& ops,
                      mvp::net::Client& client, const std::string& collection,
                      const Index& flat, const Index& heap,
                      const std::vector<double>& packed,
                      const Overlay* overlay, const std::string& entry_layer,
                      const std::function<void(const Query&)>& entry,
                      const std::string& trace_path) {
  LayerStats out;
  for (const Query& q : ops) {
    const std::int64_t t = NowNs();
    entry(q);
    out.untraced_entry_us.Add(UsSince(t));
  }
  Tracer tracer;
  const std::size_t rows = packed.size() / kDim;
  std::vector<double> kernel_out(rows);
  for (std::size_t i = 0; i < kPings; ++i) {
    const std::int64_t t = NowNs();
    MustOk(client.Ping(), "ping");
    out.ping_us.Add(UsSince(t));
  }
  for (std::size_t op = 0; op < ops.size(); ++op) {
    const Query& q = ops[op];
    const bool knn = q.kind == Query::Kind::kKnn;
    const auto wire_q = ToWire(q);
    if (overlay != nullptr) {
      tracer.Record(op, "dynamic.overlay", "", [&] {
        return overlay->KnnSearch(q.object, q.k).size();
      });
    }
    const auto wire = tracer.Record(op, "net.client", "", [&] {
      return client.Query(collection, wire_q);
    });
    const std::vector<Query> one{q};
    const auto batch = tracer.Record(op, "serve.run_batch", "net.client", [&] {
      return mvp::serve::RunBatch(flat, one, nullptr);
    });
    SearchStats stats;
    const auto sharded = tracer.Record(op, "serve.sharded", "serve.run_batch",
                                       [&] {
      return knn ? flat.KnnSearch(q.object, q.k, &stats)
                 : flat.RangeSearch(q.object, q.radius, &stats);
    });
    for (std::size_t s = 0; s < flat.num_shards(); ++s) {
      tracer.Record(op, "snapshot.flat_shard", "serve.sharded", [&] {
        const auto& shard = flat.flat_shard(s);
        auto hits = knn ? shard.KnnSearch(q.object, q.k)
                        : shard.RangeSearch(q.object, q.radius);
        return hits.size();
      });
    }
    // Kernel calibration: the op's distance count as pure one-to-many L2
    // sweeps over cache-resident workload vectors.
    const std::uint64_t dists = stats.distance_computations;
    kernels::OneToMany(kernels::Family::kL2, q.object.data(), packed.data(),
                       rows, kDim, kDim, kernel_out.data());  // warm
    tracer.Record(op, "metric.kernel", "snapshot.flat_shard", [&] {
      for (std::uint64_t done = 0; done < dists;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(rows, dists - done));
        kernels::OneToMany(kernels::Family::kL2, q.object.data(),
                           packed.data(), n, kDim, kDim, kernel_out.data());
        done += n;
      }
      return kernel_out[0];
    });
    if (op < kHeapKnnOps) {
      tracer.Record(op, "core.heap_knn", "", [&] {
        return heap.KnnSearch(q.object, kKnnK).size();
      });
    }

    // Every layer must give the same answer and the same statistics.
    bool same = wire.ok() && wire.value().status().ok() &&
                batch[0].status.ok() &&
                wire.value().neighbors == batch[0].neighbors &&
                batch[0].neighbors == sharded &&
                SameStats(wire.value().search, batch[0].search) &&
                SameStats(batch[0].search, stats);
    ++run.checks;
    if (!same) run.Mismatch("traced layers disagree on op " +
                            std::to_string(op));
    if (!wire.ok()) continue;

    const double net_us = tracer.LayerUs(op, "net.client");
    const double server_us =
        static_cast<double>(wire.value().latency_ns) / 1e3;
    const double run_batch_us = tracer.LayerUs(op, "serve.run_batch");
    const double sharded_us = tracer.LayerUs(op, "serve.sharded");
    const double shards_us = tracer.LayerUs(op, "snapshot.flat_shard");
    const double kernel_us = tracer.LayerUs(op, "metric.kernel");
    out.server_us.Add(server_us);
    out.overhead_us.Add(net_us - server_us);
    out.dispatch_us.Add(run_batch_us - sharded_us);
    out.merge_us.Add(sharded_us - shards_us);
    out.flat_search_us.Add(shards_us);
    if (dists > 0) {
      out.ns_per_dist.Add(kernel_us * 1e3 / static_cast<double>(dists));
    }
    if (op < kHeapKnnOps) {
      out.knn_heap_us.Add(tracer.LayerUs(op, "core.heap_knn"));
    }
    out.entry_us.Add(tracer.LayerUs(op, entry_layer));
    out.nodes += static_cast<double>(stats.nodes_visited);
    out.seen += static_cast<double>(stats.leaf_points_seen);
    out.filtered += static_cast<double>(stats.leaf_points_filtered);
    out.dists += static_cast<double>(dists);
    out.results += static_cast<double>(sharded.size());
    out.ops += 1;
    mvp::BinaryWriter req, resp;
    mvp::net::EncodeQuery(wire_q, &req);
    mvp::net::EncodeOutcome(wire.value(), &resp);
    out.req_bytes += static_cast<double>(req.buffer().size());
    out.resp_bytes += static_cast<double>(resp.buffer().size());
  }
  out.spans = tracer.size();
  if (!tracer.WriteJsonl(trace_path)) Die("cannot write " + trace_path);
  return out;
}

/// A traced-replay server: a static collection over `store_dir`.
std::unique_ptr<mvp::net::Server> StartServer(const std::string& store_dir) {
  mvp::net::ServerOptions options;
  options.threads = kServerThreads;
  mvp::net::CollectionOptions collection;
  collection.name = "points";
  collection.dir = store_dir;
  collection.metric = "l2";
  options.collections.push_back(collection);
  return Must(mvp::net::Server::Start(options), "server start");
}

mvp::net::Client Connect(const mvp::net::Server& server) {
  return Must(mvp::net::Client::Connect("127.0.0.1", server.port()),
              "connect");
}

// ---- report ----------------------------------------------------------------

void ReportEndToEnd(const Run& run, Report& report) {
  report.Set("setup_s", run.setup.setup_s.Median(), "s",
             run.setup.setup_s.count());
  // qps is the median round's; p50_us and p99_us come from the raw samples
  // of all rounds together. dist_per_query is the same in every round.
  std::vector<double> qps;
  Samples read_us;
  for (const Run::Round& round : run.rounds) {
    qps.push_back(round.qps);
    read_us.Append(round.read_us);
  }
  std::sort(qps.begin(), qps.end());
  report.Set("qps", qps[qps.size() / 2], "ops/s");
  report.Set("p50_us", read_us.Quantile(0.50), "us", read_us.count());
  report.Set("p99_us", read_us.Quantile(0.99), "us", read_us.count());
  report.Set("dist_per_query", run.rounds[0].dist_per_query, "count");
  report.Set("ok_ratio",
             run.attempted == 0
                 ? 0.0
                 : static_cast<double>(run.attempted - run.failed) /
                       static_cast<double>(run.attempted),
             "ratio", run.attempted);
  report.Set("peak_rss_mb", run.peak_rss_mb, "MiB");
}

void ReportLayers(const Run& run, const LayerStats& l, Report& report) {
  report.Set("metric.ns_per_dist", l.ns_per_dist.Median(), "ns",
             l.ns_per_dist.count());
  report.Set("core.nodes_per_query", l.ops == 0 ? 0 : l.nodes / l.ops,
             "count");
  report.Set("core.leaf_filtered_ratio", l.seen == 0 ? 0 : l.filtered / l.seen,
             "ratio");
  report.Set("core.results_per_dist", l.dists == 0 ? 0 : l.results / l.dists,
             "ratio");
  report.Set("core.build_s", run.setup.build_s.Median(), "s",
             run.setup.build_s.count());
  report.Set("core.build_dists", run.setup.build_dists, "count");
  report.Set("core.knn_heap_us", l.knn_heap_us.Median(), "us",
             l.knn_heap_us.count());
  report.Set("snapshot.save_s", run.setup.save_s.Median(), "s",
             run.setup.save_s.count());
  report.Set("snapshot.open_ms", run.setup.open_ms.Median(), "ms",
             run.setup.open_ms.count());
  report.Set("snapshot.arena_mb", run.setup.arena_mb, "MiB");
  report.Set("snapshot.flat_search_us", l.flat_search_us.Median(), "us",
             l.flat_search_us.count());
  report.Set("serve.merge_us", l.merge_us.Median(), "us", l.merge_us.count());
  report.Set("serve.dispatch_us", l.dispatch_us.Median(), "us",
             l.dispatch_us.count());
  report.Set("serve.server_p50_us", l.server_us.Quantile(0.50), "us",
             l.server_us.count());
  report.Set("serve.server_p99_us", l.server_us.Quantile(0.99), "us",
             l.server_us.count());
  report.Set("net.ping_us", l.ping_us.Median(), "us", l.ping_us.count());
  report.Set("net.overhead_p50_us", l.overhead_us.Quantile(0.50), "us",
             l.overhead_us.count());
  report.Set("net.overhead_p99_us", l.overhead_us.Quantile(0.99), "us",
             l.overhead_us.count());
  report.Set("net.req_bytes", l.ops == 0 ? 0 : l.req_bytes / l.ops, "bytes");
  report.Set("net.resp_bytes", l.ops == 0 ? 0 : l.resp_bytes / l.ops, "bytes");
  report.Set("dynamic.insert_p50_us", run.insert_us.Quantile(0.50), "us",
             run.insert_us.count());
  report.Set("dynamic.insert_p99_us", run.insert_us.Quantile(0.99), "us",
             run.insert_us.count());
  report.Set("dynamic.erase_p50_us", run.erase_us.Quantile(0.50), "us",
             run.erase_us.count());
  report.Set("dynamic.erase_p99_us", run.erase_us.Quantile(0.99), "us",
             run.erase_us.count());
  report.Set("dynamic.checkpoint_ms", run.checkpoint_ms.Median(), "ms",
             run.checkpoint_ms.count());
  report.Set("dynamic.dist_overhead", run.dist_overhead, "ratio");
  report.Set("wal.records_per_sync", run.records_per_sync, "count");
  report.Set("wal.bytes_per_write", run.bytes_per_write, "bytes");
  // Tracing overhead: the workload's own entry point over the same
  // operations, with and without spans.
  const double traced = l.entry_us.Median();
  const double untraced = l.untraced_entry_us.Median();
  report.Set("trace.untraced_p50_us", untraced, "us",
             l.untraced_entry_us.count());
  report.Set("trace.entry_p50_us", traced, "us", l.entry_us.count());
  report.Set("trace.overhead_pct",
             untraced == 0 ? 0 : 100.0 * (traced / untraced - 1.0), "%");
}

// ---- workloads -------------------------------------------------------------

/// One set-up of a flat serving store: Build, SaveFlat, then `open` (which
/// must answer the first query). Records the per-stage times when timed.
template <typename OpenFn>
void FlatSetup(Run& run, const std::vector<Vector>& data, const std::string& dir,
               mvp::serve::ThreadPool& pool, bool timed, bool last,
               std::optional<Index>* heap_out, OpenFn&& open) {
  fs::remove_all(dir);
  std::vector<Vector> copy = data;
  const std::int64_t t0 = NowNs();
  Index heap = Must(Index::Build(std::move(copy), L2(),
                                 BuildOptions(run.args.seed), &pool),
                    "build");
  const std::int64_t t1 = NowNs();
  mvp::snapshot::SnapshotStore store(dir);
  const std::uint64_t gen = Must(store.SaveFlat(heap), "save flat");
  const std::int64_t t2 = NowNs();
  open(store);
  const std::int64_t t3 = NowNs();
  run.setup.all_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  if (timed) {
    run.setup.build_s.Add(static_cast<double>(t1 - t0) / 1e9);
    run.setup.save_s.Add(static_cast<double>(t2 - t1) / 1e9);
    run.setup.open_ms.Add(static_cast<double>(t3 - t2) / 1e6);
    run.setup.setup_s.Add(static_cast<double>(t3 - t0) / 1e9);
  }
  if (last) {
    run.setup.build_dists =
        static_cast<double>(heap.Stats().construction_distance_computations);
    run.setup.arena_mb = ContainerMb(store, gen);
    if (heap_out != nullptr) heap_out->emplace(std::move(heap));
  }
}

std::vector<Query> RangeQueries(std::uint64_t seed) {
  std::vector<Query> queries;
  for (auto& point :
       mvp::dataset::UniformQueryVectors(kRangeQueries, kDim, seed ^ 0x5152u)) {
    Query q;
    q.object = std::move(point);
    q.radius = kRangeRadius;
    queries.push_back(std::move(q));
  }
  return queries;
}

std::optional<LayerStats> RangeFlat(Run& run) {
  const Args& a = run.args;
  auto data = mvp::dataset::UniformVectors(kFlatPoints, kDim, a.seed);
  const auto queries = RangeQueries(a.seed);
  std::vector<std::vector<Query>> singles;
  for (const Query& q : queries) singles.push_back({q});
  mvp::serve::ThreadPool pool(kBuildThreads);

  const std::string store_dir = a.work_dir + "/store";
  std::optional<Index> flat, heap;
  RepeatSetup([&](int, bool timed, bool last) {
    flat.reset();
    FlatSetup(run, data, store_dir, pool, timed, last, a.trace ? &heap : nullptr,
              [&](mvp::snapshot::SnapshotStore& store) {
                flat.emplace(
                    std::move(Must(store.OpenFlat(L2(), &pool), "open flat")
                                  .index));
                (void)mvp::serve::RunBatch(*flat, singles[0], nullptr);
              });
  });

  // Closed loop, one thread, single-query RunBatch without a pool. At least
  // one full cycle of the query list runs, so dist_per_query is exact.
  const auto oracle_pos = SamplePositions(queries.size(), kOracleChecks,
                                          a.seed ^ 0x0c1eu);
  std::vector<std::vector<Neighbor>> sampled(queries.size());
  for (int r = 0; r < kRounds; ++r) {
    Run::Round round;
    std::uint64_t cycle_dists = 0;
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(a.seconds / kRounds * 1e9);
    std::size_t i = 0;
    for (;; ++i) {
      if (i >= queries.size() && NowNs() >= deadline) break;
      const auto& one = singles[i % singles.size()];
      const std::int64_t t = NowNs();
      auto outcomes = mvp::serve::RunBatch(*flat, one, nullptr);
      round.read_us.Add(UsSince(t));
      run.Count(outcomes[0].status.ok());
      if (i < queries.size()) {
        cycle_dists += outcomes[0].distance_computations;
        if (r == 0) sampled[i] = std::move(outcomes[0].neighbors);
      }
    }
    round.qps =
        static_cast<double>(i) / (static_cast<double>(NowNs() - start) / 1e9);
    round.dist_per_query =
        static_cast<double>(cycle_dists) / static_cast<double>(queries.size());
    run.rounds.push_back(std::move(round));
  }
  run.peak_rss_mb = perfbench::PeakRssMb();

  {
    const Scan scan(data, L2());
    for (const std::size_t p : oracle_pos) {
      CheckAgainstOracle(run, scan, queries[p], sampled[p],
                         "range_flat query " + std::to_string(p));
    }
    // At r = 0.3 almost every uniform query's answer is empty, so control
    // queries near stored points (each must find at least that point) go
    // through the same path and the same scan.
    std::mt19937_64 rng(a.seed ^ 0xc0c0u);
    for (std::size_t c = 0; c < kOracleChecks; ++c) {
      Query q;
      q.radius = kRangeRadius;
      q.object = Perturb(data[rng() % data.size()], kControlOffset, rng);
      auto got = mvp::serve::RunBatch(*flat, std::vector<Query>{q}, nullptr);
      if (got[0].neighbors.empty()) run.Mismatch("control query found nothing");
      CheckAgainstOracle(run, scan, q, got[0].neighbors,
                         "range_flat control query " + std::to_string(c));
    }
  }

  std::optional<LayerStats> layers;
  if (a.trace) {
    const std::vector<Query> ops(queries.begin(),
                                 queries.begin() + kTraceOps);
    {
      auto server = StartServer(store_dir);
      auto client = Connect(*server);
      layers = TraceChain(run, ops, client, "points", *flat, *heap,
                          PackRows(data), nullptr, "serve.run_batch",
                          [&](const Query& q) {
                            (void)mvp::serve::RunBatch(
                                *flat, std::vector<Query>{q}, nullptr);
                          },
                          a.work_dir + "/../trace-range_flat.jsonl");
    }

    // Every traced run reports the dynamic.* and wal.* figures, so the
    // write path also runs here, once, after the trace: whole blocks of the
    // mixed_rw write mix on an overlay over this workload's store. They
    // predict nothing for range_flat (README.md).
    auto overlay =
        Must(Overlay::Open(store_dir, L2(), mvp::VectorCodec()), "overlay open");
    const auto fresh = mvp::dataset::UniformVectors(
        kFlatWriteBlocks * kMixBlock, kDim, a.seed ^ 0x5752u);
    Writes writes(run, *overlay, kFlatPoints, fresh);
    std::mt19937_64 rng(a.seed ^ 0x5752u);
    for (std::size_t b = 0; b < kFlatWriteBlocks; ++b) {
      for (const MixOp op : ShuffledBlock(rng)) {
        if (op == MixOp::kInsert) writes.Insert();
        if (op == MixOp::kErase) writes.Erase(rng);
      }
    }
    writes.RecordWalStats();
    run.dist_overhead = DistOverhead(*overlay, *flat, ops);
  }
  return layers;
}

std::optional<LayerStats> MixedRw(Run& run) {
  const Args& a = run.args;
  const std::size_t num_ops = static_cast<std::size_t>(std::llround(
      static_cast<double>(kMixedOpsPerSecond) * a.seconds / kRounds));
  // Base and fresh inserts come from one run of the clustered generator:
  // the first kMixedPoints vectors are the base, the rest are new clusters.
  mvp::dataset::ClusterParams params;
  params.count = kMixedPoints + num_ops;
  params.dim = kDim;
  params.epsilon = kMixedEpsilon;
  auto all = mvp::dataset::ClusteredVectors(params, a.seed);
  std::vector<Vector> fresh(std::make_move_iterator(all.begin() + kMixedPoints),
                            std::make_move_iterator(all.end()));
  all.resize(kMixedPoints);
  const std::vector<Vector>& data = all;
  mvp::serve::ThreadPool pool(kBuildThreads);

  // Each timed set-up leaves its own store holding the same base
  // generation; each round replays the sequence on one of them.
  std::vector<std::string> stores;
  std::optional<Index> heap;
  RepeatSetup([&](int rep, bool timed, bool last) {
    const std::string dir = a.work_dir + "/store" + std::to_string(rep);
    std::vector<Vector> copy = data;
    const std::int64_t t0 = NowNs();
    Index base = Must(Index::Build(std::move(copy), L2(), BuildOptions(a.seed),
                                   &pool),
                      "build");
    const std::int64_t t1 = NowNs();
    mvp::snapshot::SnapshotStore store(dir);
    const std::uint64_t gen =
        Must(store.SaveSharded(base, mvp::VectorCodec()), "save sharded");
    const std::int64_t t2 = NowNs();
    auto overlay =
        Must(Overlay::Open(dir, L2(), mvp::VectorCodec(), {}, &pool),
             "overlay open");
    (void)overlay->KnnSearch(data[0], kKnnK);
    const std::int64_t t3 = NowNs();
    run.setup.all_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    if (timed) {
      run.setup.build_s.Add(static_cast<double>(t1 - t0) / 1e9);
      run.setup.save_s.Add(static_cast<double>(t2 - t1) / 1e9);
      run.setup.open_ms.Add(static_cast<double>(t3 - t2) / 1e6);
      run.setup.setup_s.Add(static_cast<double>(t3 - t0) / 1e9);
      stores.push_back(dir);
    } else {
      overlay.reset();
      fs::remove_all(dir);
    }
    if (last) {
      run.setup.build_dists =
          static_cast<double>(base.Stats().construction_distance_computations);
      run.setup.arena_mb = ContainerMb(store, gen);
      // Only the traced replay searches the base alone.
      if (a.trace) heap.emplace(std::move(base));
    }
  });

  // The seeded sequence: 80% k-NN of a perturbed stored point, 15% Insert
  // of a fresh point, 5% Erase of a random live id; a checkpoint after
  // every kCheckpointEvery writes. Every round replays it exactly. Only the
  // last round checks answers against a scan of the live set, after
  // peak_rss_mb has been read, so the scan's copy of the live set is not
  // counted in it.
  std::unique_ptr<Overlay> overlay;
  std::optional<Writes> writes;
  std::vector<Query> read_queries;
  for (int r = 0; r < kRounds; ++r) {
    writes.reset();
    overlay.reset();
    overlay = Must(Overlay::Open(stores[r], L2(), mvp::VectorCodec(), {}, &pool),
                   "overlay open");
    writes.emplace(run, *overlay, kMixedPoints, fresh);
    std::mt19937_64 rng(a.seed ^ 0x6d72u);
    const bool check = r + 1 == kRounds;
    std::size_t reads = 0, next_check = 0;
    std::uint64_t read_dists = 0;
    std::int64_t paused_ns = 0;
    Run::Round round;
    std::vector<MixOp> block;
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < num_ops; ++i) {
      if (i % kMixBlock == 0) block = ShuffledBlock(rng);
      const MixOp kind = block[i % kMixBlock];
      if (kind == MixOp::kInsert) {
        writes->Insert();
        continue;
      }
      if (kind == MixOp::kErase) {
        writes->Erase(rng);
        continue;
      }
      Query q;
      q.kind = Query::Kind::kKnn;
      q.k = kKnnK;
      q.object = Perturb(data[rng() % kMixedPoints], kKnnNoise, rng);
      SearchStats stats;
      const std::int64_t t = NowNs();
      auto hits = overlay->KnnSearch(q.object, q.k, &stats);
      round.read_us.Add(UsSince(t));
      run.Count(hits.size() == q.k);
      read_dists += stats.distance_computations;
      ++reads;
      if (check && next_check < kMixedChecks &&
          i >= (next_check + 1) * num_ops / (kMixedChecks + 1)) {
        const std::int64_t pause = NowNs();
        std::vector<Vector> objects;
        std::vector<std::uint64_t> ids;
        const auto& alive = writes->alive();
        for (std::size_t id = 0; id < alive.size(); ++id) {
          if (alive[id] == 0) continue;
          ids.push_back(id);
          objects.push_back(id < kMixedPoints ? data[id]
                                              : fresh[id - kMixedPoints]);
        }
        const Scan scan(std::move(objects), L2());
        auto want = scan.KnnSearch(q.object, q.k);
        for (Neighbor& n : want) n.id = ids[n.id];
        ++run.checks;
        if (hits != want) {
          run.Mismatch("mixed_rw k-NN at op " + std::to_string(i) +
                       " differs from a scan of the live set");
        }
        ++next_check;
        paused_ns += NowNs() - pause;
      }
      if (r == 0 && read_queries.size() < kTraceOps) {
        read_queries.push_back(std::move(q));
      }
    }
    const double wall_s =
        static_cast<double>(NowNs() - start - paused_ns) / 1e9;
    round.qps = static_cast<double>(num_ops) / wall_s;
    round.dist_per_query =
        static_cast<double>(read_dists) / static_cast<double>(reads);
    run.rounds.push_back(std::move(round));
    if (r == 0) run.peak_rss_mb = perfbench::PeakRssMb();
  }
  writes->RecordWalStats();

  std::optional<LayerStats> layers;
  if (a.trace) {
    run.dist_overhead = DistOverhead(*overlay, *heap, read_queries);
    // The network/serve/snapshot chain runs on a flat copy of the base, the
    // representation those layers serve from.
    const std::string flat_dir = a.work_dir + "/trace_flat";
    mvp::snapshot::SnapshotStore flat_store(flat_dir);
    MustOk(flat_store.SaveFlat(*heap).status(), "save flat");
    auto flat = std::move(
        Must(flat_store.OpenFlat(L2(), &pool), "open flat").index);
    auto server = StartServer(flat_dir);
    auto client = Connect(*server);
    layers = TraceChain(run, read_queries, client, "points", flat, *heap,
                        PackRows(data), overlay.get(), "dynamic.overlay",
                        [&](const Query& q) {
                          (void)overlay->KnnSearch(q.object, q.k);
                        },
                        a.work_dir + "/../trace-mixed_rw.jsonl");
  }
  return layers;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.work_dir.empty()) Die("--work-dir is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef MVPBENCH_UNOPTIMISED
  Die(std::string("refusing to measure a non-optimised build (") +
      MVPBENCH_BUILD_TYPE + ")");
#endif
  Run run;
  run.args = ParseArgs(argc, argv);
  const Args& a = run.args;
  fs::remove_all(a.work_dir);
  fs::create_directories(a.work_dir);

  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"kernel_tier\": \"%s\", \"nproc\": %ld, "
      "\"build_type\": \"%s\", \"store_fs\": \"%s\", \"warmup_setups\": %d, "
      "\"timed_setups\": %d}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, kernels::TierName(kernels::ActiveTier()),
      perfbench::OnlineCpus(), MVPBENCH_BUILD_TYPE,
      perfbench::FilesystemType(a.work_dir).c_str(), kWarmupSetups,
      kTimedSetups);
  std::fflush(stdout);

  std::optional<LayerStats> layers;
  if (a.workload == "range_flat") {
    layers = RangeFlat(run);
  } else if (a.workload == "mixed_rw") {
    layers = MixedRw(run);
  } else {
    Die("unknown workload '" + a.workload + "'");
  }

  // Every round of one run does the same work, so its distance counts
  // must repeat exactly.
  for (const Run::Round& round : run.rounds) {
    if (round.dist_per_query != run.rounds[0].dist_per_query) {
      run.Mismatch("dist_per_query differs between rounds of one run");
    }
  }

  // End-to-end metrics are printed by every run; the traced run adds the
  // per-layer metrics and reports those in its result object.
  Report end_to_end, per_layer;
  ReportEndToEnd(run, end_to_end);
  end_to_end.Print(a.workload, stdout);
  if (layers) {
    ReportLayers(run, *layers, per_layer);
    const Samples wal_us = WalAppendSyncProbe(
        a.work_dir + "/wal_probe",
        mvp::dataset::UniformVectors(1, kDim, a.seed)[0]);
    per_layer.Set("wal.append_sync_us", wal_us.Median(), "us", wal_us.count());
    per_layer.Print(a.workload, stdout);
  }
  fs::remove_all(a.work_dir);

  if (layers) std::printf("trace: %zu spans\n", layers->spans);
  std::printf("setup_s per set-up (first is the discarded warm-up):");
  for (const double t : run.setup.all_s) std::printf(" %.3f", t);
  std::printf("\n");
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    const Run::Round& round = run.rounds[r];
    std::printf("round %zu: qps %.3f p50_us %.3f p99_us %.3f (n=%zu)\n", r,
                round.qps, round.read_us.Quantile(0.50),
                round.read_us.Quantile(0.99), round.read_us.count());
  }
  std::printf("checked %zu answers: %s\n", run.checks,
              run.correct ? "all match" : "MISMATCH");
  const Report& result = layers ? per_layer : end_to_end;
  std::printf("%s\n", result.ResultJson(run.correct, run.attempted, run.failed)
                          .c_str());
  return run.correct ? 0 : 1;
}
