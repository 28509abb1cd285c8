// mvpt — command-line front end for the mvp-tree library (vector data).
//
//   mvpt gen    --kind uniform|clustered --count N --dim D [--seed S]
//               [--cluster-size C --epsilon E] --out data.csv
//   mvpt build  --input data.csv --metric l1|l2|linf [--order M]
//               [--leaf K] [--paths P] [--seed S] --out index.mvpt
//   mvpt stats  --index index.mvpt
//   mvpt query  --index index.mvpt --metric l1|l2|linf
//               --point "x1,x2,..." (--radius R | --knn K | --farthest K)
//   mvpt hist   --input data.csv --metric l1|l2|linf [--bucket W]
//               [--samples N]    # pairwise distance histogram (Figs 4-5)
//   mvpt validate --index index.mvpt --metric l1|l2|linf
//                                # deep invariant check of a stored index
//   mvpt serve-bench [--count N] [--dim D] [--seed S] [--shards K]
//                    [--threads "1,2,4,8"] [--queries Q]
//                    [--radius R | --knn K] [--timeout-ms T]
//                    [--snapshot-dir DIR]  # also time cold vs warm start
//                                # (the flat snapshot's zero-deserialization
//                                # open), checking results stay bit-identical
//                    [--deadline-partial MS]  # replay with an MS-millisecond
//                                # deadline; expired queries return their
//                                # partial harvest instead of nothing
//                    [--overload N]  # replay through admission control with
//                                # at most N queries in flight; the excess
//                                # is shed with ResourceExhausted
//                                # concurrent-serving throughput/latency
//   mvpt snapshot-save --input data.csv --metric l1|l2|linf --dir store/
//                      [--shards K] [--order M] [--leaf K] [--paths P]
//                      [--seed S] [--threads N]
//                                # build a sharded index, persist it as a
//                                # new checksummed snapshot generation of
//                                # mmap-native flat arenas
//   mvpt snapshot-load --dir store/ --metric l1|l2|linf [--threads N]
//                      [--point "x1,x2,..." (--radius R | --knn K)]
//                                # load + verify the committed generation
//                                # (docs/index_format.md has the layout); a
//                                # flat one serves straight out of the
//                                # mapping, one an earlier release wrote as
//                                # MVPT streams is deserialized
//   mvpt insert --dir store/ --metric l1|l2|linf
//               (--point "x1,x2,..." | --input data.csv) [--checkpoint]
//                                # durably insert into the store's dynamic
//                                # overlay (WAL-logged, fsynced before ack);
//                                # --checkpoint folds the memtable into a
//                                # delta generation afterwards
//   mvpt delete --dir store/ --metric l1|l2|linf --id N [--checkpoint]
//                                # durably delete the object with stable id N
//   mvpt compact --dir store/ --metric l1|l2|linf [--threads N] [--prune]
//                                # major merge: fold memtable + tombstones
//                                # into a fresh full generation; --prune
//                                # removes generations no longer referenced
//   mvpt wal-dump --dir store/   # decode the write-ahead log: one line per
//                                # record, plus torn-tail diagnostics
//   mvpt connect --port P [--host H] [--stats NAME]
//                                # ping an mvpt-server, list its collections;
//                                # --stats dumps one collection's ServeStats
//   mvpt query --port P --collection NAME --point "x1,x2,..."
//              (--radius R | --knn K) [--host H] [--timeout-ms T]
//              [--max-distances N]  # remote query (--host/--port switch the
//                                # query subcommand into network mode)
//   mvpt batch-query --port P --collection NAME --input queries.csv
//                    (--radius R | --knn K) [--host H] [--timeout-ms T]
//                    [--max-distances N] [--verbose]
//                                # streaming batch over one connection; prints
//                                # ok/partial/expired/shed counts + latency
//   mvpt replicate --port P --collection NAME --dir store/ [--host H]
//                                # pull the leader's committed generation into
//                                # a local store (resumable, verified)
//   mvpt selftest          # end-to-end smoke test in a temp directory
//
// Text (edit-distance) mode: pass --type words to build/query/validate;
// the input file holds one word per line, --point becomes the query word,
// and the metric is the Levenshtein edit distance.
//
// CSV format: one vector per line, comma-separated decimal values. The
// metric is not stored in the index file; pass the same --metric used at
// build time when querying.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "dynamic/dynamic_overlay.h"
#include "dataset/histogram.h"
#include "dataset/vector_gen.h"
#include "harness/table.h"
#include "metric/edit_distance.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/replication.h"
#include "serve/executor.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/snapshot_store.h"
#include "wal/wal.h"

namespace mvp::tools {
namespace {

using metric::Vector;

/// One tree type per supported metric; the CLI dispatches on --metric.
using TreeL1 = core::MvpTree<Vector, metric::L1>;
using TreeL2 = core::MvpTree<Vector, metric::L2>;
using TreeLInf = core::MvpTree<Vector, metric::LInf>;

struct Args {
  std::map<std::string, std::string> named;
  std::string command;

  bool Has(const std::string& key) const { return named.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = named.find(key);
    return it == named.end() ? fallback : std::atof(it->second.c_str());
  }
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mvpt gen|build|stats|query|hist|validate|serve-bench|"
               "snapshot-save|snapshot-load|insert|delete|compact|wal-dump|"
               "connect|batch-query|replicate|selftest [--key value ...]\n"
               "see the header of tools/mvpt_cli.cc for full syntax\n");
  return 2;
}

// ---- CSV vectors -----------------------------------------------------------

Result<Vector> ParseVector(const std::string& line) {
  Vector v;
  const char* p = line.c_str();
  char* end = nullptr;
  while (*p != '\0') {
    const double value = std::strtod(p, &end);
    if (end == p) return Status::InvalidArgument("bad number in: " + line);
    v.push_back(value);
    p = end;
    while (*p == ',' || *p == ' ' || *p == '\t') ++p;
  }
  if (v.empty()) return Status::InvalidArgument("empty vector line");
  return v;
}

Result<std::vector<Vector>> LoadCsv(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<Vector> data;
  std::string line;
  for (const std::uint8_t byte : bytes.value()) {
    if (byte == '\n') {
      if (!line.empty()) {
        auto v = ParseVector(line);
        if (!v.ok()) return v.status();
        data.push_back(std::move(v).ValueOrDie());
      }
      line.clear();
    } else if (byte != '\r') {
      line.push_back(static_cast<char>(byte));
    }
  }
  if (!line.empty()) {
    auto v = ParseVector(line);
    if (!v.ok()) return v.status();
    data.push_back(std::move(v).ValueOrDie());
  }
  for (const auto& v : data) {
    if (v.size() != data[0].size()) {
      return Status::InvalidArgument("inconsistent vector dimensions in CSV");
    }
  }
  return data;
}

Status SaveCsv(const std::string& path, const std::vector<Vector>& data) {
  std::string out;
  char buf[32];
  for (const auto& v : data) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
      out += buf;
      if (i + 1 < v.size()) out += ',';
    }
    out += '\n';
  }
  return WriteFile(path, std::vector<std::uint8_t>(out.begin(), out.end()));
}

Result<std::vector<std::string>> LoadWords(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<std::string> words;
  std::string line;
  for (const std::uint8_t byte : bytes.value()) {
    if (byte == '\n') {
      if (!line.empty()) words.push_back(line);
      line.clear();
    } else if (byte != '\r') {
      line.push_back(static_cast<char>(byte));
    }
  }
  if (!line.empty()) words.push_back(line);
  if (words.empty()) return Status::InvalidArgument("no words in " + path);
  return words;
}

// ---- subcommands -----------------------------------------------------------

int RunGen(const Args& args) {
  const std::string kind = args.Get("kind", "uniform");
  const auto count = static_cast<std::size_t>(args.GetInt("count", 10000));
  const auto dim = static_cast<std::size_t>(args.GetInt("dim", 20));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("gen requires --out");
  std::vector<Vector> data;
  if (kind == "uniform") {
    data = dataset::UniformVectors(count, dim, seed);
  } else if (kind == "clustered") {
    dataset::ClusterParams params;
    params.count = count;
    params.dim = dim;
    params.cluster_size =
        static_cast<std::size_t>(args.GetInt("cluster-size", 1000));
    params.epsilon = args.GetDouble("epsilon", 0.15);
    data = dataset::ClusteredVectors(params, seed);
  } else {
    return Fail("unknown --kind (uniform|clustered)");
  }
  if (auto st = SaveCsv(out, data); !st.ok()) return Fail(st.ToString());
  std::printf("wrote %zu %zu-d vectors to %s\n", data.size(), dim,
              out.c_str());
  return 0;
}

template <typename Metric>
int BuildWith(const Args& args, std::vector<Vector> data, Metric metric) {
  typename core::MvpTree<Vector, Metric>::Options options;
  options.order = static_cast<int>(args.GetInt("order", 3));
  options.leaf_capacity = static_cast<int>(args.GetInt("leaf", 80));
  options.num_path_distances = static_cast<int>(args.GetInt("paths", 5));
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0));
  auto built = core::MvpTree<Vector, Metric>::Build(std::move(data),
                                                    std::move(metric), options);
  if (!built.ok()) return Fail(built.status().ToString());
  BinaryWriter writer;
  if (auto st = built.value().Serialize(&writer, VectorCodec()); !st.ok()) {
    return Fail(st.ToString());
  }
  const std::string out = args.Get("out");
  if (auto st = WriteFile(out, writer.buffer()); !st.ok()) {
    return Fail(st.ToString());
  }
  const auto stats = built.value().Stats();
  std::printf("built mvpt(%ld,%ld,p=%ld): %zu objects, height %zu, "
              "%llu construction distances -> %s (%zu bytes)\n",
              args.GetInt("order", 3), args.GetInt("leaf", 80),
              args.GetInt("paths", 5), built.value().size(), stats.height,
              static_cast<unsigned long long>(
                  stats.construction_distance_computations),
              out.c_str(), writer.buffer().size());
  return 0;
}

int RunBuild(const Args& args) {
  const std::string input = args.Get("input");
  const std::string out = args.Get("out");
  if (input.empty() || out.empty()) {
    return Fail("build requires --input and --out");
  }
  if (args.Get("type") == "words") {
    auto words = LoadWords(input);
    if (!words.ok()) return Fail(words.status().ToString());
    using WordTree = core::MvpTree<std::string, metric::Levenshtein>;
    WordTree::Options options;
    options.order = static_cast<int>(args.GetInt("order", 3));
    options.leaf_capacity = static_cast<int>(args.GetInt("leaf", 80));
    options.num_path_distances = static_cast<int>(args.GetInt("paths", 5));
    options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0));
    auto built = WordTree::Build(std::move(words).ValueOrDie(),
                                 metric::Levenshtein(), options);
    if (!built.ok()) return Fail(built.status().ToString());
    BinaryWriter writer;
    if (auto st = built.value().Serialize(&writer, StringCodec()); !st.ok()) {
      return Fail(st.ToString());
    }
    if (auto st = WriteFile(out, writer.buffer()); !st.ok()) {
      return Fail(st.ToString());
    }
    std::printf("built word index over %zu words -> %s (%zu bytes)\n",
                built.value().size(), out.c_str(), writer.buffer().size());
    return 0;
  }
  auto data = LoadCsv(input);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") {
    return BuildWith(args, std::move(data).ValueOrDie(), metric::L1());
  }
  if (metric == "l2") {
    return BuildWith(args, std::move(data).ValueOrDie(), metric::L2());
  }
  if (metric == "linf") {
    return BuildWith(args, std::move(data).ValueOrDie(), metric::LInf());
  }
  return Fail("unknown --metric (l1|l2|linf)");
}

template <typename Metric>
Result<core::MvpTree<Vector, Metric>> LoadIndex(const std::string& path,
                                                Metric metric) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  BinaryReader reader(bytes.value());
  return core::MvpTree<Vector, Metric>::Deserialize(&reader, std::move(metric),
                                                    VectorCodec());
}

template <typename Metric>
int QueryWith(const Args& args, Metric metric) {
  auto tree = LoadIndex(args.Get("index"), std::move(metric));
  if (!tree.ok()) return Fail(tree.status().ToString());
  auto point = ParseVector(args.Get("point"));
  if (!point.ok()) return Fail(point.status().ToString());
  SearchStats stats;
  std::vector<Neighbor> results;
  if (args.Has("radius")) {
    results = tree.value().RangeSearch(point.value(),
                                       args.GetDouble("radius", 0.0), &stats);
  } else if (args.Has("knn")) {
    results = tree.value().KnnSearch(
        point.value(), static_cast<std::size_t>(args.GetInt("knn", 1)),
        &stats);
  } else if (args.Has("farthest")) {
    results = tree.value().FarthestSearch(
        point.value(), static_cast<std::size_t>(args.GetInt("farthest", 1)),
        &stats);
  } else {
    return Fail("query requires one of --radius, --knn, --farthest");
  }
  std::printf("%zu results (%llu distance computations over %zu objects)\n",
              results.size(),
              static_cast<unsigned long long>(stats.distance_computations),
              tree.value().size());
  for (const auto& hit : results) {
    std::printf("  id=%zu distance=%.6f\n", hit.id, hit.distance);
  }
  return 0;
}

int RunQueryWords(const Args& args) {
  auto bytes = ReadFile(args.Get("index"));
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  BinaryReader reader(bytes.value());
  using WordTree = core::MvpTree<std::string, metric::Levenshtein>;
  auto tree =
      WordTree::Deserialize(&reader, metric::Levenshtein(), StringCodec());
  if (!tree.ok()) return Fail(tree.status().ToString());
  const std::string word = args.Get("point");
  if (word.empty()) return Fail("query --type words requires --point WORD");
  SearchStats stats;
  std::vector<Neighbor> results;
  if (args.Has("radius")) {
    results = tree.value().RangeSearch(word, args.GetDouble("radius", 1.0),
                                       &stats);
  } else if (args.Has("knn")) {
    results = tree.value().KnnSearch(
        word, static_cast<std::size_t>(args.GetInt("knn", 1)), &stats);
  } else {
    return Fail("query requires one of --radius, --knn");
  }
  std::printf("%zu results (%llu distance computations over %zu words)\n",
              results.size(),
              static_cast<unsigned long long>(stats.distance_computations),
              tree.value().size());
  for (const auto& hit : results) {
    std::printf("  %-20s edits=%.0f\n",
                tree.value().object(hit.id).c_str(), hit.distance);
  }
  return 0;
}

int RunQuery(const Args& args) {
  if (args.Get("index").empty()) return Fail("query requires --index");
  if (args.Get("type") == "words") return RunQueryWords(args);
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return QueryWith(args, metric::L1());
  if (metric == "l2") return QueryWith(args, metric::L2());
  if (metric == "linf") return QueryWith(args, metric::LInf());
  return Fail("unknown --metric (l1|l2|linf)");
}

template <typename Metric>
int HistWith(const Args& args, const std::vector<Vector>& data,
             Metric metric) {
  const double bucket = args.GetDouble("bucket", 0.01);
  if (bucket <= 0) return Fail("--bucket must be positive");
  const auto samples =
      static_cast<std::uint64_t>(args.GetInt("samples", 2000000));
  const auto hist = dataset::SampledPairsHistogram(data, metric, bucket,
                                                   samples, /*seed=*/99);
  dataset::PrintHistogram(std::cout, hist);
  return 0;
}

int RunHist(const Args& args) {
  const std::string input = args.Get("input");
  if (input.empty()) return Fail("hist requires --input");
  auto data = LoadCsv(input);
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return HistWith(args, data.value(), metric::L1());
  if (metric == "l2") return HistWith(args, data.value(), metric::L2());
  if (metric == "linf") return HistWith(args, data.value(), metric::LInf());
  return Fail("unknown --metric (l1|l2|linf)");
}

template <typename Metric>
int ValidateWith(const Args& args, Metric metric) {
  auto tree = LoadIndex(args.Get("index"), std::move(metric));
  if (!tree.ok()) return Fail(tree.status().ToString());
  if (auto st = tree.value().ValidateInvariants(); !st.ok()) {
    return Fail("index INVALID: " + st.ToString());
  }
  std::printf("index valid: %zu objects, all stored distances and shell "
              "bounds verified against the supplied metric\n",
              tree.value().size());
  return 0;
}

int RunValidate(const Args& args) {
  if (args.Get("index").empty()) return Fail("validate requires --index");
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return ValidateWith(args, metric::L1());
  if (metric == "l2") return ValidateWith(args, metric::L2());
  if (metric == "linf") return ValidateWith(args, metric::LInf());
  return Fail("unknown --metric (l1|l2|linf)");
}

int RunStats(const Args& args) {
  // Stats are metric-independent; load with L2.
  auto tree = LoadIndex(args.Get("index"), metric::L2());
  if (!tree.ok()) return Fail(tree.status().ToString());
  const auto stats = tree.value().Stats();
  const auto& options = tree.value().options();
  std::printf("mvpt(m=%d, k=%d, p=%d)\n", options.order, options.leaf_capacity,
              options.num_path_distances);
  std::printf("objects:          %zu\n", tree.value().size());
  std::printf("height:           %zu\n", stats.height);
  std::printf("internal nodes:   %zu\n", stats.num_internal_nodes);
  std::printf("leaf nodes:       %zu\n", stats.num_leaf_nodes);
  std::printf("vantage points:   %zu\n", stats.num_vantage_points);
  std::printf("leaf points:      %zu\n", stats.num_leaf_points);
  return 0;
}

// ---- serve-bench -----------------------------------------------------------

std::vector<std::size_t> ParseThreadList(const std::string& spec) {
  std::vector<std::size_t> threads;
  const char* p = spec.c_str();
  char* end = nullptr;
  while (*p != '\0') {
    const long value = std::strtol(p, &end, 10);
    if (end == p) break;
    if (value > 0) threads.push_back(static_cast<std::size_t>(value));
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return threads;
}

/// Throughput/latency benchmark for the serving layer: builds an unsharded
/// baseline tree and a sharded index over the same data, replays one batch
/// of queries serially (the baseline) and then on pools of increasing
/// size, checking every configuration returns bit-identical results.
int RunServeBench(const Args& args) {
  const auto count = static_cast<std::size_t>(args.GetInt("count", 20000));
  const auto dim = static_cast<std::size_t>(args.GetInt("dim", 20));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const auto shards = static_cast<std::size_t>(args.GetInt("shards", 4));
  const auto num_queries =
      static_cast<std::size_t>(args.GetInt("queries", 200));
  const auto timeout_ms = args.GetInt("timeout-ms", 0);  // 0: no deadline
  const std::vector<std::size_t> thread_counts =
      ParseThreadList(args.Get("threads", "1,2,4,8"));
  if (thread_counts.empty()) return Fail("--threads needs e.g. \"1,2,4\"");

  const auto data = dataset::UniformVectors(count, dim, seed);
  const auto query_points =
      dataset::UniformQueryVectors(num_queries, dim, seed + 1);
  std::vector<serve::BatchQuery<Vector>> batch;
  for (const auto& q : query_points) {
    serve::BatchQuery<Vector> bq;
    bq.object = q;
    if (args.Has("knn")) {
      bq.kind = serve::BatchQuery<Vector>::Kind::kKnn;
      bq.k = static_cast<std::size_t>(args.GetInt("knn", 10));
    } else {
      bq.radius = args.GetDouble("radius", 0.3);
    }
    if (timeout_ms > 0) bq.timeout = std::chrono::milliseconds(timeout_ms);
    batch.push_back(bq);
  }

  serve::ThreadPool build_pool(
      thread_counts.back() > 1 ? thread_counts.back() : 2);
  serve::ShardedMvpIndex<Vector, metric::L2>::Options options;
  options.num_shards = shards;
  const auto build_t0 = std::chrono::steady_clock::now();
  auto sharded = serve::ShardedMvpIndex<Vector, metric::L2>::Build(
      data, metric::L2(), options, &build_pool);
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - build_t0)
                              .count();
  if (!sharded.ok()) return Fail(sharded.status().ToString());
  auto plain = TreeL2::Build(data, metric::L2(), {});
  if (!plain.ok()) return Fail(plain.status().ToString());

  harness::PrintFigureHeader(
      std::cout, "serve-bench",
      "concurrent serving: batch throughput and tail latency",
      std::to_string(count) + " uniform " + std::to_string(dim) +
          "-d vectors, L2, " + std::to_string(shards) + " shards, " +
          std::to_string(batch.size()) + " queries/batch");

  // Baseline: unsharded tree, serial executor on the calling thread.
  const auto t0 = std::chrono::steady_clock::now();
  const auto baseline = serve::RunBatch(plain.value(), batch,
                                        /*pool=*/nullptr);
  const double base_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();

  harness::Table table({"config", "threads", "wall_ms", "qps", "speedup",
                        "p50_us", "p95_us", "p99_us", "shed"});
  table.AddRow({"unsharded-serial", "1", harness::FormatDouble(base_ms, 1),
                harness::FormatDouble(1000.0 * static_cast<double>(batch.size()) /
                                          base_ms,
                                      0),
                "1.0", "-", "-", "-", "0"});

  bool all_match = true;
  for (const std::size_t threads : thread_counts) {
    serve::ThreadPool pool(threads);
    serve::ServeStats stats;
    const auto start = std::chrono::steady_clock::now();
    const auto outcomes = serve::RunBatch(sharded.value(), batch, &pool,
                                          &stats);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const auto snap = stats.Snapshot();
    // Every configuration must return exactly the baseline's results
    // (unless a deadline was requested, which may legitimately shed).
    if (timeout_ms <= 0) {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].status.ok() ||
            outcomes[i].neighbors != baseline[i].neighbors) {
          all_match = false;
        }
      }
    }
    table.AddRow(
        {"sharded", std::to_string(threads),
         harness::FormatDouble(wall_ms, 1),
         harness::FormatDouble(
             1000.0 * static_cast<double>(batch.size()) / wall_ms, 0),
         harness::FormatDouble(base_ms / wall_ms, 2),
         harness::FormatDouble(static_cast<double>(snap.p50.count()) / 1e3, 0),
         harness::FormatDouble(static_cast<double>(snap.p95.count()) / 1e3, 0),
         harness::FormatDouble(static_cast<double>(snap.p99.count()) / 1e3, 0),
         std::to_string(snap.deadline_exceeded)});
  }
  std::cout << table.ToText();
  if (timeout_ms <= 0) {
    std::printf("results identical across all configurations: %s\n",
                all_match ? "yes" : "NO (BUG)");
    if (!all_match) return 1;
  }

  // Graceful-degradation demo: replay the batch with a tight deadline and
  // show how much of each answer survives as a harvested partial result.
  if (args.Has("deadline-partial")) {
    const long partial_ms = args.GetInt("deadline-partial", 1);
    auto degraded = batch;
    for (auto& bq : degraded) {
      bq.timeout = std::chrono::milliseconds(partial_ms > 0 ? partial_ms : 1);
    }
    serve::ThreadPool pool(thread_counts.back());
    serve::ServeStats stats;
    const auto outcomes =
        serve::RunBatch(sharded.value(), degraded, &pool, &stats);
    std::size_t harvested = 0, full_answers = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      harvested += outcomes[i].neighbors.size();
      full_answers += baseline[i].neighbors.size();
    }
    const auto snap = stats.Snapshot();
    harness::Table deg({"deadline_ms", "ok", "partial", "expired", "answer_%",
                        "degr_p50_us", "degr_p99_us"});
    deg.AddRow(
        {std::to_string(partial_ms), std::to_string(snap.ok),
         std::to_string(snap.partial), std::to_string(snap.deadline_exceeded),
         harness::FormatDouble(full_answers == 0
                                   ? 100.0
                                   : 100.0 * static_cast<double>(harvested) /
                                         static_cast<double>(full_answers),
                               1),
         harness::FormatDouble(
             static_cast<double>(snap.degraded_p50.count()) / 1e3, 0),
         harness::FormatDouble(
             static_cast<double>(snap.degraded_p99.count()) / 1e3, 0)});
    std::cout << deg.ToText();
    std::printf("deadline-expired queries returned their harvest instead of "
                "nothing: %zu/%zu neighbors served\n",
                harvested, full_answers);
  }

  // Overload demo: admission control bounds the work in flight; the excess
  // of a burst is shed immediately with ResourceExhausted, not queued into
  // uselessness.
  if (args.Has("overload")) {
    const auto in_flight =
        static_cast<std::size_t>(args.GetInt("overload", 8));
    serve::AdmissionController::Options admission_options;
    admission_options.max_in_flight = in_flight > 0 ? in_flight : 1;
    admission_options.num_workers = thread_counts.back();
    serve::AdmissionController admission(admission_options);
    serve::ExecutorOptions exec;
    exec.admission = &admission;

    serve::ThreadPool pool(thread_counts.back());
    serve::ServeStats stats;
    const auto start = std::chrono::steady_clock::now();
    const auto outcomes =
        serve::RunBatch(sharded.value(), batch, &pool, &stats, exec);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    // Per-query outcomes are summarized through `stats`; the table below
    // reads the aggregate snapshot.
    (void)outcomes;
    const auto snap = stats.Snapshot();
    harness::Table shed_table({"max_in_flight", "queries", "ok", "shed",
                               "wall_ms", "p99_us"});
    shed_table.AddRow(
        {std::to_string(admission_options.max_in_flight),
         std::to_string(snap.queries), std::to_string(snap.ok),
         std::to_string(snap.shed), harness::FormatDouble(wall_ms, 1),
         harness::FormatDouble(static_cast<double>(snap.p99.count()) / 1e3,
                               0)});
    std::cout << shed_table.ToText();
    std::printf("admission control shed %llu of %llu queries immediately "
                "(ResourceExhausted) instead of queueing them\n",
                static_cast<unsigned long long>(snap.shed),
                static_cast<unsigned long long>(snap.queries));
  }

  // Cold-start (build from raw data) vs warm-start (open the checksummed
  // snapshot's flat arenas straight off the mapping: one mmap and checksum
  // pass, no per-node decode) time to first query. The opened index must
  // answer every query bit-identically to the built one.
  if (args.Has("snapshot-dir")) {
    snapshot::SnapshotStore store(args.Get("snapshot-dir"));
    const auto save_t0 = std::chrono::steady_clock::now();
    auto gen = store.SaveFlat(sharded.value());
    const double save_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - save_t0)
                               .count();
    if (!gen.ok()) return Fail(gen.status().ToString());

    const auto load_t0 = std::chrono::steady_clock::now();
    auto loaded =
        store.LoadSharded<Vector>(metric::L2(), VectorCodec(), &build_pool);
    const double load_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - load_t0)
                               .count();
    if (!loaded.ok()) return Fail(loaded.status().ToString());

    auto first_query_ms = [&](const auto& index) {
      const auto q0 = std::chrono::steady_clock::now();
      // Timing probe: only the wall clock matters, not the hits.
      (void)index.RangeSearch(batch[0].object, batch[0].radius);
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - q0)
          .count();
    };
    const double cold_q = first_query_ms(sharded.value());
    const double warm_q = first_query_ms(loaded.value().index);

    harness::Table ttfq({"start", "prepare_ms", "first_query_ms", "ttfq_ms"});
    ttfq.AddRow({"cold (build)", harness::FormatDouble(build_ms, 1),
                 harness::FormatDouble(cold_q, 2),
                 harness::FormatDouble(build_ms + cold_q, 1)});
    ttfq.AddRow({"warm (snapshot)", harness::FormatDouble(load_ms, 1),
                 harness::FormatDouble(warm_q, 2),
                 harness::FormatDouble(load_ms + warm_q, 1)});
    std::cout << ttfq.ToText();

    bool match = true;
    for (const auto& bq : batch) {
      SearchStats bs, ls;
      if (bq.kind == serve::BatchQuery<Vector>::Kind::kKnn) {
        match &= sharded.value().KnnSearch(bq.object, bq.k, &bs) ==
                 loaded.value().index.KnnSearch(bq.object, bq.k, &ls);
      } else {
        match &= sharded.value().RangeSearch(bq.object, bq.radius, &bs) ==
                 loaded.value().index.RangeSearch(bq.object, bq.radius, &ls);
      }
      match &= bs.distance_computations == ls.distance_computations;
    }
    std::printf("snapshot generation %llu (save %.1f ms); warm start %.1fx "
                "faster to first query; results and distance counts "
                "identical to the built index: %s\n",
                static_cast<unsigned long long>(gen.value()), save_ms,
                (build_ms + cold_q) / (load_ms + warm_q),
                match ? "yes" : "NO (BUG)");
    if (!match) return 1;
  }
  return 0;
}

// ---- snapshot-save / snapshot-load -----------------------------------------

template <typename Metric>
int SnapshotSaveWith(const Args& args, std::vector<Vector> data,
                     Metric metric) {
  using Index = serve::ShardedMvpIndex<Vector, Metric>;
  typename Index::Options options;
  options.num_shards = static_cast<std::size_t>(args.GetInt("shards", 4));
  options.tree.order = static_cast<int>(args.GetInt("order", 3));
  options.tree.leaf_capacity = static_cast<int>(args.GetInt("leaf", 80));
  options.tree.num_path_distances =
      static_cast<int>(args.GetInt("paths", 5));
  options.tree.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0));

  const auto threads = static_cast<std::size_t>(args.GetInt("threads", 2));
  serve::ThreadPool pool(threads > 0 ? threads : 1);
  const auto t0 = std::chrono::steady_clock::now();
  auto built = Index::Build(std::move(data), std::move(metric), options,
                            &pool);
  if (!built.ok()) return Fail(built.status().ToString());
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  snapshot::SnapshotStore store(args.Get("dir"));
  const auto t1 = std::chrono::steady_clock::now();
  auto gen = store.SaveFlat(built.value());
  if (!gen.ok()) return Fail(gen.status().ToString());
  const double save_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t1)
                             .count();
  std::printf("flat snapshot generation %llu committed: %zu objects in %zu "
              "shards (build %.1f ms, save %.1f ms) -> %s\n",
              static_cast<unsigned long long>(gen.value()),
              built.value().size(), built.value().num_shards(), build_ms,
              save_ms, store.GenerationDir(gen.value()).c_str());
  return 0;
}

int RunSnapshotSave(const Args& args) {
  if (args.Get("input").empty() || args.Get("dir").empty()) {
    return Fail("snapshot-save requires --input and --dir");
  }
  auto data = LoadCsv(args.Get("input"));
  if (!data.ok()) return Fail(data.status().ToString());
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") {
    return SnapshotSaveWith(args, std::move(data).ValueOrDie(), metric::L1());
  }
  if (metric == "l2") {
    return SnapshotSaveWith(args, std::move(data).ValueOrDie(), metric::L2());
  }
  if (metric == "linf") {
    return SnapshotSaveWith(args, std::move(data).ValueOrDie(),
                            metric::LInf());
  }
  return Fail("unknown --metric (l1|l2|linf)");
}

template <typename Metric>
int SnapshotLoadWith(const Args& args, Metric metric) {
  snapshot::SnapshotStore store(args.Get("dir"));
  const auto threads = static_cast<std::size_t>(args.GetInt("threads", 2));
  serve::ThreadPool pool(threads > 0 ? threads : 1);

  const auto t0 = std::chrono::steady_clock::now();
  auto loaded =
      store.LoadSharded<Vector>(std::move(metric), VectorCodec(), &pool);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  const auto& manifest = loaded.value().manifest;
  std::printf("%s generation %llu in %.1f ms (checksums verified): "
              "%llu objects, %llu shards, mvpt(m=%d, k=%d, p=%d), seed %llu\n",
              manifest.index_kind == snapshot::IndexKind::kFlatShardedMvpIndex
                  ? "opened flat (zero-deserialization)"
                  : "loaded",
              static_cast<unsigned long long>(loaded.value().generation),
              load_ms,
              static_cast<unsigned long long>(manifest.object_count),
              static_cast<unsigned long long>(manifest.num_shards),
              manifest.order, manifest.leaf_capacity,
              manifest.num_path_distances,
              static_cast<unsigned long long>(manifest.seed));

  if (args.Has("point")) {
    auto point = ParseVector(args.Get("point"));
    if (!point.ok()) return Fail(point.status().ToString());
    core::SearchContext context{.pool = &pool};
    const core::SearchRequest<Vector> request{
        .kind = args.Has("knn") ? core::SearchKind::kKnn
                                : core::SearchKind::kRange,
        .object = point.value(),
        .radius = args.GetDouble("radius", 0.3),
        .k = static_cast<std::size_t>(args.GetInt("knn", 1))};
    const auto q0 = std::chrono::steady_clock::now();
    const std::vector<Neighbor> results =
        core::Answer(loaded.value().index, request, context);
    const SearchStats& stats = context.stats;
    const double query_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - q0)
                                .count();
    std::printf("%zu results in %.2f ms (%llu distance computations); "
                "time to first query: %.1f ms\n",
                results.size(), query_ms,
                static_cast<unsigned long long>(stats.distance_computations),
                load_ms + query_ms);
    // Compacted dynamic generations carry a dense-id -> stable-id map;
    // report stable ids so the output matches what insert/delete accept.
    const auto& stable = loaded.value().stable_ids;
    for (const auto& hit : results) {
      std::printf("  id=%llu distance=%.6f\n",
                  static_cast<unsigned long long>(
                      hit.id < stable.size() ? stable[hit.id] : hit.id),
                  hit.distance);
    }
  }
  return 0;
}

int RunSnapshotLoad(const Args& args) {
  if (args.Get("dir").empty()) return Fail("snapshot-load requires --dir");
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return SnapshotLoadWith(args, metric::L1());
  if (metric == "l2") return SnapshotLoadWith(args, metric::L2());
  if (metric == "linf") return SnapshotLoadWith(args, metric::LInf());
  return Fail("unknown --metric (l1|l2|linf)");
}

// ---- insert / delete / compact / wal-dump (online updates) -----------------

template <typename Metric>
int MutateWith(const Args& args, Metric metric, bool erase) {
  using Overlay = dynamic::DynamicOverlay<Vector, Metric, VectorCodec>;
  auto opened =
      Overlay::Open(args.Get("dir"), std::move(metric), VectorCodec());
  if (!opened.ok()) return Fail(opened.status().ToString());
  Overlay& overlay = *opened.value();

  if (erase) {
    if (!args.Has("id")) return Fail("delete requires --id");
    const auto id = static_cast<std::size_t>(args.GetInt("id", 0));
    const Status erased = overlay.Erase(id);
    if (!erased.ok()) return Fail(erased.ToString());
    std::printf("deleted id=%zu (durable)\n", id);
  } else {
    std::vector<Vector> points;
    if (args.Has("point")) {
      auto point = ParseVector(args.Get("point"));
      if (!point.ok()) return Fail(point.status().ToString());
      points.push_back(std::move(point).ValueOrDie());
    } else if (args.Has("input")) {
      auto data = LoadCsv(args.Get("input"));
      if (!data.ok()) return Fail(data.status().ToString());
      points = std::move(data).ValueOrDie();
    } else {
      return Fail("insert requires --point or --input");
    }
    std::size_t first = 0, last = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      auto id = overlay.Insert(std::move(points[i]));
      if (!id.ok()) return Fail(id.status().ToString());
      if (i == 0) first = id.value();
      last = id.value();
    }
    if (points.size() == 1) {
      std::printf("inserted id=%zu (durable)\n", first);
    } else {
      std::printf("inserted %zu objects, ids %zu..%zu (durable)\n",
                  points.size(), first, last);
    }
  }

  if (args.Has("checkpoint")) {
    auto gen = overlay.Checkpoint();
    if (!gen.ok()) return Fail(gen.status().ToString());
    std::printf("checkpointed into generation %llu\n",
                static_cast<unsigned long long>(gen.value()));
  }
  const auto wal = overlay.wal_stats();
  std::printf("store: %zu live objects (%zu in memtable, %zu tombstones); "
              "wal: %llu records in %llu fsync batches\n",
              overlay.size(), overlay.memtable_size(),
              overlay.tombstone_count(),
              static_cast<unsigned long long>(wal.records_synced),
              static_cast<unsigned long long>(wal.sync_batches));
  return 0;
}

int RunMutate(const Args& args, bool erase) {
  if (args.Get("dir").empty()) return Fail("insert/delete require --dir");
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return MutateWith(args, metric::L1(), erase);
  if (metric == "l2") return MutateWith(args, metric::L2(), erase);
  if (metric == "linf") return MutateWith(args, metric::LInf(), erase);
  return Fail("unknown --metric (l1|l2|linf)");
}

template <typename Metric>
int CompactWith(const Args& args, Metric metric) {
  using Overlay = dynamic::DynamicOverlay<Vector, Metric, VectorCodec>;
  auto opened =
      Overlay::Open(args.Get("dir"), std::move(metric), VectorCodec());
  if (!opened.ok()) return Fail(opened.status().ToString());
  Overlay& overlay = *opened.value();

  const std::size_t memtable = overlay.memtable_size();
  const std::size_t tombstones = overlay.tombstone_count();
  const auto threads = static_cast<std::size_t>(args.GetInt("threads", 2));
  serve::ThreadPool pool(threads > 0 ? threads : 1);
  const auto t0 = std::chrono::steady_clock::now();
  auto gen = overlay.Compact(&pool);
  if (!gen.ok()) return Fail(gen.status().ToString());
  const double compact_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  std::printf("compacted %zu memtable objects + %zu tombstones into full "
              "generation %llu (%zu objects, %.1f ms)\n",
              memtable, tombstones,
              static_cast<unsigned long long>(gen.value()), overlay.size(),
              compact_ms);
  if (args.Has("prune")) {
    snapshot::SnapshotStore store(args.Get("dir"));
    auto pruned = store.PruneStaleGenerations();
    if (!pruned.ok()) return Fail(pruned.status().ToString());
    std::printf("pruned %zu stale generation(s)\n", pruned.value());
  }
  return 0;
}

int RunCompact(const Args& args) {
  if (args.Get("dir").empty()) return Fail("compact requires --dir");
  const std::string metric = args.Get("metric", "l2");
  if (metric == "l1") return CompactWith(args, metric::L1());
  if (metric == "l2") return CompactWith(args, metric::L2());
  if (metric == "linf") return CompactWith(args, metric::LInf());
  return Fail("unknown --metric (l1|l2|linf)");
}

int RunWalDump(const Args& args) {
  if (args.Get("dir").empty()) return Fail("wal-dump requires --dir");
  const std::string path = args.Get("dir") + "/" + wal::kWalFileName;
  auto log = wal::ReadWal(path);
  if (!log.ok()) return Fail(log.status().ToString());
  for (const auto& record : log.value().records) {
    if (record.op == wal::WalOp::kInsert) {
      // The payload is the codec-encoded object; decode just enough to
      // report its shape.
      BinaryReader reader(record.payload.data(), record.payload.size());
      Vector v;
      const Status decoded = VectorCodec().Read(reader, &v);
      if (decoded.ok() && reader.AtEnd()) {
        std::printf("seq=%llu insert id=%llu dim=%zu\n",
                    static_cast<unsigned long long>(record.seq),
                    static_cast<unsigned long long>(record.id), v.size());
      } else {
        std::printf("seq=%llu insert id=%llu payload=%zu bytes "
                    "(not a vector)\n",
                    static_cast<unsigned long long>(record.seq),
                    static_cast<unsigned long long>(record.id),
                    record.payload.size());
      }
    } else {
      std::printf("seq=%llu delete id=%llu\n",
                  static_cast<unsigned long long>(record.seq),
                  static_cast<unsigned long long>(record.id));
    }
  }
  std::printf("%zu records, %llu valid bytes%s\n", log.value().records.size(),
              static_cast<unsigned long long>(log.value().valid_bytes),
              log.value().torn_tail
                  ? " + a torn tail (repaired on next recovery)"
                  : "");
  return 0;
}

int RunSelfTest() {
  const std::string dir = std::getenv("TMPDIR") != nullptr
                              ? std::string(std::getenv("TMPDIR"))
                              : std::string("/tmp");
  const std::string csv = dir + "/mvpt_selftest.csv";
  const std::string idx = dir + "/mvpt_selftest.mvpt";
  Args gen;
  gen.named = {{"kind", "uniform"}, {"count", "2000"}, {"dim", "8"},
               {"seed", "7"},       {"out", csv}};
  if (RunGen(gen) != 0) return 1;
  Args build;
  build.named = {{"input", csv}, {"metric", "l2"}, {"out", idx}};
  if (RunBuild(build) != 0) return 1;
  Args stats;
  stats.named = {{"index", idx}};
  if (RunStats(stats) != 0) return 1;
  Args validate;
  validate.named = {{"index", idx}, {"metric", "l2"}};
  if (RunValidate(validate) != 0) return 1;
  Args hist;
  hist.named = {{"input", csv}, {"metric", "l2"}, {"samples", "20000"}};
  if (RunHist(hist) != 0) return 1;
  Args query;
  query.named = {{"index", idx},
                 {"metric", "l2"},
                 {"point", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"},
                 {"knn", "5"}};
  if (RunQuery(query) != 0) return 1;
  Args farthest = query;
  farthest.named.erase("knn");
  farthest.named["farthest"] = "3";
  if (RunQuery(farthest) != 0) return 1;
  // Snapshot round trip through the store.
  const std::string snap_dir = dir + "/mvpt_selftest_snap";
  Args snap_save;
  snap_save.named = {{"input", csv}, {"metric", "l2"}, {"dir", snap_dir},
                     {"shards", "3"}};
  if (RunSnapshotSave(snap_save) != 0) return 1;
  Args snap_load;
  snap_load.named = {{"dir", snap_dir},
                     {"metric", "l2"},
                     {"point", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"},
                     {"knn", "3"}};
  if (RunSnapshotLoad(snap_load) != 0) return 1;
  std::filesystem::remove_all(snap_dir);
  // Online updates: WAL-logged mutations on a fresh store, visible to a
  // plain snapshot-load after compaction.
  const std::string dyn_dir = dir + "/mvpt_selftest_dyn";
  std::filesystem::remove_all(dyn_dir);
  std::filesystem::create_directories(dyn_dir);
  const std::string small_csv = dir + "/mvpt_selftest_small.csv";
  Args small_gen;
  small_gen.named = {{"kind", "uniform"}, {"count", "200"}, {"dim", "8"},
                     {"seed", "9"},       {"out", small_csv}};
  if (RunGen(small_gen) != 0) return 1;
  Args ins;
  ins.named = {{"dir", dyn_dir}, {"metric", "l2"}, {"input", small_csv}};
  if (RunMutate(ins, /*erase=*/false) != 0) return 1;
  Args del;
  del.named = {{"dir", dyn_dir}, {"metric", "l2"}, {"id", "0"}};
  if (RunMutate(del, /*erase=*/true) != 0) return 1;
  Args dump;
  dump.named = {{"dir", dyn_dir}};
  if (RunWalDump(dump) != 0) return 1;
  Args compact;
  compact.named = {{"dir", dyn_dir}, {"metric", "l2"}, {"prune", "1"}};
  if (RunCompact(compact) != 0) return 1;
  Args dyn_load;
  dyn_load.named = {{"dir", dyn_dir},
                    {"metric", "l2"},
                    {"point", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"},
                    {"knn", "3"}};
  if (RunSnapshotLoad(dyn_load) != 0) return 1;
  std::filesystem::remove_all(dyn_dir);
  std::remove(small_csv.c_str());
  // Word-mode round trip.
  const std::string words_txt = dir + "/mvpt_selftest_words.txt";
  const std::string words_idx = dir + "/mvpt_selftest_words.mvpt";
  if (!WriteFile(words_txt, {'h','e','l','l','o','\n','w','o','r','l','d','\n',
                             'h','e','l','p','\n'})
           .ok()) {
    return 1;
  }
  Args wbuild;
  wbuild.named = {{"input", words_txt}, {"type", "words"},
                  {"out", words_idx}, {"leaf", "4"}};
  if (RunBuild(wbuild) != 0) return 1;
  Args wquery;
  wquery.named = {{"index", words_idx}, {"type", "words"},
                  {"point", "helo"}, {"radius", "1"}};
  if (RunQuery(wquery) != 0) return 1;
  std::remove(csv.c_str());
  std::remove(idx.c_str());
  std::remove(words_txt.c_str());
  std::remove(words_idx.c_str());
  std::printf("selftest ok\n");
  return 0;
}

// ---- network subcommands ---------------------------------------------------

#if defined(MVPTREE_FAULT_FS_POSIX)

Result<net::Client> ConnectFromArgs(const Args& args) {
  if (!args.Has("port")) return Status::InvalidArgument("--port is required");
  return net::Client::Connect(
      args.Get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(args.GetInt("port", 0)));
}

net::WireQuery WireQueryFromArgs(const Args& args, Vector point) {
  net::WireQuery query;
  query.point = std::move(point);
  if (args.Has("knn")) {
    query.kind = 1;
    query.k = static_cast<std::uint64_t>(args.GetInt("knn", 1));
  } else {
    query.kind = 0;
    query.radius = args.GetDouble("radius", 0.0);
  }
  if (args.Has("timeout-ms")) {
    query.timeout_ns =
        static_cast<std::uint64_t>(args.GetInt("timeout-ms", 0)) * 1000000ull;
  }
  query.max_distance_computations =
      static_cast<std::uint64_t>(args.GetInt("max-distances", 0));
  return query;
}

const char* OutcomeLabel(const net::WireOutcome& outcome) {
  if (outcome.status_code == 0) return "ok";
  if (outcome.partial) return "partial";
  if (outcome.status_code ==
      static_cast<std::uint32_t>(StatusCode::kResourceExhausted)) {
    return "shed";
  }
  return "error";
}

int RunConnect(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  Status pinged = client.value().Ping();
  if (!pinged.ok()) return Fail(pinged.ToString());
  auto collections = client.value().ListCollections();
  if (!collections.ok()) return Fail(collections.status().ToString());
  std::printf("connected; %zu collection(s)\n", collections.value().size());
  for (const auto& info : collections.value()) {
    std::printf("  %-16s metric=%-4s mode=%-7s generation=%llu size=%llu\n",
                info.name.c_str(), info.metric.c_str(),
                info.dynamic ? "dynamic" : "static",
                static_cast<unsigned long long>(info.generation),
                static_cast<unsigned long long>(info.size));
  }
  if (args.Has("stats")) {
    auto stats = client.value().Stats(args.Get("stats"));
    if (!stats.ok()) return Fail(stats.status().ToString());
    const auto& s = stats.value();
    std::printf("stats for %s:\n", args.Get("stats").c_str());
    std::printf(
        "  queries=%llu ok=%llu partial=%llu deadline_exceeded=%llu "
        "shed=%llu\n",
        static_cast<unsigned long long>(s.queries),
        static_cast<unsigned long long>(s.ok),
        static_cast<unsigned long long>(s.partial),
        static_cast<unsigned long long>(s.deadline_exceeded),
        static_cast<unsigned long long>(s.shed));
    std::printf(
        "  distance_computations=%llu results_returned=%llu\n",
        static_cast<unsigned long long>(s.distance_computations),
        static_cast<unsigned long long>(s.results_returned));
    std::printf("  latency p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
                s.p50.count() / 1e6, s.p95.count() / 1e6, s.p99.count() / 1e6,
                s.max.count() / 1e6);
  }
  return 0;
}

int RunRemoteQuery(const Args& args) {
  const std::string collection = args.Get("collection");
  if (collection.empty()) return Fail("remote query requires --collection");
  if (!args.Has("radius") && !args.Has("knn")) {
    return Fail("query requires one of --radius, --knn");
  }
  auto point = ParseVector(args.Get("point"));
  if (!point.ok()) return Fail(point.status().ToString());
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  auto outcome = client.value().Query(
      collection, WireQueryFromArgs(args, std::move(point).ValueOrDie()));
  if (!outcome.ok()) return Fail(outcome.status().ToString());
  const net::WireOutcome& result = outcome.value();
  if (result.status_code != 0 && !result.partial) {
    return Fail(result.status().ToString());
  }
  std::printf("%zu results%s (%llu distance computations, %.3f ms)\n",
              result.neighbors.size(), result.partial ? " [partial]" : "",
              static_cast<unsigned long long>(result.distance_computations),
              result.latency_ns / 1e6);
  for (const auto& hit : result.neighbors) {
    std::printf("  id=%zu distance=%.6f\n", hit.id, hit.distance);
  }
  return 0;
}

int RunBatchQuery(const Args& args) {
  const std::string collection = args.Get("collection");
  if (collection.empty()) return Fail("batch-query requires --collection");
  if (!args.Has("radius") && !args.Has("knn")) {
    return Fail("batch-query requires one of --radius, --knn");
  }
  auto points = LoadCsv(args.Get("input"));
  if (!points.ok()) return Fail(points.status().ToString());
  std::vector<net::WireQuery> queries;
  queries.reserve(points.value().size());
  for (Vector& point : points.value()) {
    queries.push_back(WireQueryFromArgs(args, std::move(point)));
  }
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  auto outcomes = client.value().BatchQuery(collection, queries);
  if (!outcomes.ok()) return Fail(outcomes.status().ToString());
  std::size_t ok = 0, partial = 0, expired = 0, shed = 0, errors = 0;
  std::uint64_t distances = 0, results = 0, max_latency_ns = 0;
  for (const auto& outcome : outcomes.value()) {
    if (outcome.status_code == 0) {
      ++ok;
    } else if (outcome.partial) {
      ++partial;
    } else if (outcome.status_code ==
               static_cast<std::uint32_t>(StatusCode::kResourceExhausted)) {
      ++shed;
    } else if (outcome.status_code ==
               static_cast<std::uint32_t>(StatusCode::kDeadlineExceeded)) {
      ++expired;
    } else {
      ++errors;
    }
    distances += outcome.distance_computations;
    results += outcome.neighbors.size();
    max_latency_ns = std::max(max_latency_ns, outcome.latency_ns);
  }
  std::printf(
      "%zu queries: ok=%zu partial=%zu expired=%zu shed=%zu errors=%zu "
      "(%llu results, %llu distance computations, max latency %.3f ms)\n",
      outcomes.value().size(), ok, partial, expired, shed, errors,
      static_cast<unsigned long long>(results),
      static_cast<unsigned long long>(distances), max_latency_ns / 1e6);
  if (args.Has("verbose")) {
    for (std::size_t i = 0; i < outcomes.value().size(); ++i) {
      const auto& outcome = outcomes.value()[i];
      std::printf("  #%zu %s: %zu results, %llu distances, %.3f ms\n", i,
                  OutcomeLabel(outcome), outcome.neighbors.size(),
                  static_cast<unsigned long long>(
                      outcome.distance_computations),
                  outcome.latency_ns / 1e6);
    }
  }
  return 0;
}

int RunReplicate(const Args& args) {
  const std::string collection = args.Get("collection");
  const std::string dir = args.Get("dir");
  if (collection.empty() || dir.empty()) {
    return Fail("replicate requires --collection and --dir");
  }
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  auto generation =
      net::PullGeneration(client.value(), collection, dir);
  if (!generation.ok()) return Fail(generation.status().ToString());
  std::printf("store %s now serves generation %llu of %s\n", dir.c_str(),
              static_cast<unsigned long long>(generation.value()),
              collection.c_str());
  return 0;
}

#else  // !MVPTREE_FAULT_FS_POSIX

int RunConnect(const Args&) { return Fail("network mode requires POSIX"); }
int RunRemoteQuery(const Args&) { return Fail("network mode requires POSIX"); }
int RunBatchQuery(const Args&) { return Fail("network mode requires POSIX"); }
int RunReplicate(const Args&) { return Fail("network mode requires POSIX"); }

#endif  // MVPTREE_FAULT_FS_POSIX

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return Usage();
    const std::string key = arg + 2;
    // A key followed by another --key (or nothing) is a bare flag, e.g.
    // --prune; Has() sees it and GetInt falls back to its default. Any key
    // is accepted, so a retired flag such as --flat is simply ignored.
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr || std::strncmp(value, "--", 2) == 0) {
      args.named[key] = std::string("1");
    } else {
      args.named[key] = std::string(value);
      ++i;
    }
  }
  if (args.command == "gen") return RunGen(args);
  if (args.command == "build") return RunBuild(args);
  if (args.command == "stats") return RunStats(args);
  if (args.command == "hist") return RunHist(args);
  if (args.command == "validate") return RunValidate(args);
  if (args.command == "query") {
    // --host/--port flips query into network mode against an mvpt-server.
    return args.Has("port") || args.Has("host") ? RunRemoteQuery(args)
                                                : RunQuery(args);
  }
  if (args.command == "connect") return RunConnect(args);
  if (args.command == "batch-query") return RunBatchQuery(args);
  if (args.command == "replicate") return RunReplicate(args);
  if (args.command == "serve-bench") return RunServeBench(args);
  if (args.command == "snapshot-save") return RunSnapshotSave(args);
  if (args.command == "snapshot-load") return RunSnapshotLoad(args);
  if (args.command == "insert") return RunMutate(args, /*erase=*/false);
  if (args.command == "delete") return RunMutate(args, /*erase=*/true);
  if (args.command == "compact") return RunCompact(args);
  if (args.command == "wal-dump") return RunWalDump(args);
  if (args.command == "selftest") return RunSelfTest();
  return Usage();
}

}  // namespace
}  // namespace mvp::tools

int main(int argc, char** argv) { return mvp::tools::Main(argc, argv); }
