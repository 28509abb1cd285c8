#ifndef MVPT_PERFBENCH_BENCH_SUPPORT_H_
#define MVPT_PERFBENCH_BENCH_SUPPORT_H_

/// \file
/// Measurement plumbing for the served mvp-tree benchmark: raw-sample
/// percentiles, the in-memory span tracer, process and host metadata, and
/// the result line. Nothing here touches the index; mvpbench.cc reaches
/// every layer through its public functions.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Raw samples of one quantity. Percentiles are nearest-rank on the sorted
/// samples — never histogram bucket bounds.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank quantile: the ceil(q * n)-th smallest sample.
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0
                   : std::min(sorted.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
    return sorted[idx];
  }
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One call into one layer for one operation. Spans of one operation share
/// `op`; `parent` names the next-outer layer of the chain.
struct Span {
  std::uint64_t op = 0;
  std::string layer;
  std::string parent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Keeps spans in memory; writes them out once, when the run ends.
class Tracer {
 public:
  template <typename Fn>
  auto Record(std::uint64_t op, const char* layer, const char* parent,
              Fn&& fn) {
    const std::int64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back(Span{op, layer, parent, start, NowNs()});
    } else {
      auto result = fn();
      spans_.push_back(Span{op, layer, parent, start, NowNs()});
      return result;
    }
  }

  /// Total duration of `layer` spans for `op` (a layer may be entered more
  /// than once per operation, e.g. once per shard).
  double LayerUs(std::uint64_t op, const std::string& layer) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.op == op && s.layer == layer) us += s.dur_us();
    }
    return us;
  }

  std::size_t size() const { return spans_.size(); }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"op\":" << s.op << ",\"layer\":\"" << s.layer
          << "\",\"parent\":\"" << s.parent << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Named metrics in report order, each with its unit and (for percentiles)
/// the number of raw samples behind it.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e = Entry{name, value, unit, samples};
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit, samples});
  }

  /// Human-readable lines, one metric each, with sample counts.
  void Print(const std::string& workload, FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "%-10s %-26s %16.9g %-6s", workload.c_str(),
                   e.name.c_str(), e.value, e.unit.c_str());
      if (e.samples > 0) std::fprintf(out, " (n=%zu)", e.samples);
      std::fprintf(out, "\n");
    }
  }

  /// The result object, with every digit of each value.
  std::string ResultJson(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + entries_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    json += "}}";
    return json;
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set of this process so far, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Filesystem type of `path` from statfs(2)'s magic number.
inline std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

inline long OnlineCpus() { return sysconf(_SC_NPROCESSORS_ONLN); }

}  // namespace perfbench

#endif  // MVPT_PERFBENCH_BENCH_SUPPORT_H_
