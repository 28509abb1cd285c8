#ifndef MVPTREE_FAULT_FAILPOINT_H_
#define MVPTREE_FAULT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// Deterministic fault injection, in the LevelDB/RocksDB sync-point style.
///
/// Production code marks interesting failure sites with named failpoints —
/// either the `MVP_FAILPOINT(name)` macro for logic-level sites ("pretend
/// this load failed") or, for syscall-level sites, the `fault::fs` seam in
/// fault_fs.h which evaluates failpoints internally. Tests *arm* a failpoint
/// by name with a trigger policy (fire on the Nth evaluation, fire the first
/// K times, fire with seeded probability p, fire only for paths containing a
/// substring) and the marked site misbehaves on demand; everything is exact
/// and replayable, no real disk needs to fill up.
///
/// Cost when nothing is armed — the only state production ever sees — is a
/// single relaxed atomic load per site. The registry mutex is taken only
/// while at least one failpoint is armed (i.e. inside tests).
///
/// This header depends on nothing but the standard library so that low-level
/// code (common/serialize.cc, snapshot/mmap_file.h) can include it without
/// layering cycles.
///
/// Thread-safety analysis: the registry's map lives behind an annotated
/// mvp::Mutex in failpoint.cc (MVP_GUARDED_BY); the armed-count fast path
/// is a lone relaxed atomic, deliberately outside any capability.

namespace mvp::fault {

/// Trigger policy plus the behaviour the injection site should exhibit.
/// Trigger fields compose: an evaluation fires iff its detail string matches
/// `match`, at least `skip` matching evaluations came before it, fewer than
/// `max_fires` fires have happened, and the seeded coin lands under
/// `probability`.
struct FailpointConfig {
  /// Matching evaluations ignored before the failpoint starts firing.
  /// `skip = 2` fires on the 3rd matching evaluation — this is how tests
  /// walk a sequence of identical syscalls ("fail the 2nd write").
  std::uint64_t skip = 0;

  /// Fires after which the failpoint goes quiet again. 1 = one-shot
  /// (the classic "transient failure"); default = unlimited.
  std::uint64_t max_fires = UINT64_MAX;

  /// Probability that an eligible evaluation fires, decided by an RNG
  /// seeded with `seed` (so probabilistic runs replay exactly).
  double probability = 1.0;
  std::uint64_t seed = 0;

  /// If non-empty, only evaluations whose detail string (e.g. the file path
  /// at an fs seam site) contains this substring are considered at all —
  /// they alone are counted, skipped, and fired.
  std::string match;

  /// -- Behaviour hints, interpreted by the injection site. --------------

  /// errno the fault_fs seam reports when this fires (0 = seam default EIO).
  int error_code = 0;

  /// fault_fs: throw CrashError instead of returning an error, simulating
  /// the process dying at that exact syscall. See fault_fs.h.
  bool crash = false;

  /// fault_fs write sites: on the first fire, actually write this many bytes
  /// (a short write that made partial progress); later fires fail outright.
  /// Negative = disabled.
  std::int64_t short_write = -1;
};

/// Process-wide registry of named failpoints. All methods are thread-safe.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// Arms (or re-arms, resetting counters) `name` with `config`.
  void Arm(const std::string& name, FailpointConfig config);

  /// Disarms `name`; evaluations of it become free again. No-op if unknown.
  void Disarm(const std::string& name);

  /// Disarms everything. Tests call this in TearDown so state never leaks
  /// across test cases.
  void DisarmAll();

  /// Evaluates failpoint `name` for an event described by `detail` (the
  /// fault_fs seam passes the file path; MVP_FAILPOINT passes nothing).
  /// Returns true if the site should misbehave; if so and `config` is
  /// non-null, the armed config is copied out so the site can read the
  /// behaviour hints (error_code / crash / short_write), and
  /// `fire_ordinal` (when non-null) receives this fire's 1-based ordinal —
  /// which lets a write site make partial progress on the first fire and
  /// fail hard on the next.
  bool Fire(const std::string& name, std::string_view detail = {},
            FailpointConfig* config = nullptr,
            std::uint64_t* fire_ordinal = nullptr);

  /// True iff any failpoint is armed. One relaxed load; this is the
  /// fast-path guard MVP_FAILPOINT and the fs seam use.
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Observability for tests: matching evaluations / fires of `name` since
  /// it was last armed (0 if not armed).
  std::uint64_t evaluations(const std::string& name);
  std::uint64_t fires(const std::string& name);

 private:
  Failpoints() = default;
  struct Impl;
  Impl& impl();

  static std::atomic<int> armed_count_;
};

/// Arms `name` for the lifetime of the scope, then disarms it. The idiomatic
/// way to inject inside a test body.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointConfig config)
      : name_(std::move(name)) {
    Failpoints::Instance().Arm(name_, std::move(config));
  }
  ~ScopedFailpoint() { Failpoints::Instance().Disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace mvp::fault

/// Evaluates to true when the named failpoint is armed and fires. Use in
/// production code as:
///
///   if (MVP_FAILPOINT("wal/sync")) return Status::IOError("injected");
///
/// Disarmed cost: one relaxed atomic load and a predicted-not-taken branch.
#define MVP_FAILPOINT(name) \
  (::mvp::fault::Failpoints::AnyArmed() && \
   ::mvp::fault::Failpoints::Instance().Fire((name)))

#endif  // MVPTREE_FAULT_FAILPOINT_H_
