#ifndef MVPTREE_SERVE_CANCEL_H_
#define MVPTREE_SERVE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <utility>

#include "metric/counting.h"

/// \file
/// Cooperative cancellation for searches in flight.
///
/// The index structures in this library are recursive template code with no
/// natural preemption point — except one: every unit of work they do is a
/// metric evaluation (the paper's cost measure). The serving layer therefore
/// injects its cancellation checks exactly there. `CancelChecked<M>` wraps a
/// metric so that each distance computation first consults the calling
/// thread's active `CancelScope`; when the scope's token has been cancelled
/// or its deadline has passed, the evaluation throws `CancelledError`, which
/// unwinds the search and is caught by the executor (never leaks to user
/// code). A thread with no active scope pays one thread-local load per
/// distance computation and can never be interrupted.
///
/// The scope doubles as the serving layer's per-query distance accounting:
/// it counts the evaluations made on its thread (plain increments — the
/// scope is thread-local by construction) and flushes the total into an
/// `metric::AtomicDistanceCounter` on destruction, so a query fanned out
/// over several pool threads still gets one exact per-query count even when
/// a deadline aborts some shards mid-search.
///
/// Thread-safety analysis: lock-free by design. CancelToken is a single
/// atomic flag; CancelScope's Frame is thread-local (never shared), so
/// neither carries a capability. The TSA build verifies no unannotated
/// lock sneaks in.

namespace mvp::serve {

using ServeClock = std::chrono::steady_clock;

/// Sentinel for "no deadline".
inline constexpr ServeClock::time_point kNoDeadline =
    ServeClock::time_point::max();

/// One-shot cancellation flag, shared between the thread that sets it and
/// the threads that poll it.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by a cancellation point once its scope is cancelled or past its
/// deadline. Internal to the serving layer: the executor converts it into a
/// DeadlineExceeded status.
class CancelledError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "search cancelled (deadline expired)";
  }
};

/// Everything a child task needs to join its parent's cancellation domain.
struct CancelContext {
  const metric::AtomicDistanceCounter* counter = nullptr;
  CancelToken* token = nullptr;
  ServeClock::time_point deadline = kNoDeadline;
  /// Query-wide cap on distance computations (0 = unlimited), enforced
  /// against `counter` so it spans every thread working on the query.
  std::uint64_t budget = 0;
};

/// RAII frame installing a cancellation domain on the current thread.
/// Checking the wall clock on every distance computation would be costly,
/// so the deadline is consulted every kCheckStride evaluations (and on the
/// very first one, so even microsecond deadlines fire promptly); the token
/// flag — a relaxed atomic load — is consulted on every evaluation, which
/// is what makes a watchdog-free cross-thread cancel propagate fast.
class CancelScope {
 public:
  CancelScope(const metric::AtomicDistanceCounter* counter,
              CancelToken* token, ServeClock::time_point deadline,
              std::uint64_t budget = 0)
      : prev_(current_) {
    frame_.counter = counter;
    frame_.token = token;
    frame_.deadline = deadline;
    frame_.budget = budget;
    current_ = &frame_;
  }
  explicit CancelScope(const CancelContext& context)
      : CancelScope(context.counter, context.token, context.deadline,
                    context.budget) {}

  ~CancelScope() {
    if (frame_.counter != nullptr) {
      frame_.counter->Add(frame_.distances - frame_.flushed);
    }
    current_ = prev_;
  }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  /// Distance evaluations observed by this scope so far (this thread only).
  std::uint64_t distance_computations() const { return frame_.distances; }

  /// The innermost active scope's context, for handing to tasks spawned on
  /// other threads. Empty context when the thread has no active scope.
  static CancelContext Current() {
    const Frame* f = current_;
    if (f == nullptr) return CancelContext{};
    return CancelContext{f->counter, f->token, f->deadline, f->budget};
  }

  /// True once the active scope (if any) is cancelled, past its deadline,
  /// or — when a distance budget is set — the query's cross-thread
  /// evaluation count has reached it. Also counts one distance evaluation
  /// against the scope — call it exactly once per metric evaluation,
  /// before evaluating.
  ///
  /// Budget enforcement works by flushing this thread's tally into the
  /// query's shared counter at every stride boundary and comparing the
  /// counter (the query-wide total) against the budget, so the cap holds
  /// across fanned-out shard tasks with a slack of at most
  /// kCheckStride × threads evaluations.
  static bool ShouldStop() {
    Frame* f = current_;
    if (f == nullptr) return false;
    if (f->token != nullptr && f->token->cancelled()) return true;
    if (--f->countdown <= 0) {
      f->countdown = kCheckStride;
      if (f->deadline != kNoDeadline && ServeClock::now() >= f->deadline) {
        if (f->token != nullptr) f->token->Cancel();
        return true;
      }
      if (f->budget > 0 && f->counter != nullptr) {
        f->counter->Add(f->distances - f->flushed);
        f->flushed = f->distances;
        if (f->counter->count() >= f->budget) {
          if (f->token != nullptr) f->token->Cancel();
          return true;
        }
      }
    }
    ++f->distances;
    return false;
  }

 private:
  static constexpr int kCheckStride = 64;

  struct Frame {
    const metric::AtomicDistanceCounter* counter = nullptr;
    CancelToken* token = nullptr;
    ServeClock::time_point deadline = kNoDeadline;
    std::uint64_t budget = 0;  // 0 = unlimited
    int countdown = 1;  // check the clock on the first evaluation
    std::uint64_t distances = 0;
    std::uint64_t flushed = 0;  // prefix of `distances` already in `counter`
  };

  inline static thread_local Frame* current_ = nullptr;

  Frame frame_;
  Frame* prev_;
};

/// Throws CancelledError once the calling thread's scope is cancelled.
inline void CancellationPoint() {
  if (CancelScope::ShouldStop()) throw CancelledError();
}

/// Metric wrapper turning every distance computation into a cancellation
/// point (and a per-query accounting event). Forwards values untouched, so
/// results are bit-identical to the inner metric's.
template <typename M>
class CancelChecked {
 public:
  explicit CancelChecked(M inner) : inner_(std::move(inner)) {}

  // Two independent type parameters: the flat serving path evaluates
  // d(query, view-into-arena) without materializing the stored vector.
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    CancellationPoint();
    return inner_(a, b);
  }

  /// Charges one primed distance (already evaluated by a batch kernel,
  /// core::RootPrime) to the budget/cancellation accounting, and hands the
  /// charge on to an inner wrapper that takes one — exactly the bookkeeping
  /// operator() would have done, minus the metric call.
  void CountPrimed() const {
    CancellationPoint();
    if constexpr (requires { inner_.CountPrimed(); }) inner_.CountPrimed();
  }

  const M& inner() const { return inner_; }

 private:
  M inner_;
};

}  // namespace mvp::serve

#endif  // MVPTREE_SERVE_CANCEL_H_
