#ifndef MVPTREE_METRIC_COUNTING_H_
#define MVPTREE_METRIC_COUNTING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

/// \file
/// Distance-computation counting — the paper's cost model.
///
/// "Since the distance computations are very costly for high-dimensional
/// metric spaces, we use the number of distance computations as the cost
/// measure." (§5). Every experiment in bench/ wraps its metric in
/// CountingMetric and reports exact call counts.
///
/// Two flavours: DistanceCounter/CountingMetric are single-threaded (one
/// plain increment, the benchmarks' default), while AtomicDistanceCounter/
/// AtomicCountingMetric may be shared freely across threads — the serving
/// layer (src/serve/) uses the atomic flavour for per-query and global
/// accounting when one index is searched from many threads at once.
///
/// Thread-safety analysis: AtomicDistanceCounter is a shared atomic with
/// relaxed increments — intentionally capability-free (it is a statistic,
/// not a synchronization point). DistanceCounter is single-threaded by
/// contract; the TSA build keeps both free of unannotated locking.

namespace mvp::metric {

/// Shared mutable distance-call counter. Copies of a CountingMetric (indexes
/// store metrics by value) all increment the same counter.
class DistanceCounter {
 public:
  DistanceCounter() : count_(std::make_shared<std::uint64_t>(0)) {}

  std::uint64_t count() const { return *count_; }
  void Reset() { *count_ = 0; }
  void Increment() const { ++*count_; }

 private:
  std::shared_ptr<std::uint64_t> count_;
};

/// Wraps any metric, incrementing `counter` on every distance evaluation.
template <typename M>
class CountingMetric {
 public:
  CountingMetric(M inner, DistanceCounter counter)
      : inner_(std::move(inner)), counter_(std::move(counter)) {}

  // Two independent type parameters, so a vector tree's (query, row view)
  // and (row view, row view) evaluations count too.
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    counter_.Increment();
    return inner_(a, b);
  }

  /// Counts one primed evaluation (a value a batch kernel computed in
  /// place of operator(), e.g. core::RootPrime), and hands the charge on to
  /// an inner wrapper that takes one: the bookkeeping operator() does,
  /// minus the metric call.
  void CountPrimed() const {
    counter_.Increment();
    if constexpr (requires { inner_.CountPrimed(); }) inner_.CountPrimed();
  }

  const M& inner() const { return inner_; }
  const DistanceCounter& counter() const { return counter_; }

 private:
  M inner_;
  DistanceCounter counter_;
};

/// Deduction-friendly factory.
template <typename M>
CountingMetric<M> MakeCounting(M inner, DistanceCounter counter) {
  return CountingMetric<M>(std::move(inner), std::move(counter));
}

/// Thread-safe shared distance-call counter. Copies all address the same
/// atomic, so an index built with an AtomicCountingMetric can be searched
/// from any number of threads while the counter stays exact. Increments are
/// relaxed: the count is a statistic, not a synchronization point — read it
/// after joining the threads that produced it for an exact total.
class AtomicDistanceCounter {
 public:
  AtomicDistanceCounter()
      : count_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

  std::uint64_t count() const {
    return count_->load(std::memory_order_relaxed);
  }
  void Reset() { count_->store(0, std::memory_order_relaxed); }
  void Increment() const { count_->fetch_add(1, std::memory_order_relaxed); }
  void Add(std::uint64_t n) const {
    count_->fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<std::uint64_t>> count_;
};

/// Thread-safe CountingMetric: wraps any metric, incrementing a shared
/// atomic counter on every distance evaluation.
template <typename M>
class AtomicCountingMetric {
 public:
  AtomicCountingMetric(M inner, AtomicDistanceCounter counter)
      : inner_(std::move(inner)), counter_(std::move(counter)) {}

  // Two independent type parameters, so a vector tree's (query, row view)
  // and (row view, row view) evaluations count too.
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    counter_.Increment();
    return inner_(a, b);
  }

  /// Counts one primed evaluation (a value a batch kernel computed in
  /// place of operator(), e.g. core::RootPrime), and hands the charge on to
  /// an inner wrapper that takes one: the bookkeeping operator() does,
  /// minus the metric call.
  void CountPrimed() const {
    counter_.Increment();
    if constexpr (requires { inner_.CountPrimed(); }) inner_.CountPrimed();
  }

  const M& inner() const { return inner_; }
  const AtomicDistanceCounter& counter() const { return counter_; }

 private:
  M inner_;
  AtomicDistanceCounter counter_;
};

/// Deduction-friendly factory for the thread-safe flavour.
template <typename M>
AtomicCountingMetric<M> MakeAtomicCounting(M inner,
                                           AtomicDistanceCounter counter) {
  return AtomicCountingMetric<M>(std::move(inner), std::move(counter));
}

}  // namespace mvp::metric

#endif  // MVPTREE_METRIC_COUNTING_H_
