#ifndef MVPTREE_FAULT_RETRY_H_
#define MVPTREE_FAULT_RETRY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/status.h"

/// \file
/// Retry with exponential backoff and jitter, for transient I/O failures.
/// Used by FailoverClient (net/failover.h), which retries an RPC on the
/// next endpoint after a conversation failure (a refused connect, a torn
/// frame, an injected fault) a bounded number of times before giving up.

namespace mvp::fault {

struct RetryOptions {
  /// Total attempts including the first one. 1 = no retries.
  int max_attempts = 3;

  /// Sleep before attempt k (k >= 2) is
  ///   initial_backoff * backoff_multiplier^(k-2), capped at max_backoff,
  /// then scaled by a random factor in [1 - jitter, 1] so synchronized
  /// retry storms decorrelate.
  std::chrono::nanoseconds initial_backoff = std::chrono::milliseconds(1);
  double backoff_multiplier = 2.0;
  std::chrono::nanoseconds max_backoff = std::chrono::seconds(1);
  double jitter = 0.5;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// Which failures are worth retrying. Default: transient I/O only —
  /// corruption or invalid-argument will not get better on a second try.
  std::function<bool(const Status&)> retryable;

  /// Test seam: replaces std::this_thread::sleep_for.
  std::function<void(std::chrono::nanoseconds)> sleep;
};

namespace internal {

inline bool DefaultRetryable(const Status& status) {
  return status.code() == StatusCode::kIOError;
}

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) { return r.status(); }

}  // namespace internal

/// Invokes `fn` (returning `Status` or `Result<T>`) up to
/// `options.max_attempts` times, sleeping with exponential backoff + jitter
/// between attempts, and returns the first success or the last failure.
/// Only failures `options.retryable` approves are retried; others return
/// immediately.
template <typename F>
auto RetryWithBackoff(const RetryOptions& options, F&& fn)
    -> std::invoke_result_t<F&> {
  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  std::mt19937_64 rng(options.seed);
  std::chrono::nanoseconds backoff = options.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    auto result = fn();
    const Status status = internal::StatusOf(result);
    if (status.ok() || attempt >= attempts) return result;
    const bool retry = options.retryable ? options.retryable(status)
                                         : internal::DefaultRetryable(status);
    if (!retry) return result;

    std::uniform_real_distribution<double> factor(1.0 - options.jitter, 1.0);
    const auto sleep_for = std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(std::min(backoff, options.max_backoff).count()) *
        factor(rng)));
    if (options.sleep) {
      options.sleep(sleep_for);
    } else if (sleep_for.count() > 0) {
      std::this_thread::sleep_for(sleep_for);
    }
    backoff = std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * options.backoff_multiplier));
  }
}

}  // namespace mvp::fault

#endif  // MVPTREE_FAULT_RETRY_H_
