// Admission control: the in-flight cap, the Q x S / W queue-wait estimate
// (dead-on-arrival and max-wait shedding), EWMA service-time tracking —
// and the acceptance scenario: RunBatch under 10x queue overload sheds
// with ResourceExhausted instead of blocking, and the shed counts show up
// in ServeStats.

#include "serve/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/executor.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace mvp::serve {
namespace {

using metric::L2;
using metric::Vector;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

TEST(AdmissionTest, AdmitsUpToInFlightLimitThenSheds) {
  AdmissionController::Options options;
  options.max_in_flight = 3;
  AdmissionController ctrl(options);

  EXPECT_TRUE(ctrl.TryAdmit().ok());
  EXPECT_TRUE(ctrl.TryAdmit().ok());
  EXPECT_TRUE(ctrl.TryAdmit().ok());
  EXPECT_EQ(ctrl.in_flight(), 3u);

  const Status fourth = ctrl.TryAdmit();
  EXPECT_EQ(fourth.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctrl.in_flight(), 3u);
  EXPECT_EQ(ctrl.admitted(), 3u);
  EXPECT_EQ(ctrl.shed(), 1u);
}

TEST(AdmissionTest, CompleteFreesASlot) {
  AdmissionController::Options options;
  options.max_in_flight = 1;
  AdmissionController ctrl(options);

  ASSERT_TRUE(ctrl.TryAdmit().ok());
  EXPECT_EQ(ctrl.TryAdmit().code(), StatusCode::kResourceExhausted);
  ctrl.Complete(microseconds(50));
  EXPECT_EQ(ctrl.in_flight(), 0u);
  EXPECT_TRUE(ctrl.TryAdmit().ok());
}

TEST(AdmissionTest, DeadOnArrivalQueriesAreShed) {
  // 1 worker, ~10ms per query, 5 already in flight: a new arrival waits
  // ~50ms. A query with a 20ms budget is dead on arrival and must be shed;
  // one with a 200ms budget fits.
  AdmissionController::Options options;
  options.max_in_flight = 100;
  options.num_workers = 1;
  options.initial_service_estimate = milliseconds(10);
  AdmissionController ctrl(options);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ctrl.TryAdmit(milliseconds(200)).ok());

  EXPECT_GE(ctrl.EstimatedQueueWait(), milliseconds(50));
  const Status doa = ctrl.TryAdmit(milliseconds(20));
  EXPECT_EQ(doa.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doa.message().find("queue wait"), std::string::npos);
  EXPECT_TRUE(ctrl.TryAdmit(milliseconds(200)).ok());
  EXPECT_EQ(ctrl.in_flight(), 6u);  // the shed query released its slot
}

TEST(AdmissionTest, MaxQueueWaitCapSheds) {
  AdmissionController::Options options;
  options.max_in_flight = 100;
  options.num_workers = 2;
  options.initial_service_estimate = milliseconds(10);
  options.max_queue_wait = milliseconds(15);
  AdmissionController ctrl(options);

  // Wait estimate with q in flight: q * 10ms / 2. Stays under the 15ms cap
  // through q = 3, exceeds it at q = 4.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ctrl.TryAdmit().ok()) << i;
  EXPECT_EQ(ctrl.TryAdmit().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, EwmaTracksObservedServiceTimes) {
  AdmissionController::Options options;
  options.num_workers = 1;
  options.ewma_alpha = 1.0;  // estimate = last observation, exactly
  options.initial_service_estimate = milliseconds(10);
  AdmissionController ctrl(options);

  ASSERT_TRUE(ctrl.TryAdmit().ok());
  ASSERT_TRUE(ctrl.TryAdmit().ok());
  ctrl.Complete(microseconds(500));
  // One query still in flight at 500us each: estimated wait is 500us.
  EXPECT_EQ(ctrl.EstimatedQueueWait(), microseconds(500));
  ctrl.Complete(milliseconds(40));
  EXPECT_EQ(ctrl.EstimatedQueueWait(), nanoseconds(0));  // nothing in flight
  ASSERT_TRUE(ctrl.TryAdmit().ok());
  EXPECT_EQ(ctrl.EstimatedQueueWait(), milliseconds(40));
  ctrl.Complete(microseconds(1));
}

TEST(AdmissionTest, ConcurrentAdmitsNeverExceedTheCap) {
  AdmissionController::Options options;
  options.max_in_flight = 8;
  AdmissionController ctrl(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::atomic<std::size_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (!ctrl.TryAdmit().ok()) continue;
        const std::size_t seen = ctrl.in_flight();
        std::size_t prev = peak.load(std::memory_order_relaxed);
        while (seen > prev &&
               !peak.compare_exchange_weak(prev, seen,
                                           std::memory_order_relaxed)) {
        }
        ctrl.Complete(microseconds(10));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(peak.load(), 8u);
  EXPECT_EQ(ctrl.in_flight(), 0u);
  EXPECT_EQ(ctrl.admitted() + ctrl.shed(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
}

/// L2 with a fixed per-evaluation stall, to make query service time large
/// and predictable relative to the admission window.
class SlowL2 {
 public:
  SlowL2() = default;
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    std::this_thread::sleep_for(microseconds(200));
    return inner_(a, b);
  }

 private:
  L2 inner_;
};

// The acceptance scenario: a batch 10x the admission window, on slow
// queries. The controller must shed the excess immediately (no blocking),
// every outcome must be either a complete OK answer or an explicit
// ResourceExhausted, and the shed count must appear in ServeStats.
TEST(AdmissionTest, OverloadedRunBatchShedsInsteadOfBlocking) {
  const auto data = dataset::UniformVectors(600, 6, 21);
  ShardedMvpIndex<Vector, SlowL2>::Options options;
  options.num_shards = 2;
  const auto index =
      ShardedMvpIndex<Vector, SlowL2>::Build(data, SlowL2(), options)
          .ValueOrDie();

  AdmissionController::Options admission_options;
  admission_options.max_in_flight = 4;
  admission_options.num_workers = 2;
  AdmissionController admission(admission_options);

  const auto queries = dataset::UniformQueryVectors(40, 6, 22);  // 10x
  std::vector<BatchQuery<Vector>> batch;
  for (const auto& q : queries) {
    BatchQuery<Vector> bq;
    bq.kind = BatchQuery<Vector>::Kind::kRange;
    bq.object = q;
    bq.radius = 0.6;
    batch.push_back(bq);
  }

  ThreadPool pool(2);
  ServeStats stats;
  ExecutorOptions exec;
  exec.admission = &admission;
  const auto outcomes = RunBatch(index, batch, &pool, &stats, exec);

  ASSERT_EQ(outcomes.size(), batch.size());
  std::size_t ok = 0, shed = 0;
  for (const auto& out : outcomes) {
    if (out.status.ok()) {
      ++ok;
      EXPECT_FALSE(out.partial);
    } else {
      ASSERT_EQ(out.status.code(), StatusCode::kResourceExhausted)
          << out.status.ToString();
      ++shed;
      EXPECT_TRUE(out.neighbors.empty());
      EXPECT_FALSE(out.partial);
      EXPECT_EQ(out.distance_computations, 0u);  // refused at the door
    }
  }
  EXPECT_EQ(ok + shed, batch.size());
  // RunBatch admits at submission time, so at most max_in_flight of the 40
  // can be in the window at once; the rest of the burst is shed.
  EXPECT_GE(shed, batch.size() / 2);
  EXPECT_GT(ok, 0u);

  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, batch.size());
  EXPECT_EQ(snap.ok, ok);
  EXPECT_EQ(snap.shed, shed);
  EXPECT_EQ(snap.deadline_exceeded, 0u);
  EXPECT_EQ(admission.shed(), shed);
  EXPECT_EQ(admission.admitted(), ok);
  EXPECT_EQ(admission.in_flight(), 0u);  // every admitted query Completed
}

}  // namespace
}  // namespace mvp::serve
