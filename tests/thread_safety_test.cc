// Concurrent read safety: all index structures are immutable after Build,
// so any number of threads may search the same instance simultaneously.
// These tests hammer one instance from several threads — the mvp-tree, the
// vp-tree, the MvpForest, and the serving layer's ShardedMvpIndex (serial,
// with a shared ThreadPool, and through the batch executor) — and require
// every thread to observe results bit-identical to the single-threaded
// ones. (Run them under TSAN — the CI tsan job does — to verify the
// absence of data races; here they check functional interference.) Note:
// CountingMetric is NOT thread-safe — share a plain metric, or the
// AtomicCountingMetric flavour, when searching from several threads.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/mvp_tree.h"
#include "core/search_shared.h"
#include "dataset/vector_gen.h"
#include "dynamic/mvp_forest.h"
#include "metric/counting.h"
#include "metric/lp.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "vptree/vp_tree.h"

namespace mvp {
namespace {

using metric::L2;
using metric::Vector;

TEST(ThreadSafetyTest, ConcurrentMvpTreeSearchesAgree) {
  const auto data = dataset::UniformVectors(3000, 8, 7);
  auto built = core::MvpTree<Vector, L2>::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  const auto queries = dataset::UniformQueryVectors(24, 8, 11);

  // Single-threaded reference answers.
  std::vector<std::vector<Neighbor>> expected;
  for (const auto& q : queries) expected.push_back(tree.RangeSearch(q, 0.5));

  std::atomic<int> mismatches{0};
  auto worker = [&](std::size_t offset) {
    for (int round = 0; round < 20; ++round) {
      const std::size_t qi = (offset + round) % queries.size();
      const auto got = tree.RangeSearch(queries[qi], 0.5);
      if (got.size() != expected[qi].size()) {
        ++mismatches;
        continue;
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].id != expected[qi][i].id) {
          ++mismatches;
          break;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t) threads.emplace_back(worker, t * 3);
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentMixedQueryKindsAgree) {
  const auto data = dataset::UniformVectors(2000, 6, 13);
  auto built = core::MvpTree<Vector, L2>::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  const Vector q(6, 0.5);
  const auto knn_expected = tree.KnnSearch(q, 10);
  const auto far_expected = tree.FarthestSearch(q, 10);

  std::atomic<int> mismatches{0};
  auto knn_worker = [&] {
    for (int i = 0; i < 30; ++i) {
      if (tree.KnnSearch(q, 10) != knn_expected) ++mismatches;
    }
  };
  auto far_worker = [&] {
    for (int i = 0; i < 30; ++i) {
      if (tree.FarthestSearch(q, 10) != far_expected) ++mismatches;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back(knn_worker);
    threads.emplace_back(far_worker);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentVpTreeSearchesAgree) {
  const auto data = dataset::UniformVectors(2000, 6, 17);
  auto built = vptree::VpTree<Vector, L2>::Build(data, L2(), {});
  ASSERT_TRUE(built.ok());
  const auto& tree = built.value();
  const Vector q(6, 0.4);
  const auto expected = tree.RangeSearch(q, 0.6);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        if (tree.RangeSearch(q, 0.6) != expected) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentForestReadsAgree) {
  // The forest is read-safe between mutations (Insert/Erase require
  // external synchronization, like every container).
  dynamic::MvpForest<Vector, L2> forest{L2(), {}};
  for (const auto& v : dataset::UniformVectors(1000, 5, 19)) forest.Insert(v);
  const Vector q(5, 0.5);
  const auto expected = forest.RangeSearch(q, 0.5);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (forest.RangeSearch(q, 0.5) != expected) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentForestMixedReadsAgree) {
  // Hammer the forest with range and k-NN readers at once, across several
  // distinct query points, after deletions (tombstone filtering included).
  dynamic::MvpForest<Vector, L2> forest{L2(), {}};
  for (const auto& v : dataset::UniformVectors(1500, 6, 23)) forest.Insert(v);
  for (std::size_t id = 0; id < 1500; id += 7) {
    ASSERT_TRUE(forest.Erase(id).ok());
  }
  const auto queries = dataset::UniformQueryVectors(6, 6, 29);
  std::vector<std::vector<Neighbor>> range_expected, knn_expected;
  for (const auto& q : queries) {
    range_expected.push_back(forest.RangeSearch(q, 0.5));
    knn_expected.push_back(forest.KnnSearch(q, 12));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 15; ++i) {
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
          if (forest.RangeSearch(queries[qi], 0.5) != range_expected[qi]) {
            ++mismatches;
          }
        }
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 15; ++i) {
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
          if (forest.KnnSearch(queries[qi], 12) != knn_expected[qi]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentShardedIndexSearchesAgree) {
  // The sharded index is immutable after Build like the trees it wraps;
  // concurrent readers must observe results bit-identical to both the
  // single-threaded sharded answer and the unsharded reference tree.
  const auto data = dataset::UniformVectors(3000, 8, 37);
  serve::ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 4;
  const auto sharded =
      serve::ShardedMvpIndex<Vector, L2>::Build(data, L2(), options)
          .ValueOrDie();
  const auto plain =
      core::MvpTree<Vector, L2>::Build(data, L2(), {}).ValueOrDie();
  const auto queries = dataset::UniformQueryVectors(8, 8, 41);
  std::vector<std::vector<Neighbor>> range_expected, knn_expected;
  for (const auto& q : queries) {
    range_expected.push_back(plain.RangeSearch(q, 0.5));
    knn_expected.push_back(plain.KnnSearch(q, 10));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        const std::size_t qi = (t + static_cast<std::size_t>(round)) %
                               queries.size();
        if (sharded.RangeSearch(queries[qi], 0.5) != range_expected[qi]) {
          ++mismatches;
        }
        if (sharded.KnnSearch(queries[qi], 10) != knn_expected[qi]) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentShardedSearchesSharingOnePool) {
  // Many caller threads fan their queries out over ONE shared pool — the
  // serving configuration — exercising nested task submission and helping.
  const auto data = dataset::UniformVectors(2000, 8, 43);
  serve::ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 4;
  serve::ThreadPool pool(4);
  const auto sharded =
      serve::ShardedMvpIndex<Vector, L2>::Build(data, L2(), options, &pool)
          .ValueOrDie();
  const auto queries = dataset::UniformQueryVectors(6, 8, 47);
  std::vector<std::vector<Neighbor>> expected;
  for (const auto& q : queries) expected.push_back(sharded.RangeSearch(q, 0.5));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        const std::size_t qi = (t + static_cast<std::size_t>(round)) %
                               queries.size();
        core::SearchContext context{.pool = &pool};
        if (core::Answer(sharded,
                         core::SearchRequest<Vector>{.object = queries[qi],
                                                     .radius = 0.5},
                         context) != expected[qi]) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadSafetyTest, ConcurrentExecutorBatchesWithSharedStats) {
  // Two threads run whole batches on one pool into one ServeStats; the
  // atomic accounting must add up exactly after joining.
  const auto data = dataset::UniformVectors(1500, 8, 53);
  serve::ShardedMvpIndex<Vector, L2>::Options options;
  options.num_shards = 2;
  const auto sharded =
      serve::ShardedMvpIndex<Vector, L2>::Build(data, L2(), options)
          .ValueOrDie();
  const auto queries = dataset::UniformQueryVectors(10, 8, 59);
  std::vector<serve::BatchQuery<Vector>> batch;
  for (const auto& q : queries) {
    serve::BatchQuery<Vector> bq;
    bq.object = q;
    bq.radius = 0.5;
    batch.push_back(bq);
  }
  serve::ThreadPool pool(3);
  serve::ServeStats stats;
  std::atomic<std::uint64_t> distances{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      const auto outcomes = serve::RunBatch(sharded, batch, &pool, &stats);
      std::uint64_t local = 0;
      for (const auto& out : outcomes) local += out.distance_computations;
      distances.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, 2 * batch.size());
  EXPECT_EQ(snap.ok, 2 * batch.size());
  EXPECT_EQ(snap.distance_computations, distances.load());
}

}  // namespace
}  // namespace mvp
