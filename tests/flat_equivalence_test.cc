#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/query.h"
#include "common/rng.h"
#include "core/search_shared.h"
#include "dataset/vector_gen.h"
#include "metric/counting.h"
#include "metric/kernels/kernels.h"
#include "metric/lp.h"
#include "serve/cancel.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "snapshot/flat_tree.h"
#include "snapshot/snapshot_store.h"

/// The equivalence layer for zero-deserialization serving: a flat index
/// opened off a snapshot mapping must be INDISTINGUISHABLE from the heap
/// index deserialized from the same logical snapshot — same result sets
/// (ids and bit-identical distances), same SearchStats down to the exact
/// distance-computation count, over thousands of seeded queries on both of
/// the paper's workload shapes. Partial results under a tight distance
/// budget must match too: both representations evaluate the same metric
/// sequence, so a budget cancels both at the same evaluation.
///
/// The heap tree and the flat arena (SoA leaves swept by the batch kernels)
/// are differentially tested, through the plain searches, the batched
/// RunBatch door (which primes root distances with the
/// many-queries-one-vantage-point kernel) and every reachable SIMD dispatch
/// tier. Same ids, bit-identical distances, same four SearchStats counters,
/// everywhere.

namespace mvp::snapshot {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

std::vector<Vector> ClusteredData(std::size_t count, std::size_t dim,
                                  std::uint64_t seed) {
  dataset::ClusterParams params;
  params.count = count;
  params.dim = dim;
  params.cluster_size = 50;
  return dataset::ClusteredVectors(params, seed);
}

/// Heap + flat loads of one snapshot pair over the same dataset.
class FlatEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/flateq_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_ + "_heap");
    std::filesystem::remove_all(dir_ + "_flat");

    const bool clustered = GetParam();
    data_ = clustered ? ClusteredData(600, 8, 101)
                      : dataset::UniformVectors(600, 8, 101);

    Index::Options options;
    options.num_shards = 3;
    options.tree.order = 3;
    options.tree.leaf_capacity = 8;
    options.tree.num_path_distances = 4;
    auto built = Index::Build(data_, L2(), options);
    ASSERT_TRUE(built.ok());

    SnapshotStore heap_store(dir_ + "_heap");
    ASSERT_TRUE(heap_store.SaveSharded(built.value(), VectorCodec()).ok());
    auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_.emplace(std::move(heap).ValueOrDie().index);
    ASSERT_FALSE(heap_->flat_serving());

    SnapshotStore flat_store(dir_ + "_flat");
    ASSERT_TRUE(flat_store.SaveFlat(built.value()).ok());
    auto flat = flat_store.OpenFlat(L2());
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    flat_.emplace(std::move(flat).ValueOrDie().index);
    ASSERT_TRUE(flat_->flat_serving());
    // The snapshot pipeline writes the current format.
    for (std::size_t s = 0; s < flat_->num_shards(); ++s) {
      ASSERT_EQ(flat_->flat_shard(s).version(), flat::kFlatVersionV2);
    }
    // The same flat generation through the layout-agnostic loader.
    auto loaded = flat_store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    loaded_.emplace(std::move(loaded).ValueOrDie().index);
    ASSERT_TRUE(loaded_->flat_serving());
  }
  void TearDown() override {
    heap_.reset();
    flat_.reset();  // views die before the mapping-owning index they alias
    loaded_.reset();
    std::filesystem::remove_all(dir_ + "_heap");
    std::filesystem::remove_all(dir_ + "_flat");
  }

  static void ExpectIdentical(const std::vector<Neighbor>& a,
                              const std::vector<Neighbor>& b,
                              const SearchStats& sa, const SearchStats& sb,
                              std::size_t q) {
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " result " << i;
      // Bit-identical, not approximately equal: both representations run
      // the same floating-point expressions on the same values.
      EXPECT_EQ(a[i].distance, b[i].distance) << "query " << q;
    }
    EXPECT_EQ(sa.distance_computations, sb.distance_computations)
        << "query " << q;
    EXPECT_EQ(sa.nodes_visited, sb.nodes_visited) << "query " << q;
    EXPECT_EQ(sa.leaf_points_seen, sb.leaf_points_seen) << "query " << q;
    EXPECT_EQ(sa.leaf_points_filtered, sb.leaf_points_filtered)
        << "query " << q;
  }

  std::string dir_;
  std::vector<Vector> data_;
  std::optional<Index> heap_;
  std::optional<Index> flat_;
  std::optional<Index> loaded_;  ///< LoadSharded of the flat generation
};

TEST_P(FlatEquivalenceTest, RangeSearchBitIdentical) {
  const auto queries = dataset::UniformQueryVectors(500, 8, 777);
  const double radii[] = {0.2, 0.6, 1.1};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double radius = radii[q % 3];
    SearchStats hs, fs;
    const auto heap_result = heap_->RangeSearch(queries[q], radius, &hs);
    const auto flat_result = flat_->RangeSearch(queries[q], radius, &fs);
    ExpectIdentical(heap_result, flat_result, hs, fs, q);
  }
}

TEST_P(FlatEquivalenceTest, KnnSearchBitIdentical) {
  const auto queries = dataset::UniformQueryVectors(500, 8, 778);
  const std::size_t ks[] = {1, 5, 17};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::size_t k = ks[q % 3];
    SearchStats hs, fs;
    const auto heap_result = heap_->KnnSearch(queries[q], k, &hs);
    const auto flat_result = flat_->KnnSearch(queries[q], k, &fs);
    ExpectIdentical(heap_result, flat_result, hs, fs, q);
  }
}

TEST_P(FlatEquivalenceTest, LoadShardedOfFlatGenerationBitIdentical) {
  // LoadSharded opens a flat generation through OpenFlat's path, so its
  // index answers exactly as OpenFlat's and the heap load's do.
  const auto queries = dataset::UniformQueryVectors(300, 8, 779);
  const double radii[] = {0.2, 0.6, 1.1};
  const std::size_t ks[] = {1, 5, 17};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchStats hs, fs, ls;
    const auto heap_range = heap_->RangeSearch(queries[q], radii[q % 3], &hs);
    const auto flat_range = flat_->RangeSearch(queries[q], radii[q % 3], &fs);
    const auto range = loaded_->RangeSearch(queries[q], radii[q % 3], &ls);
    ExpectIdentical(heap_range, range, hs, ls, q);
    ExpectIdentical(flat_range, range, fs, ls, q);

    SearchStats hk, fk, lk;
    const auto heap_knn = heap_->KnnSearch(queries[q], ks[q % 3], &hk);
    const auto flat_knn = flat_->KnnSearch(queries[q], ks[q % 3], &fk);
    const auto knn = loaded_->KnnSearch(queries[q], ks[q % 3], &lk);
    ExpectIdentical(heap_knn, knn, hk, lk, q);
    ExpectIdentical(flat_knn, knn, fk, lk, q);
  }
}

TEST_P(FlatEquivalenceTest, RangeResultsMatchBruteForce) {
  // Anchor the pair to ground truth, not just to each other.
  const auto queries = dataset::UniformQueryVectors(50, 8, 779);
  const L2 l2;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double radius = 0.8;
    std::vector<Neighbor> expected;
    for (std::size_t i = 0; i < data_.size(); ++i) {
      const double d = l2(queries[q], data_[i]);
      if (d <= radius) expected.push_back(Neighbor{i, d});
    }
    std::sort(expected.begin(), expected.end(), NeighborLess);
    const auto flat_result = flat_->RangeSearch(queries[q], radius);
    ASSERT_EQ(flat_result.size(), expected.size()) << "query " << q;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(flat_result[i].id, expected[i].id) << "query " << q;
      EXPECT_EQ(flat_result[i].distance, expected[i].distance);
    }
  }
}

/// One search under a hard distance-computation budget, run serially so the
/// cancellation point is deterministic. Returns the partial harvest.
template <typename SearchFn>
std::vector<Neighbor> RunBudgeted(std::uint64_t budget, bool* cancelled,
                                  SearchStats* stats, const SearchFn& search) {
  metric::AtomicDistanceCounter counter;
  serve::CancelToken token;
  std::vector<Neighbor> out;
  *cancelled = false;
  serve::CancelScope scope(&counter, &token, serve::kNoDeadline, budget);
  try {
    search(&out, stats);
  } catch (const serve::CancelledError&) {
    *cancelled = true;
  }
  return out;
}

TEST_P(FlatEquivalenceTest, PartialResultsUnderBudgetBitIdentical) {
  // Deadline flavor chosen for determinism: a distance budget trips at an
  // exact evaluation index, and serial fan-out makes that index identical
  // across representations — so even INTERRUPTED searches must agree.
  const auto queries = dataset::UniformQueryVectors(100, 8, 780);
  std::size_t cancels = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const std::uint64_t budget : {std::uint64_t{70}, std::uint64_t{200}}) {
      bool hc = false, fc = false;
      SearchStats hs, fs;
      auto heap_result =
          RunBudgeted(budget, &hc, &hs, [&](auto* out, auto* stats) {
            heap_->RangeSearchInto(queries[q], 0.8, out, stats);
          });
      auto flat_result =
          RunBudgeted(budget, &fc, &fs, [&](auto* out, auto* stats) {
            flat_->RangeSearchInto(queries[q], 0.8, out, stats);
          });
      EXPECT_EQ(hc, fc) << "query " << q << " budget " << budget;
      if (hc) ++cancels;
      std::sort(heap_result.begin(), heap_result.end(), NeighborLess);
      std::sort(flat_result.begin(), flat_result.end(), NeighborLess);
      ExpectIdentical(heap_result, flat_result, hs, fs, q);

      bool hkc = false, fkc = false;
      SearchStats hks, fks;
      auto heap_knn =
          RunBudgeted(budget, &hkc, &hks, [&](auto* out, auto* stats) {
            heap_->KnnSearchInto(queries[q], 9, out, stats);
          });
      auto flat_knn =
          RunBudgeted(budget, &fkc, &fks, [&](auto* out, auto* stats) {
            flat_->KnnSearchInto(queries[q], 9, out, stats);
          });
      EXPECT_EQ(hkc, fkc) << "query " << q << " budget " << budget;
      std::sort(heap_knn.begin(), heap_knn.end(), NeighborLess);
      std::sort(flat_knn.begin(), flat_knn.end(), NeighborLess);
      ExpectIdentical(heap_knn, flat_knn, hks, fks, q);
    }
  }
  // The tight budget must actually have interrupted some searches, or this
  // test is vacuous.
  EXPECT_GT(cancels, 0u);
}

/// The batch front door: RunBatch over the flat index primes every query's
/// root vantage-point distances with one many-queries-one-vantage-point
/// kernel sweep per shard. Outcomes — statuses, partial flags, neighbors,
/// and all four SearchStats counters — must still be bit-identical to the
/// heap index, which runs completely unprimed, including for queries whose
/// distance budget cuts them off mid-search.
TEST_P(FlatEquivalenceTest, RunBatchPrimedBitIdenticalAcrossLayouts) {
  using Query = serve::BatchQuery<Vector>;
  const auto queries = dataset::UniformQueryVectors(64, 8, 786);
  std::vector<Query> batch;
  batch.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    Query bq;
    bq.object = queries[q];
    if (q % 2 == 0) {
      bq.kind = Query::Kind::kRange;
      bq.radius = 0.8;
    } else {
      bq.kind = Query::Kind::kKnn;
      bq.k = 7;
    }
    // Sprinkle budget-cut partials through the batch.
    if (q % 5 == 3) bq.max_distance_computations = 120;
    batch.push_back(std::move(bq));
  }

  const auto heap_out = serve::RunBatch(*heap_, batch, nullptr);
  const auto flat_out = serve::RunBatch(*flat_, batch, nullptr);
  ASSERT_EQ(heap_out.size(), batch.size());
  ASSERT_EQ(flat_out.size(), batch.size());
  std::size_t partials = 0;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(heap_out[q].status.code(), flat_out[q].status.code())
        << "query " << q;
    EXPECT_EQ(heap_out[q].partial, flat_out[q].partial) << "query " << q;
    ExpectIdentical(heap_out[q].neighbors, flat_out[q].neighbors,
                    heap_out[q].search, flat_out[q].search, q);
    EXPECT_EQ(heap_out[q].distance_computations,
              flat_out[q].distance_computations)
        << "query " << q;
    if (heap_out[q].partial) ++partials;
  }
  // The budgeted queries must actually have been cut, or the partial-path
  // comparison is vacuous.
  EXPECT_GT(partials, 0u);
}

/// Every reachable dispatch tier (scalar always; AVX2/AVX-512/NEON as the
/// host allows) must serve the v2 flat index bit-identically to the heap
/// index — results AND stats — under plain searches, the primed batch
/// door, and budget cancellation. This is the end-to-end face of the
/// kernel conformance suite.
TEST_P(FlatEquivalenceTest, EveryKernelTierServesBitIdentically) {
  namespace kernels = metric::kernels;
  struct RestoreDispatch {
    // not a status to act on: best-effort reset to feature-probe dispatch
    ~RestoreDispatch() { (void)kernels::ForceTier("auto"); }
  } restore;

  const auto queries = dataset::UniformQueryVectors(40, 8, 787);
  for (int t = 0; t < kernels::kTierCount; ++t) {
    const auto tier = static_cast<kernels::Tier>(t);
    if (!kernels::TierSupported(tier)) continue;
    const Status forced = kernels::ForceTier(kernels::TierName(tier));
    ASSERT_TRUE(forced.ok()) << forced.ToString();

    for (std::size_t q = 0; q < queries.size(); ++q) {
      SearchStats hs, fs;
      const auto heap_result = heap_->RangeSearch(queries[q], 0.8, &hs);
      const auto flat_result = flat_->RangeSearch(queries[q], 0.8, &fs);
      ExpectIdentical(heap_result, flat_result, hs, fs, q);

      bool hc = false, fc = false;
      SearchStats hbs, fbs;
      auto heap_partial =
          RunBudgeted(90, &hc, &hbs, [&](auto* out, auto* stats) {
            heap_->RangeSearchInto(queries[q], 0.8, out, stats);
          });
      auto flat_partial =
          RunBudgeted(90, &fc, &fbs, [&](auto* out, auto* stats) {
            flat_->RangeSearchInto(queries[q], 0.8, out, stats);
          });
      EXPECT_EQ(hc, fc) << kernels::TierName(tier) << " query " << q;
      std::sort(heap_partial.begin(), heap_partial.end(), NeighborLess);
      std::sort(flat_partial.begin(), flat_partial.end(), NeighborLess);
      ExpectIdentical(heap_partial, flat_partial, hbs, fbs, q);
    }

    // The primed batch path under this tier, against the unprimed heap.
    using Query = serve::BatchQuery<Vector>;
    std::vector<Query> batch;
    for (std::size_t q = 0; q < 16; ++q) {
      Query bq;
      bq.object = queries[q % queries.size()];
      bq.kind = (q % 2 == 0) ? Query::Kind::kRange : Query::Kind::kKnn;
      bq.radius = 0.8;
      bq.k = 5;
      batch.push_back(std::move(bq));
    }
    const auto heap_out = serve::RunBatch(*heap_, batch, nullptr);
    const auto flat_out = serve::RunBatch(*flat_, batch, nullptr);
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ExpectIdentical(heap_out[q].neighbors, flat_out[q].neighbors,
                      heap_out[q].search, flat_out[q].search, q);
    }
  }
}

/// k-NN under an exclusion set (core::Exclusion, what the dynamic overlay
/// hands its base for tombstones): both layouts and every reachable tier
/// applies the one rule — excluded vantage points evaluated but never
/// offered, excluded leaf entries never evaluated — so results and
/// all four SearchStats counters stay bit-identical, no excluded id comes
/// back, and the answer is the brute-force k-NN over the remaining points.
/// Excluding nothing, by a null or an all-false exclusion, is exactly the
/// plain search.
TEST_P(FlatEquivalenceTest, KnnUnderExclusionBitIdenticalAcrossLayouts) {
  namespace kernels = metric::kernels;
  struct RestoreDispatch {
    // not a status to act on: best-effort reset to feature-probe dispatch
    ~RestoreDispatch() { (void)kernels::ForceTier("auto"); }
  } restore;

  const auto queries = dataset::UniformQueryVectors(60, 8, 792);
  const L2 l2;
  const auto keep_all = [](std::size_t) { return false; };
  for (int t = 0; t < kernels::kTierCount; ++t) {
    const auto tier = static_cast<kernels::Tier>(t);
    if (!kernels::TierSupported(tier)) continue;
    const Status forced = kernels::ForceTier(kernels::TierName(tier));
    ASSERT_TRUE(forced.ok()) << forced.ToString();

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t k = 1 + q % 17;
      // Exclude the query's 2k true nearest (the answer must come from
      // farther out) plus a seeded fifth of everything else.
      std::vector<Neighbor> all;
      for (std::size_t i = 0; i < data_.size(); ++i) {
        all.push_back(Neighbor{i, l2(queries[q], data_[i])});
      }
      std::sort(all.begin(), all.end(), NeighborLess);
      std::vector<bool> excluded(data_.size(), false);
      Rng rng(900 + q);
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (i < 2 * k || rng.NextIndex(5) == 0) excluded[all[i].id] = true;
      }
      const auto is_excluded = [&](std::size_t id) { return excluded[id]; };
      const core::Exclusion exclude = core::Exclusion::Of(is_excluded);

      std::vector<Neighbor> expected;
      for (const Neighbor& n : all) {
        if (!excluded[n.id] && expected.size() < k) expected.push_back(n);
      }

      SearchStats hs, fs;
      const auto heap_knn = heap_->KnnSearch(queries[q], k, &hs, nullptr,
                                             exclude);
      const auto flat_knn = flat_->KnnSearch(queries[q], k, &fs, nullptr,
                                             exclude);
      ExpectIdentical(heap_knn, flat_knn, hs, fs, q);
      ASSERT_EQ(heap_knn.size(), expected.size()) << "query " << q;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_FALSE(excluded[heap_knn[i].id]) << "query " << q;
        EXPECT_EQ(heap_knn[i].id, expected[i].id) << "query " << q;
        EXPECT_EQ(heap_knn[i].distance, expected[i].distance);
      }

      // The primed door takes the same exclusion.
      const std::vector<const Vector*> one{&queries[q]};
      const auto primes = flat_->PrimeBatch(one);
      ASSERT_EQ(primes.size(), 1u);
      std::vector<Neighbor> primed;
      SearchStats ps;
      flat_->KnnSearchInto(queries[q], k, &primed, &ps, nullptr, &primes[0],
                           exclude);
      std::sort(primed.begin(), primed.end(), NeighborLess);
      primed.resize(std::min(primed.size(), k));
      ExpectIdentical(heap_knn, primed, hs, ps, q);

      // Excluding nothing is the plain search, stats included.
      for (const Index* index : {&*heap_, &*flat_}) {
        SearchStats plain, none, all_false;
        const auto plain_knn = index->KnnSearch(queries[q], k, &plain);
        const auto none_knn = index->KnnSearch(queries[q], k, &none, nullptr,
                                               core::Exclusion{});
        const auto false_knn = index->KnnSearch(
            queries[q], k, &all_false, nullptr,
            core::Exclusion::Of(keep_all));
        ExpectIdentical(plain_knn, none_knn, plain, none, q);
        ExpectIdentical(plain_knn, false_knn, plain, all_false, q);
      }
    }
  }
}

TEST(FlatEmptyShardTest, FewerObjectsThanShardsRoundTrips) {
  // SaveFlat of an index with object_count < num_shards writes empty-shard
  // arenas (dim 0, zero objects). OpenFlat must serve them — the empty
  // objects section once tripped a division by zero in arena validation.
  const std::string dir = ::testing::TempDir() + "/flateq_empty_shard";
  std::filesystem::remove_all(dir);
  const auto data = dataset::UniformVectors(2, 8, 404);
  Index::Options options;
  options.num_shards = 4;
  auto built = Index::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());

  SnapshotStore store(dir);
  auto saved = store.SaveFlat(built.value());
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto flat = store.OpenFlat(L2());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  {
    const Index index = std::move(flat).ValueOrDie().index;
    EXPECT_TRUE(index.flat_serving());
    EXPECT_EQ(index.size(), 2u);
    const auto result = index.KnnSearch(data[0], 2);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0].id, 0u);
    EXPECT_EQ(result[0].distance, 0.0);
  }  // views die before the directory goes away
  std::filesystem::remove_all(dir);
}

TEST(FlatServingTest, ReSerializationFailsFast) {
  // A flat-serving index has no heap trees to serialize; both save paths
  // must reject it with InvalidArgument instead of dereferencing the
  // disengaged heap representation.
  const std::string dir = ::testing::TempDir() + "/flateq_reserialize";
  std::filesystem::remove_all(dir);
  Index::Options options;
  options.num_shards = 3;
  auto built = Index::Build(dataset::UniformVectors(60, 8, 405), L2(), options);
  ASSERT_TRUE(built.ok());

  SnapshotStore store(dir);
  ASSERT_TRUE(store.SaveFlat(built.value()).ok());
  auto flat = store.OpenFlat(L2());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  {
    const Index index = std::move(flat).ValueOrDie().index;
    ASSERT_TRUE(index.flat_serving());
    EXPECT_EQ(store.SaveFlat(index).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(store.SaveSharded(index, VectorCodec()).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FlatEquivalenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Clustered" : "Uniform";
                         });

}  // namespace
}  // namespace mvp::snapshot
