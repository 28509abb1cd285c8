#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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
#include "snapshot_fixtures.h"
#include "snapshot/flat_tree.h"
#include "snapshot/manifest.h"
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
/// RunBatch door and every reachable SIMD dispatch tier. Same ids,
/// bit-identical distances, same four SearchStats counters, everywhere.

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

    ASSERT_NO_FATAL_FAILURE(WriteHeapGeneration(dir_ + "_heap", built.value()));
    SnapshotStore heap_store(dir_ + "_heap");
    auto heap = heap_store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    ASSERT_EQ(heap.value().manifest.index_kind, IndexKind::kShardedMvpIndex);
    heap_.emplace(std::move(heap).ValueOrDie().index);

    SnapshotStore flat_store(dir_ + "_flat");
    ASSERT_TRUE(flat_store.SaveFlat(built.value()).ok());
    auto flat = flat_store.OpenFlat(L2());
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    ASSERT_EQ(flat.value().manifest.index_kind,
              IndexKind::kFlatShardedMvpIndex);
    flat_.emplace(std::move(flat).ValueOrDie().index);
    // The same flat generation through the layout-agnostic loader.
    auto loaded = flat_store.LoadSharded<Vector>(L2(), VectorCodec());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value().manifest.index_kind,
              IndexKind::kFlatShardedMvpIndex);
    loaded_.emplace(std::move(loaded).ValueOrDie().index);
  }
  void TearDown() override {
    heap_.reset();
    flat_.reset();
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

/// The batch front door: a 64-query RunBatch over heap-built and
/// flat-opened shards alike. Outcomes — statuses, partial flags, neighbors,
/// and all four SearchStats counters — must equal a reference on both
/// layouts: the same queries run one at a time. Queries whose distance
/// budget cuts them off mid-search are included.
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
    const auto reference = serve::RunBatch(*heap_, std::vector{batch[q]},
                                           nullptr);
    ASSERT_EQ(reference.size(), 1u);
    const serve::QueryOutcome& want = reference[0];
    for (const serve::QueryOutcome* got : {&heap_out[q], &flat_out[q]}) {
      EXPECT_EQ(want.status.code(), got->status.code()) << "query " << q;
      EXPECT_EQ(want.partial, got->partial) << "query " << q;
      ExpectIdentical(want.neighbors, got->neighbors, want.search,
                      got->search, q);
      EXPECT_EQ(want.distance_computations, got->distance_computations)
          << "query " << q;
    }
    if (want.partial) ++partials;
  }
  // The budgeted queries must actually have been cut, or the partial-path
  // comparison is vacuous.
  EXPECT_GT(partials, 0u);
}

/// Every reachable dispatch tier (scalar always; AVX2/AVX-512 as the
/// host allows) must serve the v2 flat index bit-identically to the heap
/// index — results AND stats — under plain searches, the batch door, and
/// budget cancellation. This is the end-to-end face of the
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

    // The batch door under this tier, on both layouts.
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
  EXPECT_EQ(flat.value().manifest.index_kind, IndexKind::kFlatShardedMvpIndex);
  {
    const Index index = std::move(flat).ValueOrDie().index;
    EXPECT_EQ(index.size(), 2u);
    const auto result = index.KnnSearch(data[0], 2);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0].id, 0u);
    EXPECT_EQ(result[0].distance, 0.0);
  }  // the index dies before the directory goes away
  std::filesystem::remove_all(dir);
}

/// An index opened from a flat generation saves like any other: SaveFlat
/// and SaveSharded both write its shards' arenas back byte for byte, and
/// its trees serialize to an MVPT stream generation (as earlier releases
/// wrote) that LoadSharded reloads into the same answers and SearchStats.
TEST(FlatServingTest, ReSerializationRoundTrips) {
  const std::string dir = ::testing::TempDir() + "/flateq_reserialize";
  std::filesystem::remove_all(dir);
  Index::Options options;
  options.num_shards = 3;
  auto built = Index::Build(dataset::UniformVectors(60, 8, 405), L2(), options);
  ASSERT_TRUE(built.ok());

  SnapshotStore store(dir + "/source");
  ASSERT_TRUE(store.SaveFlat(built.value()).ok());
  auto flat = store.OpenFlat(L2());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const Index index = std::move(flat).ValueOrDie().index;

  SnapshotStore flat_again(dir + "/flat");
  ASSERT_TRUE(flat_again.SaveFlat(index).ok());
  const auto source_arenas = GoldenShardArenas(dir + "/source");
  ASSERT_EQ(source_arenas.size(), 3u);
  EXPECT_EQ(GoldenShardArenas(dir + "/flat"), source_arenas);

  SnapshotStore sharded_again(dir + "/sharded");
  ASSERT_TRUE(sharded_again.SaveSharded(index, VectorCodec()).ok());
  EXPECT_EQ(GoldenShardArenas(dir + "/sharded"), source_arenas);

  // An opened arena holds no double leaf distances, so the MVPT stream
  // layout is written from the built trees the arenas were laid out from.
  BinaryWriter refused;
  EXPECT_EQ(index.shard(0).Serialize(&refused, VectorCodec()).code(),
            StatusCode::kNotSupported);
  EXPECT_TRUE(refused.buffer().empty());
  ASSERT_NO_FATAL_FAILURE(WriteHeapGeneration(dir + "/heap", built.value()));
  SnapshotStore heap_again(dir + "/heap");
  auto reloaded = heap_again.LoadSharded<Vector>(L2(), VectorCodec());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().manifest.index_kind, IndexKind::kShardedMvpIndex);
  const Index& heap = reloaded.value().index;
  const auto queries = dataset::UniformQueryVectors(30, 8, 406);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SearchStats fs, hs, fks, hks;
    const auto range = index.RangeSearch(queries[q], 0.7, &fs);
    EXPECT_EQ(range, heap.RangeSearch(queries[q], 0.7, &hs)) << "query " << q;
    const auto knn = index.KnnSearch(queries[q], 5, &fks);
    EXPECT_EQ(knn, heap.KnnSearch(queries[q], 5, &hks)) << "query " << q;
    for (const auto& [a, b] : {std::pair{fs, hs}, std::pair{fks, hks}}) {
      EXPECT_EQ(a.distance_computations, b.distance_computations);
      EXPECT_EQ(a.nodes_visited, b.nodes_visited);
      EXPECT_EQ(a.leaf_points_seen, b.leaf_points_seen);
      EXPECT_EQ(a.leaf_points_filtered, b.leaf_points_filtered);
    }
  }
  std::filesystem::remove_all(dir);
}

/// Each tree opened from a flat generation keeps the mapping alive by
/// itself: the index answers after its SnapshotStore, its LoadedSharded and
/// the generation's files are all gone. Under ASan a dangling row or
/// array read fails here.
TEST(FlatKeepAliveTest, IndexOutlivesStoreAndPrunedGeneration) {
  const std::string dir = ::testing::TempDir() + "/flateq_keepalive";
  std::filesystem::remove_all(dir);
  const auto data = dataset::UniformVectors(300, 6, 407);
  Index::Options options;
  options.num_shards = 3;
  options.tree.leaf_capacity = 6;
  auto built = Index::Build(data, L2(), options);
  ASSERT_TRUE(built.ok());

  std::optional<Index> opened;
  {
    SnapshotStore store(dir);
    auto gen = store.SaveFlat(built.value());
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    {
      auto loaded = store.OpenFlat(L2());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      opened.emplace(std::move(loaded).ValueOrDie().index);
    }
    // A later generation becomes current, and the opened one is pruned.
    ASSERT_TRUE(store.SaveFlat(built.value()).ok());
    EXPECT_EQ(store.PruneStaleGenerations().value(), 1u);
    EXPECT_FALSE(std::filesystem::exists(store.GenerationDir(gen.value())));
  }
  std::filesystem::remove_all(dir);

  for (const auto& q : dataset::UniformQueryVectors(20, 6, 408)) {
    SearchStats os, bs;
    EXPECT_EQ(opened->KnnSearch(q, 4, &os), built.value().KnnSearch(q, 4, &bs));
    EXPECT_EQ(os.distance_computations, bs.distance_computations);
    EXPECT_EQ(opened->RangeSearch(q, 0.6), built.value().RangeSearch(q, 0.6));
  }
}

using OpenedTree = core::MvpTree<Vector, L2>;

/// Range and k-NN answers plus stats of `tree` over `queries`, flattened.
std::vector<std::pair<std::vector<Neighbor>, std::uint64_t>> Answers(
    const OpenedTree& tree, const std::vector<Vector>& queries) {
  std::vector<std::pair<std::vector<Neighbor>, std::uint64_t>> out;
  for (const Vector& q : queries) {
    SearchStats stats;
    auto hits = tree.RangeSearch(q, 0.8, &stats);
    for (const Neighbor& n : tree.KnnSearch(q, 3, &stats)) hits.push_back(n);
    out.emplace_back(std::move(hits), stats.distance_computations);
  }
  return out;
}

/// An 8-byte-aligned copy of a corpus arena seed ([u8 harness mode][arena]).
std::vector<std::uint64_t> CorpusArena(const std::string& name,
                                       std::size_t* size) {
  auto seed = ReadFile(std::string(MVPT_CORPUS_DIR) + "/flat_arena/" + name);
  EXPECT_TRUE(seed.ok()) << name;
  if (!seed.ok() || seed.value().size() < 2) return {};
  *size = seed.value().size() - 1;
  std::vector<std::uint64_t> aligned((*size + 7) / 8);
  std::memcpy(aligned.data(), seed.value().data() + 1, *size);
  return aligned;
}

/// A tree opened from a v1 arena owns the upgraded buffer, so it outlives
/// the caller's input bytes and answers as the tree over the v2 twin does.
TEST(FlatKeepAliveTest, V1TreeOutlivesItsInputBuffer) {
  std::size_t v2_size = 0;
  const auto v2 = CorpusArena("arena.bin", &v2_size);
  auto reference = flat::OpenTree(
      reinterpret_cast<const std::uint8_t*>(v2.data()), v2_size, L2(),
      nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const auto queries =
      dataset::UniformQueryVectors(10, reference.value().dim(), 409);

  std::size_t v1_size = 0;
  auto v1 = std::make_unique<std::vector<std::uint64_t>>(
      CorpusArena("arena_v1.bin", &v1_size));
  auto opened = flat::OpenTree(
      reinterpret_cast<const std::uint8_t*>(v1->data()), v1_size, L2(),
      nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  v1.reset();
  EXPECT_EQ(Answers(opened.value(), queries),
            Answers(reference.value(), queries));
}

/// A tree cannot be copied, and a move leaves no pointer into a freed
/// buffer: moved built trees and moved opened trees answer as before once
/// the source, and for the opened tree the caller's handle on its arena,
/// are gone.
TEST(FlatKeepAliveTest, MovedTreesKeepTheirBuffers) {
  static_assert(!std::is_copy_constructible_v<OpenedTree>);
  static_assert(!std::is_copy_assignable_v<OpenedTree>);
  const auto data = dataset::UniformVectors(200, 5, 410);
  const auto queries = dataset::UniformQueryVectors(10, 5, 411);
  core::MvpTreeOptions options;
  options.leaf_capacity = 6;

  auto source = std::make_unique<OpenedTree>(
      OpenedTree::Build(data, L2(), options).ValueOrDie());
  const auto want = Answers(*source, queries);
  BinaryWriter stream;
  ASSERT_TRUE(source->Serialize(&stream, VectorCodec{}).ok());
  auto arena = flat::BuildFlatArena(stream.buffer().data(),
                                    stream.buffer().size());
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();

  // Move-construct out of a built tree, then free the source.
  OpenedTree moved = std::move(*source);
  source.reset();
  EXPECT_EQ(Answers(moved, queries), want);

  // An opened tree shares its arena's owner; drop the caller's handle.
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(
      std::move(arena).ValueOrDie());
  auto opened = std::make_unique<OpenedTree>(
      flat::OpenTree(bytes->data(), bytes->size(), L2(), bytes).ValueOrDie());
  bytes.reset();
  // Move-assign over a built tree (freeing its arrays), then free the
  // source.
  moved = std::move(*opened);
  opened.reset();
  EXPECT_EQ(Answers(moved, queries), want);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FlatEquivalenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Clustered" : "Uniform";
                         });

}  // namespace
}  // namespace mvp::snapshot
