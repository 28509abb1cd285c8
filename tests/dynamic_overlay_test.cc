// The dynamic overlay's core contract: query results over base + memtable
// + tombstones are BIT-IDENTICAL to an index rebuilt from scratch over the
// current live set — across randomized insert/erase workloads (including
// erases of base objects, memtable objects, and re-inserted keys),
// checkpoints, compactions, reopens, and flat (mmap-served) bases. Plus
// the representation-naming save guards.

#include "dynamic/dynamic_overlay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/query.h"
#include "common/status.h"
#include "core/search_shared.h"
#include "metric/lp.h"
#include "scan/linear_scan.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "snapshot/manifest.h"
#include "snapshot/snapshot_store.h"
#include "snapshot_fixtures.h"
#include "wal/wal.h"

namespace mvp::dynamic {
namespace {

using Vec = std::vector<double>;
using Overlay = DynamicOverlay<Vec, metric::L2, VectorCodec>;
using Oracle = serve::ShardedMvpIndex<Vec, metric::L2>;

class DynamicOverlayTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 6;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/overlay_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Overlay::Options SmallOptions() const {
    Overlay::Options options;
    options.memtable.buffer_capacity = 16;
    options.memtable.tree.order = 2;
    options.memtable.tree.leaf_capacity = 8;
    options.memtable.tree.num_path_distances = 2;
    options.rebuild.num_shards = 3;
    options.rebuild.tree.order = 2;
    options.rebuild.tree.leaf_capacity = 8;
    options.rebuild.tree.num_path_distances = 2;
    return options;
  }

  Result<std::unique_ptr<Overlay>> OpenOverlay() {
    return Overlay::Open(dir_, metric::L2{}, VectorCodec{}, SmallOptions());
  }

  /// The index kind of the full generation the overlay's base opens: the
  /// committed generation, or the one a committed delta layers on.
  snapshot::IndexKind BaseKind() const {
    snapshot::SnapshotStore store(dir_);
    auto current = store.CurrentGeneration();
    EXPECT_TRUE(current.ok());
    auto manifest = store.ReadManifest(current.ok() ? current.value() : 0);
    if (manifest.ok() &&
        manifest.value().index_kind == snapshot::IndexKind::kDynamicDelta) {
      manifest = store.ReadManifest(manifest.value().base_generation);
    }
    EXPECT_TRUE(manifest.ok());
    return manifest.ok() ? manifest.value().index_kind
                         : snapshot::IndexKind::kDynamicDelta;
  }
  static snapshot::IndexKind KindOf(bool flat) {
    return flat ? snapshot::IndexKind::kFlatShardedMvpIndex
                : snapshot::IndexKind::kShardedMvpIndex;
  }

  Vec RandomVec(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    Vec v(kDim);
    for (double& x : v) x = uniform(rng);
    return v;
  }

  /// From-scratch oracle over the live set: a ShardedMvpIndex built over
  /// the live objects in ascending stable-id order, whose dense result ids
  /// are translated back through that order.
  struct RebuiltOracle {
    Oracle index;
    std::vector<std::uint64_t> stable;  // dense id -> stable id

    std::vector<Neighbor> RangeSearch(const Vec& q, double r) const {
      auto hits = index.RangeSearch(q, r);
      for (Neighbor& n : hits) n.id = static_cast<std::size_t>(stable[n.id]);
      return hits;
    }
    std::vector<Neighbor> KnnSearch(const Vec& q, std::size_t k) const {
      auto hits = index.KnnSearch(q, k);
      for (Neighbor& n : hits) n.id = static_cast<std::size_t>(stable[n.id]);
      return hits;
    }
  };

  RebuiltOracle Rebuild(const std::map<std::uint64_t, Vec>& live) const {
    std::vector<std::uint64_t> stable;
    std::vector<Vec> objects;
    for (const auto& [stable_id, object] : live) {
      stable.push_back(stable_id);
      objects.push_back(object);
    }
    auto built = Oracle::Build(std::move(objects), metric::L2{},
                               SmallOptions().rebuild);
    EXPECT_TRUE(built.ok()) << built.status().message();
    return RebuiltOracle{std::move(built).ValueOrDie(), std::move(stable)};
  }

  static void ExpectSameHits(const std::vector<Neighbor>& got,
                             const std::vector<Neighbor>& want,
                             const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << what << " hit " << i;
      // Bit-identical, not approximately equal: both sides run the same
      // metric over the same stored doubles.
      EXPECT_EQ(got[i].distance, want[i].distance) << what << " hit " << i;
    }
  }

  /// Cross-checks `queries` range + knn queries against a fresh rebuild.
  void ExpectEquivalent(const Overlay& overlay,
                        const std::map<std::uint64_t, Vec>& live,
                        std::mt19937_64& rng, int queries,
                        const std::string& what) {
    ASSERT_EQ(overlay.size(), live.size()) << what;
    const RebuiltOracle oracle = Rebuild(live);
    for (int q = 0; q < queries; ++q) {
      const Vec query = RandomVec(rng);
      const double radius = 0.2 + 0.2 * static_cast<double>(q % 4);
      ExpectSameHits(overlay.RangeSearch(query, radius),
                     oracle.RangeSearch(query, radius),
                     what + " range q" + std::to_string(q));
      const std::size_t k = 1 + static_cast<std::size_t>(q % 12);
      ExpectSameHits(overlay.KnnSearch(query, k), oracle.KnnSearch(query, k),
                     what + " knn q" + std::to_string(q));
    }
  }

  /// Commits one base generation over `objects` (stable id = position),
  /// flat-served or, as earlier releases wrote it, in the MVPT stream
  /// layout (heap-served), for the next OpenOverlay to load.
  void SeedBase(std::vector<Vec> objects, bool flat) {
    auto built =
        Oracle::Build(std::move(objects), metric::L2{}, SmallOptions().rebuild);
    ASSERT_TRUE(built.ok());
    if (!flat) {
      ASSERT_NO_FATAL_FAILURE(
          snapshot::WriteHeapGeneration(dir_, built.value()));
      return;
    }
    snapshot::SnapshotStore store(dir_);
    auto gen = store.SaveFlat(built.value());
    ASSERT_TRUE(gen.ok()) << gen.status().message();
  }

  /// Ground truth: the k nearest of `live` by linear scan, with stable ids.
  static std::vector<Neighbor> ScanLive(
      const std::map<std::uint64_t, Vec>& live, const Vec& query,
      std::size_t k) {
    std::vector<std::uint64_t> stable;
    std::vector<Vec> objects;
    for (const auto& [stable_id, object] : live) {
      stable.push_back(stable_id);
      objects.push_back(object);
    }
    const scan::LinearScan<Vec, metric::L2> scan(std::move(objects),
                                                 metric::L2{});
    auto hits = scan.KnnSearch(query, k);
    for (Neighbor& n : hits) n.id = static_cast<std::size_t>(stable[n.id]);
    return hits;
  }

  /// Tombstones are excluded inside the base's k-NN traversal, not
  /// filtered after an over-fetch. Erasing 500 base points in a cluster far
  /// from every query must leave each 10-NN answer unchanged and cost no
  /// extra distance: the count is exactly the base's own 10-NN search with
  /// the cluster excluded, and never above the count before the erase.
  /// (Asking the base for k + tombstones would make each a 510-NN search.)
  /// The count may drop: before the erase, a search whose heap is not yet
  /// full evaluates far leaf points that it now skips.
  void CheckFarErasesCostNothing(bool flat) {
    constexpr std::size_t kNear = 700;
    constexpr std::size_t kFar = 500;
    constexpr std::size_t kK = 10;
    std::mt19937_64 rng(41);
    std::vector<Vec> objects;
    for (std::size_t i = 0; i < kNear; ++i) objects.push_back(RandomVec(rng));
    for (std::size_t i = 0; i < kFar; ++i) {
      Vec v = RandomVec(rng);
      for (double& x : v) x = 50.0 + 0.1 * x;
      objects.push_back(std::move(v));
    }
    // The same deterministic build the store serves, searched directly.
    auto direct =
        Oracle::Build(objects, metric::L2{}, SmallOptions().rebuild);
    ASSERT_TRUE(direct.ok());
    ASSERT_NO_FATAL_FAILURE(SeedBase(std::move(objects), flat));
    auto opened = OpenOverlay();
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    Overlay& overlay = *opened.value();
    ASSERT_EQ(BaseKind(), KindOf(flat));
    const auto is_far = [](std::size_t g) { return g >= kNear; };

    std::vector<Vec> queries;
    for (int q = 0; q < 25; ++q) queries.push_back(RandomVec(rng));
    std::vector<std::vector<Neighbor>> before_hits;
    std::vector<std::uint64_t> before_dists;
    for (const Vec& query : queries) {
      SearchStats stats;
      before_hits.push_back(overlay.KnnSearch(query, kK, &stats));
      before_dists.push_back(stats.distance_computations);
    }

    for (std::size_t id = kNear; id < kNear + kFar; ++id) {
      ASSERT_TRUE(overlay.Erase(id).ok());
    }
    ASSERT_EQ(overlay.tombstone_count(), kFar);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SearchStats stats;
      const auto hits = overlay.KnnSearch(queries[q], kK, &stats);
      ExpectSameHits(hits, before_hits[q], "far-erase q" + std::to_string(q));
      SearchStats want;
      direct.value().KnnSearch(queries[q], kK, &want, nullptr,
                               core::Exclusion::Of(is_far));
      EXPECT_EQ(stats.distance_computations, want.distance_computations)
          << "query " << q;
      EXPECT_LE(stats.distance_computations, before_dists[q])
          << "query " << q;
    }
  }

  /// Erases one query's whole true top-k and more, on a base with a
  /// memtable over it, and checks the k-NN answer against a linear scan of
  /// the live set through KnnSearch and through serve::RunBatch (the
  /// KnnSearchInto harvest door) — live, and again after a checkpoint and
  /// reopen, when the tombstones come back from the delta generation.
  void CheckErasedTopKMatchesScan(bool flat) {
    constexpr std::size_t kK = 10;
    std::mt19937_64 rng(43);
    std::map<std::uint64_t, Vec> live;
    std::vector<Vec> objects;
    for (std::uint64_t i = 0; i < 400; ++i) {
      objects.push_back(RandomVec(rng));
      live[i] = objects.back();
    }
    ASSERT_NO_FATAL_FAILURE(SeedBase(std::move(objects), flat));
    auto opened = OpenOverlay();
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<Overlay> overlay = std::move(opened).ValueOrDie();
    for (int i = 0; i < 30; ++i) {
      Vec v = RandomVec(rng);
      auto id = overlay->Insert(v);
      ASSERT_TRUE(id.ok());
      live[id.value()] = std::move(v);
    }

    // The focus query's 3k nearest live objects go (base and memtable
    // alike), plus a random 40 elsewhere.
    const Vec focus = RandomVec(rng);
    for (const Neighbor& n : ScanLive(live, focus, 3 * kK)) {
      ASSERT_TRUE(overlay->Erase(n.id).ok());
      live.erase(n.id);
    }
    for (int i = 0; i < 40; ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      ASSERT_TRUE(overlay->Erase(it->first).ok());
      live.erase(it);
    }

    std::vector<Vec> queries{focus};
    for (int q = 0; q < 15; ++q) queries.push_back(RandomVec(rng));
    const auto check = [&](const Overlay& o, const std::string& what) {
      using Query = serve::BatchQuery<Vec>;
      std::vector<Query> batch;
      for (const Vec& query : queries) {
        Query bq;
        bq.kind = Query::Kind::kKnn;
        bq.object = query;
        bq.k = kK;
        batch.push_back(std::move(bq));
      }
      const auto outcomes = serve::RunBatch(o, batch, nullptr);
      ASSERT_EQ(outcomes.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto want = ScanLive(live, queries[q], kK);
        const std::string tag = what + " q" + std::to_string(q);
        ExpectSameHits(o.KnnSearch(queries[q], kK), want, tag);
        ASSERT_TRUE(outcomes[q].status.ok()) << tag;
        ExpectSameHits(outcomes[q].neighbors, want, tag + " batch");
      }
    };
    check(*overlay, "live");

    auto gen = overlay->Checkpoint();
    ASSERT_TRUE(gen.ok()) << gen.status().message();
    overlay.reset();
    auto reopened = OpenOverlay();
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    overlay = std::move(reopened).ValueOrDie();
    ASSERT_EQ(BaseKind(), KindOf(flat));
    ASSERT_GT(overlay->tombstone_count(), 3 * kK);
    check(*overlay, "reopened");
  }

  std::string dir_;
};

TEST_F(DynamicOverlayTest, FreshStoreInsertsAndSearches) {
  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Overlay& overlay = *opened.value();

  std::mt19937_64 rng(7);
  std::map<std::uint64_t, Vec> live;
  for (int i = 0; i < 40; ++i) {
    Vec v = RandomVec(rng);
    auto id = overlay.Insert(v);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), static_cast<std::size_t>(i));  // dense, in order
    live[id.value()] = std::move(v);
  }
  ExpectEquivalent(overlay, live, rng, 30, "fresh");
}

TEST_F(DynamicOverlayTest, EraseContract) {
  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok());
  Overlay& overlay = *opened.value();

  std::mt19937_64 rng(11);
  const Vec kept = RandomVec(rng);
  const Vec dropped = RandomVec(rng);
  auto kept_id = overlay.Insert(kept);
  auto dropped_id = overlay.Insert(dropped);
  ASSERT_TRUE(kept_id.ok());
  ASSERT_TRUE(dropped_id.ok());

  ASSERT_TRUE(overlay.Erase(dropped_id.value()).ok());
  EXPECT_EQ(overlay.Erase(dropped_id.value()).code(), StatusCode::kNotFound);
  EXPECT_EQ(overlay.Erase(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(overlay.size(), 1u);

  // The erased object is gone from results immediately; a re-insert of the
  // same payload gets a FRESH id, never the old one back.
  auto hits = overlay.RangeSearch(dropped, 1e-12);
  EXPECT_TRUE(hits.empty());
  auto again = overlay.Insert(dropped);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again.value(), dropped_id.value());
  hits = overlay.RangeSearch(dropped, 1e-12);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, again.value());
}

// The tentpole acceptance test: a randomized insert/erase workload with
// checkpoints, compactions, and full reopens interleaved, cross-checked
// against a from-scratch rebuild after every batch. Over the run this
// executes well over a thousand range/k-NN queries, covering erased base
// objects, erased memtable objects, and keys re-inserted after erasure.
TEST_F(DynamicOverlayTest, RandomizedWorkloadMatchesRebuildExactly) {
  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Overlay> overlay = std::move(opened).ValueOrDie();

  std::mt19937_64 rng(1234);
  std::map<std::uint64_t, Vec> live;

  constexpr int kBatches = 10;
  for (int batch = 0; batch < kBatches; ++batch) {
    // Mutate: ~30 inserts (some re-using previously erased payloads) and
    // ~10 erases per batch.
    for (int i = 0; i < 30; ++i) {
      Vec v = RandomVec(rng);
      auto id = overlay->Insert(v);
      ASSERT_TRUE(id.ok()) << id.status().message();
      live[id.value()] = std::move(v);
    }
    for (int i = 0; i < 10 && !live.empty(); ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      if (rng() % 3 == 0) {
        // Erase-then-reinsert: the payload returns under a fresh id.
        Vec v = it->second;
        ASSERT_TRUE(overlay->Erase(it->first).ok());
        live.erase(it);
        auto id = overlay->Insert(v);
        ASSERT_TRUE(id.ok());
        live[id.value()] = std::move(v);
      } else {
        ASSERT_TRUE(overlay->Erase(it->first).ok());
        live.erase(it);
      }
    }

    // Structural event: rotate through checkpoint / compact / reopen /
    // nothing, so equivalence is checked in every lifecycle state.
    switch (batch % 4) {
      case 1: {
        auto gen = overlay->Checkpoint();
        ASSERT_TRUE(gen.ok()) << gen.status().message();
        break;
      }
      case 2: {
        auto gen = overlay->Compact();
        ASSERT_TRUE(gen.ok()) << gen.status().message();
        EXPECT_EQ(overlay->memtable_size(), 0u);
        EXPECT_EQ(overlay->tombstone_count(), 0u);
        break;
      }
      case 3: {
        auto checkpoint = overlay->Checkpoint();
        ASSERT_TRUE(checkpoint.ok());
        overlay.reset();  // close
        auto reopened = OpenOverlay();
        ASSERT_TRUE(reopened.ok()) << reopened.status().message();
        overlay = std::move(reopened).ValueOrDie();
        break;
      }
      default:
        break;
    }

    ExpectEquivalent(*overlay, live, rng, 60,
                     "batch " + std::to_string(batch));
  }
}

TEST_F(DynamicOverlayTest, ReopenReplaysTheWalWithoutACheckpoint) {
  std::mt19937_64 rng(99);
  std::map<std::uint64_t, Vec> live;
  {
    auto opened = OpenOverlay();
    ASSERT_TRUE(opened.ok());
    Overlay& overlay = *opened.value();
    for (int i = 0; i < 50; ++i) {
      Vec v = RandomVec(rng);
      auto id = overlay.Insert(v);
      ASSERT_TRUE(id.ok());
      live[id.value()] = std::move(v);
    }
    ASSERT_TRUE(overlay.Erase(3).ok());
    ASSERT_TRUE(overlay.Erase(17).ok());
    live.erase(3);
    live.erase(17);
    // No checkpoint: everything lives only in the WAL when we close.
  }
  auto reopened = OpenOverlay();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->stats().replayed_records, 52u);
  EXPECT_EQ(reopened.value()->next_stable_id(), 50u);
  ExpectEquivalent(*reopened.value(), live, rng, 30, "replayed");

  // Ids keep ascending across the reopen — never reused.
  auto id = reopened.value()->Insert(RandomVec(rng));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 50u);
}

// A vector mvp-tree holds rows of one dimension, so the overlay refuses a
// vector of any other before logging it: the insert fails, issues no id and
// writes no WAL record, the memtable's next merge goes through, and the
// store reopens. A reopen takes the dimension from the memtable, or from
// the base after a compaction. A shipped record of another dimension is
// Corruption and is not appended to the follower's WAL.
TEST_F(DynamicOverlayTest, InsertOfAnotherDimensionIsRefusedBeforeTheWal) {
  std::mt19937_64 rng(31);
  std::map<std::uint64_t, Vec> live;
  const auto insert_live = [&](Overlay& overlay) {
    Vec v = RandomVec(rng);
    auto id = overlay.Insert(v);
    ASSERT_TRUE(id.ok()) << id.status().message();
    live[id.value()] = std::move(v);
  };
  const auto expect_refused = [](Overlay& overlay, std::size_t dim) {
    EXPECT_EQ(overlay.Insert(Vec(dim, 0.5)).status().code(),
              StatusCode::kInvalidArgument)
        << dim << "-d";
  };
  {
    auto opened = OpenOverlay();
    ASSERT_TRUE(opened.ok());
    Overlay& overlay = *opened.value();
    expect_refused(overlay, 0);  // no dimension fits an empty vector
    insert_live(overlay);
    expect_refused(overlay, kDim - 1);
    expect_refused(overlay, kDim + 1);
    // Past the buffer capacity (16), so the memtable merges a level.
    for (int i = 0; i < 20; ++i) insert_live(overlay);
    expect_refused(overlay, kDim - 1);
    EXPECT_EQ(overlay.next_stable_id(), 21u);
    EXPECT_EQ(overlay.applied_seq(), 21u);
    ExpectEquivalent(overlay, live, rng, 10, "refused");
  }
  {
    auto reopened = OpenOverlay();
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    Overlay& overlay = *reopened.value();
    EXPECT_EQ(overlay.stats().replayed_records, 21u);
    ExpectEquivalent(overlay, live, rng, 10, "reopened");
    expect_refused(overlay, kDim - 1);
    ASSERT_TRUE(overlay.Compact().ok());
  }
  std::uint64_t next_id = 0;
  {
    auto reopened = OpenOverlay();
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    Overlay& overlay = *reopened.value();
    EXPECT_EQ(overlay.memtable_size(), 0u);
    expect_refused(overlay, kDim + 1);
    insert_live(overlay);

    BinaryWriter payload;
    VectorCodec{}.Write(payload, Vec(kDim - 1, 0.5));
    wal::WalRecord record;
    record.op = wal::WalOp::kInsert;
    record.seq = overlay.applied_seq() + 1;
    record.id = overlay.next_stable_id();
    record.payload = std::move(payload).TakeBuffer();
    EXPECT_EQ(overlay.ApplyReplicated({record}).code(),
              StatusCode::kCorruption);
    insert_live(overlay);  // its fsync would flush a logged refused record
    next_id = overlay.next_stable_id();
  }
  auto reopened = OpenOverlay();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->next_stable_id(), next_id);
  ExpectEquivalent(*reopened.value(), live, rng, 10, "after shipped refusal");
}

// A vector with a NaN coordinate has NaN distances, which no search can
// order, so Insert refuses it before logging it, as the first vector and
// later alike. A logged record is held to the dimension alone: a NaN
// vector an older build wrote to a leader's WAL still ships and replays.
TEST_F(DynamicOverlayTest, InsertWithNanCoordinateIsRefusedBeforeTheWal) {
  std::mt19937_64 rng(37);
  Vec with_nan = RandomVec(rng);
  with_nan[kDim / 2] = std::numeric_limits<double>::quiet_NaN();
  {
    auto opened = OpenOverlay();
    ASSERT_TRUE(opened.ok());
    Overlay& overlay = *opened.value();
    EXPECT_EQ(overlay.Insert(with_nan).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(overlay.dim(), 0u);  // a refused vector fixes no dimension
    ASSERT_TRUE(overlay.Insert(RandomVec(rng)).ok());
    EXPECT_EQ(overlay.Insert(with_nan).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(overlay.next_stable_id(), 1u);
    EXPECT_EQ(overlay.applied_seq(), 1u);

    BinaryWriter payload;
    VectorCodec{}.Write(payload, with_nan);
    wal::WalRecord record;
    record.op = wal::WalOp::kInsert;
    record.seq = overlay.applied_seq() + 1;
    record.id = overlay.next_stable_id();
    record.payload = std::move(payload).TakeBuffer();
    ASSERT_TRUE(overlay.ApplyReplicated({record}).ok());
    EXPECT_EQ(overlay.next_stable_id(), 2u);
  }
  auto reopened = OpenOverlay();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->stats().replayed_records, 2u);
  EXPECT_EQ(reopened.value()->next_stable_id(), 2u);
}

TEST_F(DynamicOverlayTest, CheckpointWritesADeltaProportionalToChurn) {
  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok());
  Overlay& overlay = *opened.value();

  std::mt19937_64 rng(5);
  std::map<std::uint64_t, Vec> live;
  for (int i = 0; i < 400; ++i) {
    Vec v = RandomVec(rng);
    auto id = overlay.Insert(v);
    ASSERT_TRUE(id.ok());
    live[id.value()] = std::move(v);
  }
  auto base_gen = overlay.Compact();
  ASSERT_TRUE(base_gen.ok());

  // Small churn on a large base.
  for (int i = 0; i < 8; ++i) {
    Vec v = RandomVec(rng);
    auto id = overlay.Insert(v);
    ASSERT_TRUE(id.ok());
    live[id.value()] = std::move(v);
  }
  ASSERT_TRUE(overlay.Erase(5).ok());
  live.erase(5);

  auto delta_gen = overlay.Checkpoint();
  ASSERT_TRUE(delta_gen.ok());
  EXPECT_GT(delta_gen.value(), base_gen.value());
  EXPECT_EQ(overlay.base_generation(), base_gen.value());  // base unchanged

  snapshot::SnapshotStore store(dir_);
  auto base_manifest = store.ReadManifest(base_gen.value());
  auto delta_manifest = store.ReadManifest(delta_gen.value());
  ASSERT_TRUE(base_manifest.ok());
  ASSERT_TRUE(delta_manifest.ok());
  EXPECT_EQ(delta_manifest.value().index_kind,
            snapshot::IndexKind::kDynamicDelta);
  EXPECT_EQ(delta_manifest.value().base_generation, base_gen.value());
  // The checkpoint's I/O is proportional to the churn (9 objects), not the
  // index (400 objects): the delta container must be a small fraction of
  // the base container it layers on.
  EXPECT_LT(delta_manifest.value().payload_bytes,
            base_manifest.value().payload_bytes / 4);

  // The WAL was folded in and truncated.
  auto log = wal::ReadWal(overlay.wal_path());
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log.value().records.empty());

  // A reopen from the delta serves the same results.
  ExpectEquivalent(overlay, live, rng, 20, "delta-live");
  auto reopened = OpenOverlay();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectEquivalent(*reopened.value(), live, rng, 20, "delta-reopened");

  // Pruning keeps the delta's base alive (lineage), removing nothing here.
  EXPECT_EQ(store.PruneStaleGenerations().value(), 0u);
  auto repruned = OpenOverlay();
  ASSERT_TRUE(repruned.ok());
}

TEST_F(DynamicOverlayTest, CheckpointWithNothingNewIsANoOp) {
  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok());
  Overlay& overlay = *opened.value();
  auto id = overlay.Insert(Vec(kDim, 0.5));
  ASSERT_TRUE(id.ok());
  auto first = overlay.Checkpoint();
  ASSERT_TRUE(first.ok());
  auto second = overlay.Checkpoint();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());  // no new generation written
}

TEST_F(DynamicOverlayTest, OverlayServesOverAFlatBase) {
  // Seed the store with a FLAT (mmap-served) generation, the
  // zero-deserialization serving path, then mutate on top of it.
  std::mt19937_64 rng(21);
  std::map<std::uint64_t, Vec> live;
  {
    std::vector<Vec> objects;
    for (int i = 0; i < 120; ++i) {
      objects.push_back(RandomVec(rng));
      live[static_cast<std::uint64_t>(i)] = objects.back();
    }
    auto built =
        Oracle::Build(std::move(objects), metric::L2{}, SmallOptions().rebuild);
    ASSERT_TRUE(built.ok());
    snapshot::SnapshotStore store(dir_);
    auto gen = store.SaveFlat(built.value());
    ASSERT_TRUE(gen.ok()) << gen.status().message();
  }

  auto opened = OpenOverlay();
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Overlay& overlay = *opened.value();
  EXPECT_EQ(BaseKind(), snapshot::IndexKind::kFlatShardedMvpIndex);
  EXPECT_EQ(overlay.size(), 120u);
  EXPECT_EQ(overlay.Insert(Vec(kDim + 1, 0.5)).status().code(),
            StatusCode::kInvalidArgument);  // the flat rows' dimension

  // Erase base objects, insert new ones — all on top of the mapping.
  ASSERT_TRUE(overlay.Erase(7).ok());
  ASSERT_TRUE(overlay.Erase(64).ok());
  live.erase(7);
  live.erase(64);
  for (int i = 0; i < 25; ++i) {
    Vec v = RandomVec(rng);
    auto id = overlay.Insert(v);
    ASSERT_TRUE(id.ok());
    live[id.value()] = std::move(v);
  }
  ExpectEquivalent(overlay, live, rng, 40, "flat-base");

  // Compaction rebuilds the live set from the mapped vectors and writes it
  // as fresh arenas; results must not change, before or after a reopen.
  auto gen = overlay.Compact();
  ASSERT_TRUE(gen.ok()) << gen.status().message();
  EXPECT_EQ(BaseKind(), snapshot::IndexKind::kFlatShardedMvpIndex);
  ExpectEquivalent(overlay, live, rng, 40, "flat-compacted");
  opened.value().reset();
  auto reopened = OpenOverlay();
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectEquivalent(*reopened.value(), live, rng, 40, "flat-compacted-reopened");
}

TEST_F(DynamicOverlayTest, FarErasesCostAHeapBaseNoDistances) {
  CheckFarErasesCostNothing(/*flat=*/false);
}

TEST_F(DynamicOverlayTest, FarErasesCostAFlatBaseNoDistances) {
  CheckFarErasesCostNothing(/*flat=*/true);
}

TEST_F(DynamicOverlayTest, ErasedTopKMatchesScanOverAHeapBase) {
  CheckErasedTopKMatchesScan(/*flat=*/false);
}

TEST_F(DynamicOverlayTest, ErasedTopKMatchesScanOverAFlatBase) {
  CheckErasedTopKMatchesScan(/*flat=*/true);
}

// Every save path accepts an index opened from a flat generation: its shard
// trees borrow the mapping, and the saved generation reloads into the same
// answers.
TEST_F(DynamicOverlayTest, SavePathsAcceptAnOpenedFlatIndex) {
  std::mt19937_64 rng(3);
  std::vector<Vec> objects;
  for (int i = 0; i < 60; ++i) objects.push_back(RandomVec(rng));
  auto built =
      Oracle::Build(std::move(objects), metric::L2{}, SmallOptions().rebuild);
  ASSERT_TRUE(built.ok());

  snapshot::SnapshotStore store(dir_);
  ASSERT_TRUE(store.SaveFlat(built.value()).ok());
  auto flat = store.OpenFlat<metric::L2>(metric::L2{});
  ASSERT_TRUE(flat.ok());
  const auto& index = flat.value().index;
  std::vector<std::uint64_t> stable_ids(index.size());
  for (std::size_t g = 0; g < stable_ids.size(); ++g) stable_ids[g] = g;

  const Vec query = RandomVec(rng);
  const auto want = index.KnnSearch(query, 5);
  for (const auto& saved :
       {store.SaveSharded(index, VectorCodec{}), store.SaveFlat(index),
        store.SaveCompacted(index, stable_ids, 1, 60)}) {
    ASSERT_TRUE(saved.ok()) << saved.status().message();
    auto reloaded = store.LoadSharded<Vec>(metric::L2{}, VectorCodec{},
                                           nullptr, saved.value());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
    EXPECT_EQ(reloaded.value().index.KnnSearch(query, 5), want);
  }
}

}  // namespace
}  // namespace mvp::dynamic
