// Loopback integration tests for the network serving subsystem: a real
// Server on 127.0.0.1 with real sockets, driven through the real Client.
// The core claim is transparency — a query answered over the wire returns
// bit-identical neighbors AND bit-identical SearchStats to the same query
// run in-process through serve::RunBatch on the same snapshot, and the
// serving disciplines (deadlines, per-tenant clamps, admission shedding,
// ServeStats) survive the network hop intact.

#include "fault/fault_fs.h"  // platform gate: defines MVPTREE_FAULT_FS_POSIX

#if defined(MVPTREE_FAULT_FS_POSIX)

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "dataset/vector_gen.h"
#include "dynamic/dynamic_overlay.h"
#include "fault/failpoint.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/snapshot_store.h"

namespace mvp::net {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

std::vector<Vector> LeaderData() { return dataset::UniformVectors(300, 4, 7); }

Index BuildLeaderIndex() {
  Index::Options options;
  options.num_shards = 2;
  options.tree.order = 3;
  options.tree.leaf_capacity = 8;
  options.tree.num_path_distances = 2;
  auto built = Index::Build(LeaderData(), L2(), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).ValueOrDie();
}

/// A deterministic mixed workload: alternating range and k-NN queries, no
/// deadlines — every outcome is a pure function of the snapshot.
std::vector<WireQuery> MixedQueries(std::size_t n) {
  const auto points = dataset::UniformQueryVectors(n, 4, 23);
  std::vector<WireQuery> queries;
  for (std::size_t i = 0; i < n; ++i) {
    WireQuery q;
    q.point = points[i];
    if (i % 2 == 0) {
      q.kind = 0;
      q.radius = 0.45 + 0.1 * static_cast<double>(i % 3);
    } else {
      q.kind = 1;
      q.k = 1 + i % 7;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The same workload expressed for the in-process executor.
std::vector<serve::BatchQuery<Vector>> InProcessQueries(
    const std::vector<WireQuery>& wire) {
  std::vector<serve::BatchQuery<Vector>> batch;
  for (const WireQuery& w : wire) {
    serve::BatchQuery<Vector> q;
    q.kind = w.kind == 1 ? serve::BatchQuery<Vector>::Kind::kKnn
                         : serve::BatchQuery<Vector>::Kind::kRange;
    q.object = w.point;
    q.radius = w.radius;
    q.k = static_cast<std::size_t>(w.k);
    batch.push_back(std::move(q));
  }
  return batch;
}

void ExpectOutcomeMatches(const WireOutcome& remote,
                          const serve::QueryOutcome& local, std::size_t i) {
  EXPECT_EQ(remote.status_code,
            static_cast<std::uint32_t>(local.status.code()))
      << "query " << i;
  EXPECT_EQ(remote.partial, local.partial) << "query " << i;
  EXPECT_EQ(remote.distance_computations, local.distance_computations)
      << "query " << i;
  EXPECT_EQ(remote.search.distance_computations,
            local.search.distance_computations)
      << "query " << i;
  EXPECT_EQ(remote.search.nodes_visited, local.search.nodes_visited)
      << "query " << i;
  EXPECT_EQ(remote.search.leaf_points_seen, local.search.leaf_points_seen)
      << "query " << i;
  EXPECT_EQ(remote.search.leaf_points_filtered,
            local.search.leaf_points_filtered)
      << "query " << i;
  ASSERT_EQ(remote.neighbors.size(), local.neighbors.size()) << "query " << i;
  for (std::size_t j = 0; j < remote.neighbors.size(); ++j) {
    EXPECT_EQ(remote.neighbors[j].id, local.neighbors[j].id)
        << "query " << i << " neighbor " << j;
    EXPECT_EQ(remote.neighbors[j].distance, local.neighbors[j].distance)
        << "query " << i << " neighbor " << j;
  }
}

class NetLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/net_loopback_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::Failpoints::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string StorePath(const std::string& name) { return dir_ + "/" + name; }

  /// Starts a server hosting one static flat collection over `store_dir`.
  std::unique_ptr<Server> StartStatic(const std::string& store_dir,
                                      CollectionOptions extra = {}) {
    extra.name = extra.name.empty() ? "vecs" : extra.name;
    extra.dir = store_dir;
    ServerOptions options;
    options.collections.push_back(std::move(extra));
    auto server = Server::Start(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(server).ValueOrDie() : nullptr;
  }

  Client MustConnect(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  std::string dir_;
};

TEST_F(NetLoopbackTest, PingAndListCollections) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  auto saved = store.SaveFlat(BuildLeaderIndex());
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  EXPECT_TRUE(client.Ping().ok());

  auto collections = client.ListCollections();
  ASSERT_TRUE(collections.ok()) << collections.status().ToString();
  ASSERT_EQ(collections.value().size(), 1u);
  const WireCollectionInfo& info = collections.value()[0];
  EXPECT_EQ(info.name, "vecs");
  EXPECT_EQ(info.metric, "l2");
  EXPECT_FALSE(info.dynamic);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.size, LeaderData().size());
  server->Stop();
}

// The tentpole transparency claim: results AND SearchStats that cross the
// wire are bit-identical to the in-process executor over the same
// generation — single-query RPC and the streaming batch path both.
TEST_F(NetLoopbackTest, RemoteResultsBitIdenticalToInProcess) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  const auto queries = MixedQueries(24);
  auto remote = client.BatchQuery("vecs", queries);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote.value().size(), queries.size());

  // In-process baseline over the same committed generation.
  serve::ThreadPool pool(4);
  auto loaded = store.OpenFlat<L2>(L2(), &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto local = serve::RunBatch(loaded.value().index,
                                     InProcessQueries(queries), &pool);
  ASSERT_EQ(local.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectOutcomeMatches(remote.value()[i], local[i], i);
  }

  // The single-query RPC goes through the same executor path.
  for (const std::size_t i : {std::size_t{0}, std::size_t{5}}) {
    auto one = client.Query("vecs", queries[i]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ExpectOutcomeMatches(one.value(), local[i], i);
  }
  server->Stop();
}

// A dynamic collection recovers its WAL at server start and serves the
// live set; results match a brute-force scan with the same metric.
TEST_F(NetLoopbackTest, DynamicCollectionServesRecoveredOverlay) {
  const std::string store_dir = StorePath("live");
  std::filesystem::create_directories(store_dir);
  const auto data = dataset::UniformVectors(120, 4, 41);
  {
    // Populate, then destroy: the server must recover from the WAL alone.
    auto overlay = dynamic::DynamicOverlay<Vector, L2, VectorCodec>::Open(
        store_dir, L2(), VectorCodec{});
    ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
    for (const Vector& v : data) {
      ASSERT_TRUE(overlay.value()->Insert(v).ok());
    }
  }

  CollectionOptions collection;
  collection.name = "live";
  collection.dynamic = true;
  auto server = StartStatic(store_dir, collection);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  auto collections = client.ListCollections();
  ASSERT_TRUE(collections.ok());
  ASSERT_EQ(collections.value().size(), 1u);
  EXPECT_TRUE(collections.value()[0].dynamic);
  EXPECT_EQ(collections.value()[0].size, data.size());

  const auto points = dataset::UniformQueryVectors(8, 4, 51);
  L2 metric;
  for (const Vector& point : points) {
    WireQuery q;
    q.kind = 1;
    q.k = 5;
    q.point = point;
    auto outcome = client.Query("live", q);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().status_code, 0u);

    // Brute-force 5-NN by (distance, insert-order id).
    std::vector<Neighbor> expected;
    for (std::size_t id = 0; id < data.size(); ++id) {
      expected.push_back(Neighbor{id, metric(point, data[id])});
    }
    std::sort(expected.begin(), expected.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.id < b.id;
              });
    expected.resize(5);
    ASSERT_EQ(outcome.value().neighbors.size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(outcome.value().neighbors[j].id, expected[j].id);
      EXPECT_EQ(outcome.value().neighbors[j].distance, expected[j].distance);
    }
  }
  server->Stop();
}

// Deadlines travel the wire: a zero timeout is shed dead-on-arrival, and a
// tenant's max-timeout clamp expires even a client that asked for none.
TEST_F(NetLoopbackTest, DeadlinesAndTenantClampOverTheWire) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  CollectionOptions clamped;
  clamped.name = "clamped";
  clamped.dir = store_dir;
  // Every query's budget collapses to zero — shed dead-on-arrival, which
  // (unlike a tiny-but-nonzero clamp) is deterministic by contract.
  clamped.max_timeout_ns = 0;
  ServerOptions options;
  CollectionOptions plain;
  plain.name = "vecs";
  plain.dir = store_dir;
  options.collections.push_back(plain);
  options.collections.push_back(clamped);
  auto server = Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = MustConnect(*server.value());

  // A zero budget is shed before any index work — by the executor's
  // dead-on-arrival check (DeadlineExceeded) or, when other zero-budget
  // queries are momentarily in flight, by admission's would-be-DOA
  // estimate (ResourceExhausted). Which one wins the race varies; that the
  // query never runs does not.
  auto expect_all_shed = [](const std::vector<WireOutcome>& outcomes) {
    for (const WireOutcome& outcome : outcomes) {
      EXPECT_TRUE(
          outcome.status_code ==
              static_cast<std::uint32_t>(StatusCode::kDeadlineExceeded) ||
          outcome.status_code ==
              static_cast<std::uint32_t>(StatusCode::kResourceExhausted))
          << outcome.status_message;
      EXPECT_TRUE(outcome.neighbors.empty());
      EXPECT_EQ(outcome.distance_computations, 0u);
    }
  };

  auto queries = MixedQueries(6);
  for (WireQuery& q : queries) q.timeout_ns = 0;
  auto doa = client.BatchQuery("vecs", queries);
  ASSERT_TRUE(doa.ok()) << doa.status().ToString();
  expect_all_shed(doa.value());

  // No client-side timeout at all — the tenant clamp still applies.
  auto clamped_queries = MixedQueries(6);
  auto expired = client.BatchQuery("clamped", clamped_queries);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  expect_all_shed(expired.value());

  // Stats RPC: both tenants accounted separately, every query refused.
  auto stats = client.Stats("clamped");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().queries, clamped_queries.size());
  EXPECT_EQ(stats.value().deadline_exceeded + stats.value().shed,
            clamped_queries.size());
  EXPECT_EQ(stats.value().ok, 0u);
  server.value()->Stop();
}

// Admission budgets travel the wire: a tenant with a zero in-flight budget
// sheds everything as ResourceExhausted, and the Stats RPC reports it.
TEST_F(NetLoopbackTest, AdmissionSheddingOverTheWire) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  CollectionOptions collection;
  collection.name = "vecs";
  collection.admission.max_in_flight = 0;  // shed unconditionally
  auto server = StartStatic(store_dir, collection);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  const auto queries = MixedQueries(16);
  auto shed = client.BatchQuery("vecs", queries);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  for (const WireOutcome& outcome : shed.value()) {
    EXPECT_EQ(outcome.status_code,
              static_cast<std::uint32_t>(StatusCode::kResourceExhausted));
    EXPECT_TRUE(outcome.neighbors.empty());
  }
  auto stats = client.Stats("vecs");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queries, queries.size());
  EXPECT_EQ(stats.value().shed, queries.size());
  server->Stop();
}

// ServeStats accumulate across RPCs and the snapshot that crosses the wire
// matches the workload exactly (deterministic: no deadlines, no shedding).
TEST_F(NetLoopbackTest, StatsRpcMatchesWorkload) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  const auto queries = MixedQueries(20);
  auto remote = client.BatchQuery("vecs", queries);
  ASSERT_TRUE(remote.ok());
  std::uint64_t distances = 0, results = 0;
  for (const WireOutcome& outcome : remote.value()) {
    ASSERT_EQ(outcome.status_code, 0u);
    distances += outcome.distance_computations;
    results += outcome.neighbors.size();
  }

  auto stats = client.Stats("vecs");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().queries, queries.size());
  EXPECT_EQ(stats.value().ok, queries.size());
  EXPECT_EQ(stats.value().shed, 0u);
  EXPECT_EQ(stats.value().deadline_exceeded, 0u);
  EXPECT_EQ(stats.value().distance_computations, distances);
  EXPECT_EQ(stats.value().results_returned, results);
  server->Stop();
}

TEST_F(NetLoopbackTest, UnknownCollectionIsNotFound) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  WireQuery q = MixedQueries(1)[0];
  auto outcome = client.Query("nope", q);
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  // The connection survives a per-request error.
  EXPECT_TRUE(client.Ping().ok());
  server->Stop();
}

// Queries the index cannot answer exactly — a NaN or negative radius, a NaN
// or ±Inf coordinate, a point of the wrong dimension — come back
// InvalidArgument in the outcome, and the same connection then answers a
// valid query as the in-process executor does.
TEST_F(NetLoopbackTest, InvalidQueriesAreRejectedOverTheWire) {
  const std::string store_dir = StorePath("leader");
  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());

  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  const WireQuery valid = MixedQueries(1)[0];
  ASSERT_EQ(valid.kind, 0u);
  std::vector<std::pair<std::string, WireQuery>> invalid(6, {"", valid});
  invalid[0].first = "NaN radius";
  invalid[0].second.radius = std::numeric_limits<double>::quiet_NaN();
  invalid[1].first = "negative radius";
  invalid[1].second.radius = -0.5;
  invalid[2].first = "NaN coordinate";
  invalid[2].second.point[1] = std::numeric_limits<double>::quiet_NaN();
  invalid[3].first = "wrong dimension";
  invalid[3].second.point.pop_back();
  invalid[4].first = "+Inf coordinate";
  invalid[4].second.point[0] = std::numeric_limits<double>::infinity();
  invalid[5].first = "-Inf coordinate";
  invalid[5].second.point[2] = -std::numeric_limits<double>::infinity();
  for (const auto& [what, query] : invalid) {
    auto outcome = client.Query("vecs", query);
    ASSERT_TRUE(outcome.ok()) << what << ": " << outcome.status().ToString();
    EXPECT_EQ(outcome.value().status_code,
              static_cast<std::uint32_t>(StatusCode::kInvalidArgument))
        << what;
    EXPECT_TRUE(outcome.value().neighbors.empty()) << what;
  }

  auto answered = client.Query("vecs", valid);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  auto loaded = store.OpenFlat<L2>(L2());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto local = serve::RunBatch(loaded.value().index,
                                     InProcessQueries({valid}), nullptr);
  ASSERT_EQ(local.size(), 1u);
  ASSERT_TRUE(local[0].status.ok());
  ASSERT_FALSE(local[0].neighbors.empty());
  ExpectOutcomeMatches(answered.value(), local[0], 0);
  server->Stop();
}

// A static collection over an empty store starts up, serves NotFound, and
// begins serving after a generation is committed + Refresh hot-swaps it —
// the follower lifecycle without the network pull.
TEST_F(NetLoopbackTest, EmptyCollectionRefreshLifecycle) {
  const std::string store_dir = StorePath("empty");
  auto server = StartStatic(store_dir);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  auto collections = client.ListCollections();
  ASSERT_TRUE(collections.ok());
  EXPECT_EQ(collections.value()[0].generation, 0u);
  EXPECT_EQ(collections.value()[0].size, 0u);

  WireQuery q = MixedQueries(1)[0];
  auto before = client.Query("vecs", q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().status_code,
            static_cast<std::uint32_t>(StatusCode::kNotFound));

  snapshot::SnapshotStore store(store_dir);
  ASSERT_TRUE(store.SaveFlat(BuildLeaderIndex()).ok());
  ASSERT_TRUE(server->Refresh("vecs").ok());

  auto after = client.Query("vecs", q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().status_code, 0u);
  auto listed = client.ListCollections();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value()[0].generation, 1u);
  EXPECT_EQ(listed.value()[0].size, LeaderData().size());
  server->Stop();
}

}  // namespace
}  // namespace mvp::net

#endif  // MVPTREE_FAULT_FS_POSIX
