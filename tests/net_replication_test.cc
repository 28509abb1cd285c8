// Replication acceptance tests: a follower that never built an index pulls
// a leader's committed generation chunk-by-chunk over the real wire and
// must end up serving BIT-IDENTICAL results and SearchStats. The crash
// drills then attack every syscall on the pull path — follower-side fs and
// client-side net, error and crash flavours, at varying depths — and after
// every single one the follower either still has no committed generation
// or a fully verified one. An unverified generation is never swapped in.
//
// Failpoint safety: crash-mode failpoints are matched to follower paths
// ("follower" in the fs path, "client:rpc" on the net seam) ONLY — a crash
// unwinding a server connection thread would std::terminate the process.

#include "fault/fault_fs.h"  // platform gate: defines MVPTREE_FAULT_FS_POSIX

#if defined(MVPTREE_FAULT_FS_POSIX)

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "fault/failpoint.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"
#include "snapshot/snapshot_store.h"

namespace mvp::net {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

/// Big enough that the container spans many 4 KiB replication chunks, so
/// resume and mid-transfer failures land in interesting places.
std::vector<Vector> LeaderData() { return dataset::UniformVectors(600, 8, 7); }

Index BuildLeaderIndex(std::uint32_t seed_tweak = 0) {
  Index::Options options;
  options.num_shards = 2;
  options.tree.order = 3;
  options.tree.leaf_capacity = 16;
  options.tree.num_path_distances = 2;
  options.tree.seed = 1234 + seed_tweak;
  auto built = Index::Build(LeaderData(), L2(), options);
  EXPECT_TRUE(built.ok());
  return std::move(built).ValueOrDie();
}

ReplicationOptions SmallChunks() {
  ReplicationOptions options;
  options.chunk_bytes = 4096;
  return options;
}

std::vector<std::uint8_t> MustRead(const std::string& path) {
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).ValueOrDie()
                    : std::vector<std::uint8_t>{};
}

void ExpectWireOutcomesEqual(const WireOutcome& follower,
                             const WireOutcome& leader, std::size_t i) {
  EXPECT_EQ(follower.status_code, leader.status_code) << "query " << i;
  EXPECT_EQ(follower.partial, leader.partial) << "query " << i;
  EXPECT_EQ(follower.distance_computations, leader.distance_computations)
      << "query " << i;
  EXPECT_EQ(follower.search.distance_computations,
            leader.search.distance_computations)
      << "query " << i;
  EXPECT_EQ(follower.search.nodes_visited, leader.search.nodes_visited)
      << "query " << i;
  EXPECT_EQ(follower.search.leaf_points_seen, leader.search.leaf_points_seen)
      << "query " << i;
  EXPECT_EQ(follower.search.leaf_points_filtered,
            leader.search.leaf_points_filtered)
      << "query " << i;
  ASSERT_EQ(follower.neighbors.size(), leader.neighbors.size())
      << "query " << i;
  for (std::size_t j = 0; j < follower.neighbors.size(); ++j) {
    EXPECT_EQ(follower.neighbors[j].id, leader.neighbors[j].id)
        << "query " << i << " neighbor " << j;
    EXPECT_EQ(follower.neighbors[j].distance, leader.neighbors[j].distance)
        << "query " << i << " neighbor " << j;
  }
}

class NetReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/net_repl_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    leader_dir_ = dir_ + "/leader";
  }
  void TearDown() override {
    fault::Failpoints::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  /// Commits one flat generation into the leader store and starts the
  /// leader server over it.
  void StartLeader() {
    snapshot::SnapshotStore store(leader_dir_);
    auto saved = store.SaveFlat(BuildLeaderIndex());
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    CollectionOptions collection;
    collection.name = "vecs";
    collection.dir = leader_dir_;
    ServerOptions options;
    options.collections.push_back(collection);
    auto server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    leader_ = std::move(server).ValueOrDie();
  }

  Client ConnectLeader() {
    auto client = Client::Connect("127.0.0.1", leader_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  /// The follower's committed state must be absent or fully loadable —
  /// never a committed-but-unverified generation. Call with failpoints
  /// DISARMED (this inspects disk, not the pull path).
  void CheckFollowerInvariant(const std::string& follower_dir) {
    snapshot::SnapshotStore store(follower_dir);
    auto current = store.CurrentGeneration();
    if (!current.ok()) {
      EXPECT_EQ(current.status().code(), StatusCode::kNotFound);
      return;  // nothing committed — the previous state still "serves"
    }
    auto opened = store.OpenFlat(L2());
    EXPECT_TRUE(opened.ok())
        << "committed generation " << current.value()
        << " is not servable: " << opened.status().ToString();
  }

  /// Byte-compares the follower's generation files against the leader's.
  void ExpectStoreBytesIdentical(const std::string& follower_dir,
                                 std::uint64_t gen) {
    snapshot::SnapshotStore leader_store(leader_dir_);
    snapshot::SnapshotStore follower_store(follower_dir);
    for (const char* file : {snapshot::SnapshotStore::kManifestFile,
                             snapshot::SnapshotStore::kContainerFile}) {
      const auto want =
          MustRead(leader_store.GenerationDir(gen) + "/" + file);
      const auto got =
          MustRead(follower_store.GenerationDir(gen) + "/" + file);
      EXPECT_EQ(want, got) << file << " drifted from the leader's bytes";
    }
  }

  std::string dir_;
  std::string leader_dir_;
  std::unique_ptr<Server> leader_;
};

// The headline guarantee: a follower server that never built anything
// replicates a generation over the wire, hot-swaps it in, and serves
// bit-identical results and SearchStats to the leader.
TEST_F(NetReplicationTest, FollowerServesBitIdenticalToLeader) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";

  // Follower server starts over an EMPTY store: queries answer NotFound.
  CollectionOptions collection;
  collection.name = "vecs";
  collection.dir = follower_dir;
  ServerOptions options;
  options.collections.push_back(collection);
  auto follower = Server::Start(std::move(options));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  auto follower_client =
      Client::Connect("127.0.0.1", follower.value()->port());
  ASSERT_TRUE(follower_client.ok());
  WireQuery probe;
  probe.kind = 1;
  probe.k = 3;
  probe.point = dataset::UniformQueryVectors(1, 8, 99)[0];
  auto before = follower_client.value().Query("vecs", probe);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().status_code,
            static_cast<std::uint32_t>(StatusCode::kNotFound));

  // Pull + hot-swap.
  Client leader_client = ConnectLeader();
  auto pulled = PullGeneration(leader_client, "vecs", follower_dir,
                               SmallChunks());
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
  EXPECT_EQ(pulled.value(), 1u);
  ASSERT_TRUE(follower.value()->Refresh("vecs").ok());
  ExpectStoreBytesIdentical(follower_dir, 1);

  // The same mixed workload against both servers, compared field by field.
  const auto points = dataset::UniformQueryVectors(24, 8, 31);
  std::vector<WireQuery> queries;
  for (std::size_t i = 0; i < points.size(); ++i) {
    WireQuery q;
    q.point = points[i];
    if (i % 2 == 0) {
      q.kind = 0;
      q.radius = 0.8 + 0.2 * static_cast<double>(i % 3);
    } else {
      q.kind = 1;
      q.k = 1 + i % 6;
    }
    queries.push_back(std::move(q));
  }
  auto from_leader = leader_client.BatchQuery("vecs", queries);
  ASSERT_TRUE(from_leader.ok()) << from_leader.status().ToString();
  auto from_follower = follower_client.value().BatchQuery("vecs", queries);
  ASSERT_TRUE(from_follower.ok()) << from_follower.status().ToString();
  ASSERT_EQ(from_leader.value().size(), from_follower.value().size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectWireOutcomesEqual(from_follower.value()[i], from_leader.value()[i],
                            i);
  }

  // Idempotent: a second pull is a no-op returning the same generation.
  auto again = PullGeneration(leader_client, "vecs", follower_dir,
                              SmallChunks());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 1u);
  follower.value()->Stop();
  leader_->Stop();
}

// A leader whose CURRENT names generation 0 (which no commit writes) has no
// generation to follow: the pull fails with Corruption before the follower
// writes anything, and the follower keeps serving what it had.
TEST_F(NetReplicationTest, LeaderNamingGenerationZeroIsRefused) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";
  Client leader_client = ConnectLeader();
  ASSERT_TRUE(
      PullGeneration(leader_client, "vecs", follower_dir, SmallChunks()).ok());
  const std::string follower_current =
      follower_dir + "/" + snapshot::SnapshotStore::kCurrentFile;
  const auto before = MustRead(follower_current);

  const std::string zero = "gen-000000\n";
  ASSERT_TRUE(WriteFile(leader_dir_ + "/" +
                            snapshot::SnapshotStore::kCurrentFile,
                        std::vector<std::uint8_t>(zero.begin(), zero.end()))
                  .ok());
  auto pulled =
      PullGeneration(leader_client, "vecs", follower_dir, SmallChunks());
  EXPECT_EQ(pulled.status().code(), StatusCode::kCorruption)
      << pulled.status().ToString();
  EXPECT_EQ(MustRead(follower_current), before);
  CheckFollowerInvariant(follower_dir);
  leader_->Stop();
}

/// A leader that speaks the wire protocol but answers CurrentGeneration
/// with 0, as a release without the server-side check could. It serves one
/// connection until the client hangs up, records the op of every request,
/// and refuses every op but CurrentGeneration.
class GenerationZeroLeader {
 public:
  GenerationZeroLeader() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // any free port
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t length = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &length),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~GenerationZeroLeader() {
    if (thread_.joinable()) {
      ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept nobody will meet
      thread_.join();
    }
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

  /// Waits for the client to hang up; returns the ops it sent, in order.
  std::vector<std::uint32_t> Finish() {
    thread_.join();
    return ops_;
  }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    for (;;) {
      auto request = RecvFrame(fd, "stub:leader");
      if (!request.ok()) break;  // the client hung up
      BinaryReader reader(request.value());
      std::uint32_t op = 0;
      if (!reader.Read<std::uint32_t>(&op).ok()) break;
      ops_.push_back(op);
      BinaryWriter out;
      if (op == static_cast<std::uint32_t>(Op::kCurrentGeneration)) {
        EncodeResponseStatus(Status::OK(), &out);
        out.Write<std::uint64_t>(0);
      } else {
        EncodeResponseStatus(Status::NotSupported("stub leader"), &out);
      }
      if (!SendFrame(fd, out.buffer(), "stub:leader").ok()) break;
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::vector<std::uint32_t> ops_;
};

// The follower's own guard: a leader that reports generation 0 over the
// wire (the fixed server refuses to, so a stub plays an older one) is
// refused after that one RPC, before the follower fetches or writes
// anything.
TEST_F(NetReplicationTest, RemoteGenerationZeroIsRefusedByTheFollower) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";
  {
    Client leader_client = ConnectLeader();
    ASSERT_TRUE(PullGeneration(leader_client, "vecs", follower_dir,
                               SmallChunks())
                    .ok());
  }
  leader_->Stop();
  const std::string follower_current =
      follower_dir + "/" + snapshot::SnapshotStore::kCurrentFile;
  const auto before = MustRead(follower_current);
  const auto listed_before = snapshot::SnapshotStore(follower_dir)
                                 .ListGenerations();

  GenerationZeroLeader stub;
  {
    auto client = Client::Connect("127.0.0.1", stub.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto pulled =
        PullGeneration(client.value(), "vecs", follower_dir, SmallChunks());
    EXPECT_EQ(pulled.status().code(), StatusCode::kCorruption)
        << pulled.status().ToString();
  }
  const std::vector<std::uint32_t> only_current_generation = {
      static_cast<std::uint32_t>(Op::kCurrentGeneration)};
  EXPECT_EQ(stub.Finish(), only_current_generation);
  EXPECT_EQ(MustRead(follower_current), before);
  EXPECT_EQ(snapshot::SnapshotStore(follower_dir).ListGenerations(),
            listed_before);
  CheckFollowerInvariant(follower_dir);
}

// A poisoned partial (garbage bytes already on disk where the resume
// appends) must be caught by the fingerprint check, discarded, and never
// committed; the retry then succeeds from scratch.
TEST_F(NetReplicationTest, PoisonedPartialIsDiscardedNotCommitted) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";
  snapshot::SnapshotStore store(follower_dir);
  const std::string gen_dir = store.GenerationDir(1);
  std::filesystem::create_directories(gen_dir);
  const std::string partial =
      gen_dir + "/" + std::string(snapshot::SnapshotStore::kContainerFile) +
      ".partial";
  ASSERT_TRUE(WriteFile(partial, std::vector<std::uint8_t>(1000, 0xAB)).ok());

  Client client = ConnectLeader();
  auto pulled = PullGeneration(client, "vecs", follower_dir, SmallChunks());
  ASSERT_FALSE(pulled.ok());
  EXPECT_EQ(pulled.status().code(), StatusCode::kCorruption);
  // Nothing committed, the poisoned partial is gone.
  EXPECT_EQ(store.CurrentGeneration().status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(partial));

  auto retry = PullGeneration(client, "vecs", follower_dir, SmallChunks());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value(), 1u);
  CheckFollowerInvariant(follower_dir);
  ExpectStoreBytesIdentical(follower_dir, 1);
  leader_->Stop();
}

// Resume proof: crash the follower mid-transfer, tamper one byte of the
// surviving partial, and re-pull. The re-pull APPENDS (that is the resume
// contract) — so the tampered prefix is never re-fetched and the
// fingerprint check must reject the assembled container. A third, clean
// pull then succeeds. This fails if resume silently restarted (the tamper
// would be overwritten and the corruption missed... but also nothing would
// resume), and fails harder if the tampered container were ever committed.
TEST_F(NetReplicationTest, CrashMidPullResumesByAppending) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";
  snapshot::SnapshotStore store(follower_dir);

  {
    // Crash at the 2nd container write: some chunks are on disk, most not.
    fault::FailpointConfig config;
    config.match = "shards.mvps.partial";
    config.crash = true;
    config.skip = 1;
    fault::ScopedFailpoint failpoint("fs/write", config);
    Client client = ConnectLeader();
    bool crashed = false;
    try {
      auto pulled =
          PullGeneration(client, "vecs", follower_dir, SmallChunks());
      ASSERT_FALSE(pulled.ok());  // reachable only if the crash was mapped
    } catch (const fault::CrashError&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }
  fault::Failpoints::Instance().DisarmAll();
  EXPECT_EQ(store.CurrentGeneration().status().code(), StatusCode::kNotFound);

  const std::string partial =
      store.GenerationDir(1) + "/" +
      std::string(snapshot::SnapshotStore::kContainerFile) + ".partial";
  auto survived = ReadFile(partial);
  ASSERT_TRUE(survived.ok()) << "crash should leave a resumable partial";
  const auto manifest = store.ReadManifest(1);
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(survived.value().size(), 0u);
  ASSERT_LT(survived.value().size(), manifest.value().payload_bytes);

  // Tamper the first byte of the surviving prefix.
  auto tampered = std::move(survived).ValueOrDie();
  tampered[0] ^= 0x01;
  ASSERT_TRUE(WriteFile(partial, tampered).ok());

  Client client = ConnectLeader();
  auto resumed = PullGeneration(client, "vecs", follower_dir, SmallChunks());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kCorruption)
      << "resume must append to the existing prefix, not restart";
  EXPECT_EQ(store.CurrentGeneration().status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(partial));

  auto clean = PullGeneration(client, "vecs", follower_dir, SmallChunks());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value(), 1u);
  CheckFollowerInvariant(follower_dir);
  ExpectStoreBytesIdentical(follower_dir, 1);
  leader_->Stop();
}

/// One injected failure on the pull path: a follower-side fs syscall or a
/// client-side net syscall, as a clean error or a simulated crash, after
/// `skip` unharmed firings.
struct DrillScenario {
  const char* failpoint;  // "fs/write", "net/recv", ...
  const char* match;      // "follower" (fs paths) or "client:rpc" (net)
  bool crash;
  std::uint64_t skip;
  std::int64_t short_write;

  std::string Name() const {
    std::string name = std::string(failpoint) + ":skip" +
                       std::to_string(skip) +
                       (short_write >= 0 ? ":short" : "") +
                       (crash ? ":crash" : ":error");
    return name;
  }
};

std::vector<DrillScenario> EnumerateDrills() {
  std::vector<DrillScenario> drills;
  // Follower-side filesystem: manifest write, partial open/append/fsync/
  // close, container rename, CURRENT commit — different skips land the
  // same failpoint on different files along the pull.
  for (const char* fs : {"fs/open", "fs/write", "fs/fsync", "fs/close",
                         "fs/rename"}) {
    for (const bool crash : {false, true}) {
      for (const std::uint64_t skip : {0u, 1u, 2u}) {
        drills.push_back({fs, "follower", crash, skip, -1});
      }
    }
  }
  // Torn writes: partial progress before the failure.
  drills.push_back({"fs/write", "follower", false, 1, 100});
  drills.push_back({"fs/write", "follower", true, 1, 100});
  // Client-side network: the connection dies mid-RPC at varying depths
  // (skip 0 hits the CurrentGeneration round trip, larger skips land
  // inside the chunk stream). NEVER matched to server-side details — a
  // crash there would unwind a connection thread and terminate.
  for (const char* net : {"net/recv", "net/send"}) {
    for (const bool crash : {false, true}) {
      for (const std::uint64_t skip : {0u, 4u}) {
        drills.push_back({net, "client:rpc", crash, skip, -1});
      }
    }
  }
  return drills;
}

// The sweep. After EVERY injected failure: nothing unverified is ever
// committed (CheckFollowerInvariant), and a clean retry converges to the
// leader's exact bytes.
TEST_F(NetReplicationTest, CrashDrillSweep) {
  StartLeader();
  const auto drills = EnumerateDrills();
  std::size_t index = 0;
  for (const DrillScenario& drill : drills) {
    SCOPED_TRACE(drill.Name());
    const std::string follower_dir =
        dir_ + "/follower_" + std::to_string(index++);

    {
      fault::FailpointConfig config;
      config.match = drill.match;
      config.crash = drill.crash;
      config.skip = drill.skip;
      config.short_write = drill.short_write;
      fault::ScopedFailpoint failpoint(drill.failpoint, config);
      Client client = ConnectLeader();
      try {
        // With a deep skip the failpoint may never fire and the pull just
        // succeeds — also a valid outcome; the invariant must hold either
        // way.
        (void)PullGeneration(client, "vecs", follower_dir, SmallChunks());
      } catch (const fault::CrashError&) {
        // The simulated follower kill. State on disk is whatever it is.
      }
    }
    fault::Failpoints::Instance().DisarmAll();
    CheckFollowerInvariant(follower_dir);

    // Recovery: a fresh process (fresh client, no failpoints) re-pulls.
    Client client = ConnectLeader();
    auto recovered =
        PullGeneration(client, "vecs", follower_dir, SmallChunks());
    ASSERT_TRUE(recovered.ok())
        << drill.Name() << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.value(), 1u);
    CheckFollowerInvariant(follower_dir);
    ExpectStoreBytesIdentical(follower_dir, 1);
  }
  leader_->Stop();
}

// Hot-swap safety after the pull: if the committed container is damaged
// on disk AFTER replication, Refresh fails its fingerprint check and the
// collection keeps serving the generation it already has.
TEST_F(NetReplicationTest, TamperedContainerFailsRefreshKeepsServing) {
  StartLeader();
  const std::string follower_dir = dir_ + "/follower";

  CollectionOptions collection;
  collection.name = "vecs";
  collection.dir = follower_dir;
  ServerOptions options;
  options.collections.push_back(collection);
  auto follower = Server::Start(std::move(options));
  ASSERT_TRUE(follower.ok());

  Client leader_client = ConnectLeader();
  ASSERT_TRUE(
      PullGeneration(leader_client, "vecs", follower_dir, SmallChunks())
          .ok());
  ASSERT_TRUE(follower.value()->Refresh("vecs").ok());

  // Leader commits generation 2; the follower pulls it, but the bytes are
  // damaged on the follower's disk before the hot swap.
  {
    snapshot::SnapshotStore leader_store(leader_dir_);
    auto saved = leader_store.SaveFlat(BuildLeaderIndex(/*seed_tweak=*/1));
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_EQ(saved.value(), 2u);
    ASSERT_TRUE(leader_->Refresh("vecs").ok());
  }
  ASSERT_TRUE(
      PullGeneration(leader_client, "vecs", follower_dir, SmallChunks())
          .ok());
  snapshot::SnapshotStore follower_store(follower_dir);
  const std::string container =
      follower_store.GenerationDir(2) + "/" +
      std::string(snapshot::SnapshotStore::kContainerFile);
  auto bytes = MustRead(container);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFile(container, bytes).ok());

  EXPECT_FALSE(follower.value()->Refresh("vecs").ok());

  // Still serving generation 1, and correctly.
  auto follower_client =
      Client::Connect("127.0.0.1", follower.value()->port());
  ASSERT_TRUE(follower_client.ok());
  auto collections = follower_client.value().ListCollections();
  ASSERT_TRUE(collections.ok());
  ASSERT_EQ(collections.value().size(), 1u);
  EXPECT_EQ(collections.value()[0].generation, 1u);
  WireQuery probe;
  probe.kind = 1;
  probe.k = 3;
  probe.point = dataset::UniformQueryVectors(1, 8, 99)[0];
  auto outcome = follower_client.value().Query("vecs", probe);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status_code, 0u);
  EXPECT_EQ(outcome.value().neighbors.size(), 3u);
  follower.value()->Stop();
  leader_->Stop();
}

}  // namespace
}  // namespace mvp::net

#endif  // MVPTREE_FAULT_FS_POSIX
