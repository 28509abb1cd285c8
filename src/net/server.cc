#include "net/server.h"

#include "fault/fault_net.h"  // platform gate: defines MVPTREE_FAULT_FS_POSIX

#if defined(MVPTREE_FAULT_FS_POSIX)

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "common/codec.h"
#include "common/thread_annotations.h"
#include "dynamic/dynamic_overlay.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/replication.h"
#include "net/wire.h"
#include "serve/executor.h"
#include "serve/serve_stats.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"
#include "snapshot/async_loader.h"
#include "snapshot/mmap_file.h"
#include "snapshot/snapshot_store.h"

namespace mvp::net {
namespace {

using Vector = std::vector<double>;

/// Server-side ceiling on one FetchChunk slice. Keeps a replication pull's
/// frames well under kMaxFramePayload and bounds per-request memory.
constexpr std::uint64_t kMaxFetchChunkBytes = std::uint64_t{8} << 20;

/// Ceiling on one FetchWalSince segment's record payload bytes. A follower
/// far behind re-fetches from its advanced cursor; the first record always
/// ships so progress is guaranteed whatever the record size.
constexpr std::uint64_t kMaxWalShipBytes = std::uint64_t{4} << 20;

serve::BatchQuery<Vector> ToBatchQuery(const WireQuery& wire,
                                       std::uint64_t max_timeout_ns) {
  serve::BatchQuery<Vector> query;
  query.kind = wire.kind == 1 ? serve::BatchQuery<Vector>::Kind::kKnn
                              : serve::BatchQuery<Vector>::Kind::kRange;
  query.object = wire.point;
  query.radius = wire.radius;
  query.k = static_cast<std::size_t>(wire.k);
  const std::uint64_t timeout_ns = std::min(wire.timeout_ns, max_timeout_ns);
  query.timeout = timeout_ns == kNoTimeout
                      ? std::chrono::nanoseconds::max()
                      : std::chrono::nanoseconds(timeout_ns);
  query.max_distance_computations = wire.max_distance_computations;
  return query;
}

WireOutcome ToWireOutcome(const serve::QueryOutcome& outcome) {
  WireOutcome wire;
  wire.status_code = static_cast<std::uint32_t>(outcome.status.code());
  wire.status_message = outcome.status.message();
  wire.partial = outcome.partial;
  wire.latency_ns = static_cast<std::uint64_t>(outcome.latency.count());
  wire.distance_computations = outcome.distance_computations;
  wire.search = outcome.search;
  wire.neighbors = outcome.neighbors;
  return wire;
}

/// One tenant: the metric-erased facade the dispatch loop talks to.
/// Stats and admission state live here so both collection flavours share
/// the accounting; the derived classes own the index and the load path.
class Collection {
 public:
  explicit Collection(CollectionOptions options)
      : options_(std::move(options)), admission_(options_.admission) {}
  virtual ~Collection() = default;

  /// Initial load. A static collection over an empty store opens
  /// successfully and serves NotFound until a generation arrives.
  virtual Status Open(serve::ThreadPool* pool) = 0;
  /// Hot-swap to the store's committed generation (static only).
  virtual Status Refresh(serve::ThreadPool* pool) = 0;
  /// Runs `queries` through serve::RunBatch with this tenant's admission
  /// controller and deadline cap; outcomes in input order.
  virtual std::vector<WireOutcome> Run(const std::vector<WireQuery>& queries,
                                       serve::ThreadPool* pool) = 0;
  virtual WireCollectionInfo Info() const = 0;

  // Dynamic-only surface (mutations, WAL shipping, follower apply). The
  // defaults reject so the dispatch layer never needs a dynamic_cast.
  virtual Result<std::uint64_t> Insert(const Vector&) { return NotDynamic(); }
  virtual Status Erase(std::uint64_t) { return NotDynamic(); }
  virtual Result<std::uint64_t> Checkpoint() { return NotDynamic(); }
  virtual Result<std::uint64_t> Compact(serve::ThreadPool*) {
    return NotDynamic();
  }
  /// The WAL tail past `since` plus the shipping watermarks (leader side).
  virtual Result<WireWalSegment> WalSince(std::uint64_t) {
    return NotDynamic();
  }
  /// Applies a shipped segment's records in order (follower side).
  virtual Status ApplySegment(const WireWalSegment&) { return NotDynamic(); }
  /// Reopens the overlay from its directory and hot-swaps it into serving —
  /// the follower's publish point after a generation pull.
  virtual Status Reopen(serve::ThreadPool*) { return NotDynamic(); }
  /// Last WAL sequence applied locally (the follower's shipping cursor).
  virtual std::uint64_t AppliedSeq() const { return 0; }

  const CollectionOptions& options() const { return options_; }
  serve::ServeStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }

  /// Leader-applied minus locally-applied sequence at the last Follow poll
  /// (Readiness reports it so a failover client can prefer fresher
  /// followers). Zero on a leader or a caught-up follower.
  std::uint64_t GenerationLag() const {
    return lag_.load(std::memory_order_relaxed);
  }
  void SetGenerationLag(std::uint64_t lag) {
    lag_.store(lag, std::memory_order_relaxed);
  }

 protected:
  std::vector<serve::BatchQuery<Vector>> ToBatch(
      const std::vector<WireQuery>& queries) const {
    std::vector<serve::BatchQuery<Vector>> batch;
    batch.reserve(queries.size());
    for (const WireQuery& q : queries) {
      batch.push_back(ToBatchQuery(q, options_.max_timeout_ns));
    }
    return batch;
  }

  Status NotDynamic() const {
    return Status::InvalidArgument("collection '" + options_.name +
                                   "' is not dynamic");
  }

  CollectionOptions options_;
  serve::ServeStats stats_;
  serve::AdmissionController admission_;
  std::atomic<std::uint64_t> lag_{0};
};

/// A static collection: a snapshot generation behind a GenerationCell.
/// Refresh loads the committed generation off to the side and publishes it
/// with one atomic swap; queries in flight finish on the old one.
template <typename Metric>
class StaticCollection final : public Collection {
 public:
  explicit StaticCollection(CollectionOptions options)
      : Collection(std::move(options)), store_(options_.dir) {}

  Status Open(serve::ThreadPool* pool) override {
    const Status status = Refresh(pool);
    // An empty store is the follower-before-first-replication state, not a
    // startup failure; anything else (corruption, wrong kind) is.
    if (status.code() == StatusCode::kNotFound) return Status::OK();
    return status;
  }

  Status Refresh(serve::ThreadPool* pool) override {
    auto loaded = store_.template LoadSharded<Vector, Metric>(
        Metric{}, VectorCodec{}, pool);
    if (!loaded.ok()) return loaded.status();
    auto generation =
        std::make_shared<Generation>(std::move(loaded.value().index));
    generation->stable_ids = std::move(loaded.value().stable_ids);
    generation->generation = loaded.value().generation;
    cell_.Publish(std::move(generation));
    return Status::OK();
  }

  std::vector<WireOutcome> Run(const std::vector<WireQuery>& queries,
                               serve::ThreadPool* pool) override {
    std::shared_ptr<const Generation> generation = cell_.Get();
    if (generation == nullptr) {
      WireOutcome missing;
      const Status status = Status::NotFound(
          "collection '" + options_.name + "' has no generation loaded");
      missing.status_code = static_cast<std::uint32_t>(status.code());
      missing.status_message = status.message();
      return std::vector<WireOutcome>(queries.size(), missing);
    }
    serve::ExecutorOptions executor;
    executor.admission = &admission_;
    auto outcomes = serve::RunBatch(generation->index, ToBatch(queries), pool,
                                    &stats_, executor);
    std::vector<WireOutcome> wire;
    wire.reserve(outcomes.size());
    for (const serve::QueryOutcome& outcome : outcomes) {
      wire.push_back(ToWireOutcome(outcome));
      if (!generation->stable_ids.empty()) {
        // A compacted generation's dense ids are internal; clients address
        // objects by stable id, like the overlay that wrote it would.
        for (Neighbor& n : wire.back().neighbors) {
          n.id = static_cast<std::size_t>(generation->stable_ids[n.id]);
        }
      }
    }
    return wire;
  }

  WireCollectionInfo Info() const override {
    WireCollectionInfo info;
    info.name = options_.name;
    info.metric = options_.metric;
    info.dynamic = false;
    if (auto generation = cell_.Get(); generation != nullptr) {
      info.generation = generation->generation;
      info.size = generation->index.size();
    }
    return info;
  }

 private:
  struct Generation {
    explicit Generation(serve::ShardedMvpIndex<Vector, Metric> loaded)
        : index(std::move(loaded)) {}
    serve::ShardedMvpIndex<Vector, Metric> index;
    std::vector<std::uint64_t> stable_ids;  ///< empty = identity
    std::uint64_t generation = 0;
  };

  snapshot::SnapshotStore store_;
  snapshot::GenerationCell<Generation> cell_;
};

/// A dynamic collection: a live DynamicOverlay (WAL + memtable over an
/// optional base generation). Always serving its current state — Refresh
/// is a no-op because there is nothing stale to swap. The overlay sits
/// behind a shared_ptr so a follower's generation-pull fallback can reopen
/// and hot-swap it while in-flight queries finish on the old instance.
template <typename Metric>
class DynamicCollection final : public Collection {
 public:
  using Overlay = dynamic::DynamicOverlay<Vector, Metric, VectorCodec>;

  explicit DynamicCollection(CollectionOptions options)
      : Collection(std::move(options)) {}

  Status Open(serve::ThreadPool* pool) override { return Reopen(pool); }

  Status Refresh(serve::ThreadPool*) override { return Status::OK(); }

  Status Reopen(serve::ThreadPool* pool) override {
    auto opened =
        Overlay::Open(options_.dir, Metric{}, VectorCodec{}, {}, pool);
    if (!opened.ok()) return opened.status();
    MutexLock lock(&overlay_mu_);
    overlay_ = std::shared_ptr<Overlay>(std::move(opened.value()));
    return Status::OK();
  }

  std::vector<WireOutcome> Run(const std::vector<WireQuery>& queries,
                               serve::ThreadPool* pool) override {
    auto live = overlay();
    serve::ExecutorOptions executor;
    executor.admission = &admission_;
    auto outcomes =
        serve::RunBatch(*live, ToBatch(queries), pool, &stats_, executor);
    std::vector<WireOutcome> wire;
    wire.reserve(outcomes.size());
    for (const serve::QueryOutcome& outcome : outcomes) {
      wire.push_back(ToWireOutcome(outcome));
    }
    return wire;
  }

  WireCollectionInfo Info() const override {
    auto live = overlay();
    WireCollectionInfo info;
    info.name = options_.name;
    info.metric = options_.metric;
    info.dynamic = true;
    info.generation = live->generation();
    info.size = live->size();
    return info;
  }

  Result<std::uint64_t> Insert(const Vector& point) override {
    auto id = overlay()->Insert(point);
    if (!id.ok()) return id.status();
    return static_cast<std::uint64_t>(id.value());
  }

  Status Erase(std::uint64_t stable_id) override {
    return overlay()->Erase(static_cast<std::size_t>(stable_id));
  }

  Result<std::uint64_t> Checkpoint() override {
    return overlay()->Checkpoint();
  }

  Result<std::uint64_t> Compact(serve::ThreadPool* pool) override {
    return overlay()->Compact(pool);
  }

  /// Builds the shipping segment for a follower at cursor `since`. Only
  /// SYNCED records are in the file (WalWriter buffers until Sync), so
  /// everything shipped is a leader-acknowledged mutation; `applied_seq`
  /// is the durable high-water mark the follower converges to. A torn tail
  /// from a concurrent group commit simply ends this segment early — the
  /// next poll picks the records up once they are durable.
  Result<WireWalSegment> WalSince(std::uint64_t since) override {
    auto live = overlay();
    WireWalSegment segment;
    segment.leader_epoch = snapshot::SnapshotStore(options_.dir).ReadEpoch();
    segment.floor_seq = live->checkpoint_seq();
    segment.generation = live->generation();
    segment.applied_seq = segment.floor_seq;
    if (since < segment.floor_seq) {
      // The records below the floor were folded into generations and
      // truncated away; empty records + a floor above the cursor tells the
      // follower to pull the generation lineage instead.
      return segment;
    }
    auto log = wal::ReadWal(live->wal_path());
    if (!log.ok()) return log.status();
    std::uint64_t bytes = 0;
    for (wal::WalRecord& record : log.value().records) {
      segment.applied_seq = std::max(segment.applied_seq, record.seq);
      if (record.seq <= since) continue;
      bytes += wal::kFrameFixedBytes + record.payload.size();
      if (!segment.records.empty() && bytes > kMaxWalShipBytes) continue;
      segment.records.push_back(std::move(record));
    }
    return segment;
  }

  Status ApplySegment(const WireWalSegment& segment) override {
    return overlay()->ApplyReplicated(segment.records);
  }

  std::uint64_t AppliedSeq() const override {
    return overlay()->applied_seq();
  }

 private:
  std::shared_ptr<Overlay> overlay() const {
    MutexLock lock(&overlay_mu_);
    return overlay_;
  }

  mutable Mutex overlay_mu_;
  std::shared_ptr<Overlay> overlay_ MVP_GUARDED_BY(overlay_mu_);
};

Result<std::unique_ptr<Collection>> MakeCollection(
    const CollectionOptions& options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("collection name must be non-empty");
  }
  auto make = [&](auto metric) -> std::unique_ptr<Collection> {
    using Metric = decltype(metric);
    if (options.dynamic) {
      return std::make_unique<DynamicCollection<Metric>>(options);
    }
    return std::make_unique<StaticCollection<Metric>>(options);
  };
  if (options.metric == "l1") return make(metric::L1{});
  if (options.metric == "l2") return make(metric::L2{});
  if (options.metric == "linf") return make(metric::LInf{});
  return Status::InvalidArgument("unknown metric '" + options.metric +
                                 "' (expected l1, l2, or linf)");
}

}  // namespace

class Server::Impl {
 public:
  explicit Impl(ServerOptions options)
      : options_(std::move(options)),
        pool_(options_.threads != 0
                  ? options_.threads
                  : std::max<std::size_t>(
                        std::thread::hardware_concurrency(), 2)) {}

  ~Impl() { Stop(); }

  Status Start() {
    for (const CollectionOptions& spec : options_.collections) {
      if (FindCollection(spec.name) != nullptr) {
        return Status::InvalidArgument("duplicate collection '" + spec.name +
                                       "'");
      }
      auto collection = MakeCollection(spec);
      if (!collection.ok()) return collection.status();
      MVP_RETURN_NOT_OK(collection.value()->Open(&pool_));
      collections_.push_back(std::move(collection.value()));
    }

    listen_fd_ = fault::net::Socket(AF_INET, SOCK_STREAM, 0, "server:listen");
    if (listen_fd_ < 0) {
      return Status::IOError(std::string("socket failed: ") +
                             std::strerror(errno));
    }
    const int enable = 1;
    // Best-effort: rebinding a recently-closed port is a convenience, not
    // a correctness requirement.
    (void)fault::net::SetSockOpt(listen_fd_, SOL_SOCKET, SO_REUSEADDR,
                                 &enable, sizeof(enable));
    struct ::sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (fault::net::Bind(listen_fd_,
                         reinterpret_cast<const struct ::sockaddr*>(&addr),
                         sizeof(addr), "server:listen") != 0) {
      return Status::IOError(std::string("bind failed: ") +
                             std::strerror(errno));
    }
    if (fault::net::Listen(listen_fd_, 64, "server:listen") != 0) {
      return Status::IOError(std::string("listen failed: ") +
                             std::strerror(errno));
    }
    struct ::sockaddr_in bound {};
    ::socklen_t bound_len = sizeof(bound);
    if (fault::net::GetSockName(
            listen_fd_, reinterpret_cast<struct ::sockaddr*>(&bound),
            &bound_len) != 0) {
      return Status::IOError(std::string("getsockname failed: ") +
                             std::strerror(errno));
    }
    port_ = ntohs(bound.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  std::uint16_t port() const { return port_; }

  Status Refresh(const std::string& name) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return collection->Refresh(&pool_);
  }

  void Stop() {
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
      stopping_ = true;
      for (const int fd : conn_fds_) {
        // Wakes the connection thread out of its blocking recv; the thread
        // owns the close.
        (void)fault::net::ShutdownSocket(fd, SHUT_RDWR, "server:stop");
      }
    }
    if (listen_fd_ >= 0) {
      // Wakes the accept loop (Linux returns EINVAL from the pending
      // accept once the listener is shut down).
      (void)fault::net::ShutdownSocket(listen_fd_, SHUT_RDWR, "server:stop");
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> threads;
    {
      MutexLock lock(&mu_);
      threads.swap(conn_threads_);
    }
    for (std::thread& thread : threads) {
      if (thread.joinable()) thread.join();
    }
    if (listen_fd_ >= 0) {
      // Shutdown path; every connection is already joined above.
      (void)fault::net::CloseSocket(listen_fd_, "server:stop");
      listen_fd_ = -1;
    }
  }

 private:
  Collection* FindCollection(const std::string& name) {
    for (const auto& collection : collections_) {
      if (collection->options().name == name) return collection.get();
    }
    return nullptr;
  }

  void AcceptLoop() {
    while (true) {
      // EINTR is retried inside the fault::net seam; negative = shutdown
      // (or a fatal listener error) — Stop() distinguishes nothing further.
      const int fd = fault::net::Accept(listen_fd_, "server:accept");
      if (fd < 0) return;
      // Responses also go out header-then-payload; see the NODELAY note in
      // client.cc. Best-effort.
      const int one = 1;
      // Best-effort: without the option the connection is slow, not wrong.
      (void)fault::net::SetSockOpt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                                   sizeof(one));
      bool over_cap = false;
      {
        MutexLock lock(&mu_);
        if (stopping_) {
          // Racing Stop(); the peer sees a hangup either way.
          (void)fault::net::CloseSocket(fd, "server:accept");
          return;
        }
        over_cap = conn_fds_.size() >= options_.max_connections;
        if (!over_cap) {
          conn_fds_.push_back(fd);
          conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
        }
      }
      if (over_cap) {
        // One clean, parseable refusal, then hang up: the peer's first
        // RoundTrip decodes ResourceExhausted instead of a mystery EOF.
        // Sent outside mu_ — a non-reading peer stalls only this loop
        // iteration, never the lock. The frame fits the socket buffer, so
        // in practice the send does not block at all.
        BinaryWriter out;
        EncodeResponseStatus(
            Status::ResourceExhausted(
                "connection limit reached (" +
                std::to_string(options_.max_connections) + ")"),
            &out);
        // Best-effort courtesy frame; the refusal stands either way.
        (void)SendFrame(fd, out.buffer(), "server:accept");
        // The fd is dead to us regardless of how close goes.
        (void)fault::net::CloseSocket(fd, "server:accept");
      }
    }
  }

  void ServeConnection(int fd) {
    while (true) {
      auto frame = RecvFrame(fd, "server:conn");
      if (!frame.ok()) {
        // NotFound is the client hanging up between requests — silence.
        // A torn or corrupt frame means the stream may have lost sync, so
        // report once and hang up rather than guess at resynchronization.
        if (frame.status().code() == StatusCode::kCorruption ||
            frame.status().code() == StatusCode::kInvalidArgument) {
          BinaryWriter out;
          EncodeResponseStatus(frame.status(), &out);
          // Courtesy error to a peer that broke framing; if the send also
          // fails the connection is closing anyway.
          (void)SendFrame(fd, out.buffer(), "server:conn");
        }
        break;
      }
      if (!HandleRequest(fd, frame.value())) break;
    }
    {
      MutexLock lock(&mu_);
      conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                      conn_fds_.end());
    }
    // End of the connection's life; nothing left to report a close error to.
    (void)fault::net::CloseSocket(fd, "server:conn");
  }

  /// Handles one request frame. Returns false when the connection should
  /// close (send failure); a request-level error is a response, not a
  /// disconnect.
  bool HandleRequest(int fd, const std::vector<std::uint8_t>& payload) {
    BinaryReader reader(payload.data(), payload.size());
    std::uint32_t op_raw = 0;
    Status parsed = reader.Read<std::uint32_t>(&op_raw);
    if (!parsed.ok()) return SendError(fd, parsed);
    switch (static_cast<Op>(op_raw)) {
      case Op::kPing: {
        BinaryWriter out;
        EncodeResponseStatus(Status::OK(), &out);
        out.WriteString("mvpt-server");
        out.Write<std::uint32_t>(1);  // protocol version
        return SendFrame(fd, out.buffer(), "server:conn").ok();
      }
      case Op::kListCollections: {
        BinaryWriter out;
        EncodeResponseStatus(Status::OK(), &out);
        out.Write<std::uint64_t>(collections_.size());
        for (const auto& collection : collections_) {
          EncodeCollectionInfo(collection->Info(), &out);
        }
        return SendFrame(fd, out.buffer(), "server:conn").ok();
      }
      case Op::kQuery: {
        if (!EnterQuery()) return SendDraining(fd);
        const bool alive = HandleQuery(fd, &reader);
        LeaveQuery();
        return alive;
      }
      case Op::kBatchQuery: {
        if (!EnterQuery()) return SendDraining(fd);
        const bool alive = HandleBatchQuery(fd, &reader);
        LeaveQuery();
        return alive;
      }
      case Op::kStats: {
        std::string name;
        Status status = reader.ReadString(&name);
        if (!status.ok()) return SendError(fd, status);
        Collection* collection = FindCollection(name);
        if (collection == nullptr) {
          return SendError(fd, Status::NotFound("no collection '" + name +
                                                "'"));
        }
        BinaryWriter out;
        EncodeResponseStatus(Status::OK(), &out);
        EncodeStats(collection->StatsSnapshot(), &out);
        return SendFrame(fd, out.buffer(), "server:conn").ok();
      }
      case Op::kCurrentGeneration:
        return HandleCurrentGeneration(fd, &reader);
      case Op::kFetchManifest:
        return HandleFetchManifest(fd, &reader);
      case Op::kFetchChunk:
        return HandleFetchChunk(fd, &reader);
      case Op::kFetchWalSince:
        return HandleFetchWalSince(fd, &reader);
      case Op::kReadiness:
        return HandleReadiness(fd, &reader);
    }
    return SendError(
        fd, Status::InvalidArgument("unknown rpc op " +
                                    std::to_string(op_raw)));
  }

  bool SendError(int fd, const Status& status) {
    BinaryWriter out;
    EncodeResponseStatus(status, &out);
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  /// Registers an in-flight query unless the server is draining. Drain
  /// waits for the active count to hit zero, so a query that got in always
  /// finishes before the sockets close.
  bool EnterQuery() {
    MutexLock lock(&mu_);
    if (draining_) return false;
    ++active_requests_;
    return true;
  }

  void LeaveQuery() {
    MutexLock lock(&mu_);
    --active_requests_;
  }

  bool SendDraining(int fd) {
    // A clean per-request refusal: the connection stays usable (the peer
    // may still want Readiness or replication fetches), only queries stop.
    return SendError(fd,
                     Status::ResourceExhausted("server is draining"));
  }

  bool HandleQuery(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    WireQuery query;
    status = DecodeQuery(reader, &query);
    if (!status.ok()) return SendError(fd, status);
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    auto outcomes = collection->Run({query}, &pool_);
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    EncodeOutcome(outcomes[0], &out);
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  /// Streaming batch: one header frame `[status][u64 count]`, then one
  /// outcome frame per query, in input order. The whole batch runs through
  /// one RunBatch call, so batch-relative deadlines and pool parallelism
  /// behave exactly as in-process.
  bool HandleBatchQuery(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    // The client controls this count, so validate it against what the frame
    // could actually carry before reserving: an encoded WireQuery is at
    // least 41 bytes (kind + k + radius + deadline + budget + vector length).
    std::uint64_t count = 0;
    status = reader->ReadLengthPrefix(1 + 8 + 8 + 8 + 8 + 8, &count);
    if (!status.ok()) return SendError(fd, status);
    std::vector<WireQuery> queries;
    queries.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      WireQuery query;
      status = DecodeQuery(reader, &query);
      if (!status.ok()) return SendError(fd, status);
      queries.push_back(std::move(query));
    }
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    auto outcomes = collection->Run(queries, &pool_);
    BinaryWriter header;
    EncodeResponseStatus(Status::OK(), &header);
    header.Write<std::uint64_t>(outcomes.size());
    if (!SendFrame(fd, header.buffer(), "server:conn").ok()) return false;
    for (const WireOutcome& outcome : outcomes) {
      BinaryWriter out;
      EncodeOutcome(outcome, &out);
      if (!SendFrame(fd, out.buffer(), "server:conn").ok()) return false;
    }
    return true;
  }

  bool HandleCurrentGeneration(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    snapshot::SnapshotStore store(collection->options().dir);
    auto generation = store.CurrentGeneration();
    if (!generation.ok()) return SendError(fd, generation.status());
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    out.Write<std::uint64_t>(generation.value());
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  bool HandleFetchManifest(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    std::uint64_t generation = 0;
    status = reader->Read<std::uint64_t>(&generation);
    if (!status.ok()) return SendError(fd, status);
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    snapshot::SnapshotStore store(collection->options().dir);
    auto bytes = ReadFile(store.GenerationDir(generation) + "/" +
                          snapshot::SnapshotStore::kManifestFile);
    if (!bytes.ok()) return SendError(fd, bytes.status());
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    out.WriteBytes(bytes.value().data(), bytes.value().size());
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  /// Serves `[offset, offset+length)` of a generation's container file.
  /// The slice is read off a fresh mapping per request — replication pulls
  /// are rare and sequential, so simplicity beats caching here.
  bool HandleFetchChunk(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    std::uint64_t generation = 0, offset = 0, length = 0;
    status = reader->Read<std::uint64_t>(&generation);
    if (status.ok()) status = reader->Read<std::uint64_t>(&offset);
    if (status.ok()) status = reader->Read<std::uint64_t>(&length);
    if (!status.ok()) return SendError(fd, status);
    if (length > kMaxFetchChunkBytes) {
      return SendError(fd, Status::InvalidArgument(
                               "chunk length exceeds the fetch cap"));
    }
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    snapshot::SnapshotStore store(collection->options().dir);
    auto mapping = snapshot::MmapFile::Open(
        store.GenerationDir(generation) + "/" +
        snapshot::SnapshotStore::kContainerFile);
    if (!mapping.ok()) return SendError(fd, mapping.status());
    if (offset > mapping.value().size() ||
        length > mapping.value().size() - offset) {
      return SendError(fd, Status::InvalidArgument(
                               "chunk range exceeds the container"));
    }
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    out.WriteBytes(mapping.value().data() + offset,
                   static_cast<std::size_t>(length));
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  /// WAL shipping (docs/network_serving.md): the synced WAL tail past the
  /// follower's cursor, stamped with this store's leader epoch.
  bool HandleFetchWalSince(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    std::uint64_t since = 0;
    status = reader->Read<std::uint64_t>(&since);
    if (!status.ok()) return SendError(fd, status);
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return SendError(fd, Status::NotFound("no collection '" + name + "'"));
    }
    auto segment = collection->WalSince(since);
    if (!segment.ok()) return SendError(fd, segment.status());
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    EncodeWalSegment(segment.value(), &out);
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

  /// Health beyond "the TCP port answers": draining state, leader epoch,
  /// and replication lag — what a failover client ranks endpoints by. An
  /// empty collection name reports server-wide (max across collections).
  bool HandleReadiness(int fd, BinaryReader* reader) {
    std::string name;
    Status status = reader->ReadString(&name);
    if (!status.ok()) return SendError(fd, status);
    WireReadiness readiness;
    {
      MutexLock lock(&mu_);
      readiness.state = static_cast<std::uint8_t>(
          draining_ ? ReadinessState::kDraining : ReadinessState::kServing);
    }
    if (!name.empty()) {
      Collection* collection = FindCollection(name);
      if (collection == nullptr) {
        return SendError(fd,
                         Status::NotFound("no collection '" + name + "'"));
      }
      readiness.leader_epoch =
          snapshot::SnapshotStore(collection->options().dir).ReadEpoch();
      readiness.generation_lag = collection->GenerationLag();
    } else {
      for (const auto& collection : collections_) {
        readiness.leader_epoch = std::max(
            readiness.leader_epoch,
            snapshot::SnapshotStore(collection->options().dir).ReadEpoch());
        readiness.generation_lag = std::max(readiness.generation_lag,
                                            collection->GenerationLag());
      }
    }
    BinaryWriter out;
    EncodeResponseStatus(Status::OK(), &out);
    EncodeReadiness(readiness, &out);
    return SendFrame(fd, out.buffer(), "server:conn").ok();
  }

 public:
  Result<std::uint64_t> Insert(const std::string& name,
                               const std::vector<double>& point) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return collection->Insert(point);
  }

  Status Erase(const std::string& name, std::uint64_t stable_id) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return collection->Erase(stable_id);
  }

  Result<std::uint64_t> Checkpoint(const std::string& name) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return collection->Checkpoint();
  }

  Result<std::uint64_t> Compact(const std::string& name) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return collection->Compact(&pool_);
  }

  Result<std::uint64_t> Promote(const std::string& name) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    return snapshot::SnapshotStore(collection->options().dir).BumpEpoch();
  }

  Status Follow(const std::string& name, Client& leader) {
    Collection* collection = FindCollection(name);
    if (collection == nullptr) {
      return Status::NotFound("no collection '" + name + "'");
    }
    if (!collection->options().dynamic) {
      auto pulled =
          PullGeneration(leader, name, collection->options().dir, {});
      if (!pulled.ok()) return pulled.status();
      return collection->Refresh(&pool_);
    }
    snapshot::SnapshotStore store(collection->options().dir);
    // Bounded only as a churn backstop: each iteration either applies
    // records (cursor advances) or pulls a newer generation lineage, so
    // hitting the cap means the leader is checkpointing faster than we can
    // pull — retry later, don't spin.
    for (int round = 0; round < 1000; ++round) {
      const std::uint64_t applied = collection->AppliedSeq();
      auto segment = leader.FetchWalSince(name, applied);
      if (!segment.ok()) return segment.status();
      const WireWalSegment& seg = segment.value();
      const std::uint64_t local_epoch = store.ReadEpoch();
      if (seg.leader_epoch < local_epoch) {
        // Fencing: this peer was deposed — a newer leader's epoch is
        // already persisted here. Nothing it ships may be applied.
        return Status::InvalidArgument(
            "stale leader epoch " + std::to_string(seg.leader_epoch) +
            " (locally accepted epoch " + std::to_string(local_epoch) + ")");
      }
      if (seg.leader_epoch > local_epoch) {
        MVP_RETURN_NOT_OK(store.WriteEpoch(seg.leader_epoch));
      }
      collection->SetGenerationLag(
          seg.applied_seq > applied ? seg.applied_seq - applied : 0);
      if (seg.generation != collection->Info().generation) {
        // The leader checkpointed or compacted: its base generation moved.
        // Tailing the WAL alone would leave everything in this follower's
        // memtable — same answers, but a structurally different index than
        // the leader serves (divergent SearchStats). Pull the lineage and
        // reopen so the follower mirrors the leader's base + memtable
        // split, then resume tailing from the reopened watermark.
        auto pulled =
            PullGeneration(leader, name, collection->options().dir, {});
        if (!pulled.ok()) return pulled.status();
        MVP_RETURN_NOT_OK(collection->Reopen(&pool_));
        continue;
      }
      if (seg.records.empty()) {
        if (applied >= seg.applied_seq) {
          collection->SetGenerationLag(0);
          return Status::OK();  // caught up to the leader's durable state
        }
        // Cursor below the leader's WAL floor: the records were folded
        // into generations and truncated. Pull the lineage, hot-swap the
        // overlay onto it, and resume tailing from its watermark.
        auto pulled =
            PullGeneration(leader, name, collection->options().dir, {});
        if (!pulled.ok()) return pulled.status();
        MVP_RETURN_NOT_OK(collection->Reopen(&pool_));
        continue;
      }
      MVP_RETURN_NOT_OK(collection->ApplySegment(seg));
      if (collection->AppliedSeq() >= seg.applied_seq) {
        collection->SetGenerationLag(0);
        return Status::OK();
      }
    }
    return Status::IOError(
        "follower did not converge (leader checkpointing continuously?)");
  }

  bool draining() const {
    MutexLock lock(&mu_);
    return draining_;
  }

  void Drain(std::uint64_t deadline_ns) {
    {
      MutexLock lock(&mu_);
      if (stopping_ || draining_) return;
      draining_ = true;
    }
    if (listen_fd_ >= 0) {
      // Stop accepting; existing connections keep their sockets until the
      // in-flight work quiesces or the deadline passes.
      (void)fault::net::ShutdownSocket(listen_fd_, SHUT_RDWR,
                                       "server:drain");
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(deadline_ns);
    // Poll rather than wait: our CondVar deliberately has no timed wait,
    // and a 1ms poll is invisible next to a drain deadline.
    while (std::chrono::steady_clock::now() < deadline) {
      {
        MutexLock lock(&mu_);
        if (active_requests_ == 0) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Stop();
  }

 private:
  ServerOptions options_;
  serve::ThreadPool pool_;
  std::vector<std::unique_ptr<Collection>> collections_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable Mutex mu_;
  bool stopping_ MVP_GUARDED_BY(mu_) = false;
  bool draining_ MVP_GUARDED_BY(mu_) = false;
  std::size_t active_requests_ MVP_GUARDED_BY(mu_) = 0;
  std::vector<int> conn_fds_ MVP_GUARDED_BY(mu_);
  std::vector<std::thread> conn_threads_ MVP_GUARDED_BY(mu_);
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  auto impl = std::make_unique<Impl>(std::move(options));
  MVP_RETURN_NOT_OK(impl->Start());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

std::uint16_t Server::port() const { return impl_->port(); }

Status Server::Refresh(const std::string& collection) {
  return impl_->Refresh(collection);
}

Result<std::uint64_t> Server::Insert(const std::string& collection,
                                     const std::vector<double>& point) {
  return impl_->Insert(collection, point);
}

Status Server::Erase(const std::string& collection, std::uint64_t stable_id) {
  return impl_->Erase(collection, stable_id);
}

Result<std::uint64_t> Server::Checkpoint(const std::string& collection) {
  return impl_->Checkpoint(collection);
}

Result<std::uint64_t> Server::Compact(const std::string& collection) {
  return impl_->Compact(collection);
}

Result<std::uint64_t> Server::Promote(const std::string& collection) {
  return impl_->Promote(collection);
}

Status Server::Follow(const std::string& collection, Client& leader) {
  return impl_->Follow(collection, leader);
}

bool Server::draining() const { return impl_->draining(); }

void Server::Drain(std::uint64_t deadline_ns) { impl_->Drain(deadline_ns); }

void Server::Stop() { impl_->Stop(); }

}  // namespace mvp::net

#endif  // MVPTREE_FAULT_FS_POSIX
