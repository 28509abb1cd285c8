#include "net/replication.h"

#include "fault/fault_net.h"  // platform gate: defines MVPTREE_FAULT_FS_POSIX

#if defined(MVPTREE_FAULT_FS_POSIX)

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "fault/fault_fs.h"
#include "snapshot/manifest.h"
#include "snapshot/mmap_file.h"
#include "snapshot/snapshot_store.h"

namespace mvp::net {
namespace {

/// Closes the wrapped fd on unwind — fault::fs calls can throw CrashError
/// mid-pull, and the drill reruns the pull in the same process.
class FdCloser {
 public:
  FdCloser(int fd, const char* path) : fd_(fd), path_(path) {}
  ~FdCloser() {
    if (fd_ >= 0) (void)fault::fs::Close(fd_, path_);
  }
  void Disarm() { fd_ = -1; }

 private:
  int fd_;
  const char* path_;
};

std::string BaseName(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// True when generation `gen` is fully materialized locally: its manifest
/// parses and its container matches the manifest fingerprint byte for
/// byte. The full checksum makes resume decisions trustworthy even after
/// a crash that tore the commit mid-way.
bool GenerationComplete(const snapshot::SnapshotStore& store,
                        std::uint64_t gen) {
  auto manifest = store.ReadManifest(gen);
  if (!manifest.ok()) return false;
  auto mapping = snapshot::MmapFile::Open(
      store.GenerationDir(gen) + "/" +
      snapshot::SnapshotStore::kContainerFile);
  if (!mapping.ok()) return false;
  if (mapping.value().size() != manifest.value().payload_bytes) return false;
  return snapshot::ContainerFingerprint(mapping.value().data(),
                                        mapping.value().size()) ==
         manifest.value().dataset_fingerprint;
}

/// Pulls one generation's raw bytes into the local store — everything
/// except the CURRENT commit, which the caller writes once the whole
/// lineage is present.
Status MaterializeGeneration(Client& client, const std::string& collection,
                             const snapshot::SnapshotStore& store,
                             std::uint64_t gen,
                             const std::vector<std::uint8_t>& manifest_bytes,
                             const snapshot::SnapshotManifest& manifest,
                             const ReplicationOptions& options) {
  const std::string gen_dir = store.GenerationDir(gen);
  std::error_code ec;
  std::filesystem::create_directories(gen_dir, ec);
  if (ec) {
    return Status::IOError("cannot create generation dir: " + gen_dir);
  }
  // Manifest first (atomically): a crash leaves a manifest beside a
  // partial container, which GenerationComplete correctly calls
  // incomplete. The manifest travels verbatim — same bytes, same CRC.
  MVP_RETURN_NOT_OK(WriteFileAtomic(
      gen_dir + "/" + snapshot::SnapshotStore::kManifestFile, manifest_bytes));

  const std::string partial =
      gen_dir + "/" + snapshot::SnapshotStore::kContainerFile + ".partial";
  const int fd =
      fault::fs::Open(partial.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open partial container: " + partial);
  }
  FdCloser closer(fd, partial.c_str());
  struct ::stat st {};
  if (fault::fs::Fstat(fd, &st, partial.c_str()) != 0) {
    return Status::IOError("fstat failed: " + partial);
  }
  std::uint64_t offset = static_cast<std::uint64_t>(st.st_size);
  if (offset > manifest.payload_bytes) {
    // A stale partial from some other lineage; restart the pull.
    if (fault::fs::Ftruncate(fd, 0, partial.c_str()) != 0) {
      return Status::IOError("ftruncate failed: " + partial);
    }
    offset = 0;
  }

  while (offset < manifest.payload_bytes) {
    const std::uint64_t want =
        std::min(options.chunk_bytes, manifest.payload_bytes - offset);
    auto bytes = client.FetchChunk(collection, gen, offset, want);
    if (!bytes.ok()) return bytes.status();
    if (bytes.value().size() != want) {
      return Status::IOError("leader returned a short chunk");
    }
    std::size_t written = 0;
    while (written < bytes.value().size()) {
      // EINTR is retried inside the fault::fs seam; negative = real error.
      const long n =
          fault::fs::Write(fd, bytes.value().data() + written,
                           bytes.value().size() - written, partial.c_str());
      if (n < 0) {
        return Status::IOError(std::string("write failed: ") +
                               std::strerror(errno));
      }
      written += static_cast<std::size_t>(n);
    }
    offset += want;
  }
  if (fault::fs::Fsync(fd, partial.c_str()) != 0) {
    return Status::IOError("fsync failed: " + partial);
  }
  closer.Disarm();
  if (fault::fs::Close(fd, partial.c_str()) != 0) {
    return Status::IOError("close failed: " + partial);
  }

  // Verify the WHOLE container against the manifest fingerprint before it
  // can be seen by any load path. A mismatch discards the transfer — a
  // corrupted or torn pull never becomes a servable file.
  auto pulled = ReadFile(partial);
  if (!pulled.ok()) return pulled.status();
  if (snapshot::ContainerFingerprint(pulled.value().data(),
                                     pulled.value().size()) !=
      manifest.dataset_fingerprint) {
    // Corruption is the status to surface; a stuck partial only re-fails
    // the next pull's fingerprint check.
    (void)fault::fs::Remove(partial.c_str());
    return Status::Corruption(
        "replicated container fails the manifest fingerprint; transfer "
        "discarded");
  }
  const std::string container =
      gen_dir + "/" + snapshot::SnapshotStore::kContainerFile;
  if (fault::fs::Rename(partial.c_str(), container.c_str()) != 0) {
    return Status::IOError("rename failed: " + container);
  }
  return Status::OK();
}

}  // namespace

Result<std::uint64_t> PullGeneration(Client& client,
                                     const std::string& collection,
                                     const std::string& dest_dir,
                                     const ReplicationOptions& options) {
  auto remote = client.CurrentGeneration(collection);
  if (!remote.ok()) return remote.status();
  // No commit writes generation 0; following a leader that reports it would
  // commit a CURRENT naming no generation.
  if (remote.value() == 0) {
    return Status::Corruption("leader reports generation 0");
  }
  snapshot::SnapshotStore store(dest_dir);

  auto local = store.CurrentGeneration();
  if (local.ok() && local.value() == remote.value() &&
      GenerationComplete(store, remote.value())) {
    return remote.value();  // already serving the leader's generation
  }

  // Epoch fence before any bytes land: a deposed leader still answers
  // RPCs, but its head manifest carries the epoch it was deposed at, which
  // is below what this store has already accepted from the new leader.
  auto head_bytes = client.FetchManifest(collection, remote.value());
  if (!head_bytes.ok()) return head_bytes.status();
  auto head = snapshot::SnapshotManifest::Parse(head_bytes.value());
  if (!head.ok()) return head.status();
  const std::uint64_t local_epoch = store.ReadEpoch();
  if (head.value().leader_epoch < local_epoch) {
    return Status::InvalidArgument(
        "stale leader epoch " + std::to_string(head.value().leader_epoch) +
        " (locally accepted epoch " + std::to_string(local_epoch) + ")");
  }
  if (head.value().leader_epoch > local_epoch) {
    MVP_RETURN_NOT_OK(store.WriteEpoch(head.value().leader_epoch));
  }

  // Walk the lineage leader-side, newest first, until a generation we
  // already hold: a delta generation is only loadable with its base.
  struct PendingGeneration {
    std::uint64_t gen;
    std::vector<std::uint8_t> manifest_bytes;
    snapshot::SnapshotManifest manifest;
  };
  std::vector<PendingGeneration> chain;
  std::uint64_t gen = remote.value();
  while (gen != 0 && !GenerationComplete(store, gen)) {
    auto manifest_bytes = client.FetchManifest(collection, gen);
    if (!manifest_bytes.ok()) return manifest_bytes.status();
    auto manifest = snapshot::SnapshotManifest::Parse(manifest_bytes.value());
    if (!manifest.ok()) return manifest.status();
    const std::uint64_t base = manifest.value().base_generation;
    if (base >= gen) {
      return Status::Corruption("leader lineage does not descend");
    }
    chain.push_back({gen, std::move(manifest_bytes).ValueOrDie(),
                     std::move(manifest).ValueOrDie()});
    gen = base;
  }

  // Materialize bottom-up so every base exists before anything above it.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    MVP_RETURN_NOT_OK(MaterializeGeneration(client, collection, store,
                                            it->gen, it->manifest_bytes,
                                            it->manifest, options));
  }

  // The one and only commit point: CURRENT, atomically, last. Everything
  // above was verified; a crash anywhere before this line leaves the
  // previous generation serving.
  const std::string name = BaseName(store.GenerationDir(remote.value())) +
                           std::string("\n");
  MVP_RETURN_NOT_OK(
      WriteFileAtomic(dest_dir + "/" + snapshot::SnapshotStore::kCurrentFile,
                      std::vector<std::uint8_t>(name.begin(), name.end())));
  return remote.value();
}

}  // namespace mvp::net

#endif  // MVPTREE_FAULT_FS_POSIX
