#ifndef MVPTREE_NET_REPLICATION_H_
#define MVPTREE_NET_REPLICATION_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "fault/fault_fs.h"  // platform gate: defines MVPTREE_FAULT_FS_POSIX
#include "net/client.h"

/// \file
/// Chunk-level snapshot replication: a follower mirrors a leader
/// collection's committed generation by pulling raw bytes — the manifest
/// verbatim, the container in bounded FetchChunk slices — and committing
/// them through the same WriteFileAtomic / CURRENT-last discipline the
/// snapshot store itself uses. The follower never rebuilds anything: after
/// a pull, its store is byte-identical to the leader's generation, so
/// LoadSharded serves bit-identical results and SearchStats.
///
/// The pull is **resumable** (the container lands in a `.partial` file
/// opened in append mode; a re-run resumes from its size) and
/// **fingerprint-verified**: the whole container's ContainerFingerprint
/// must match the manifest before the partial is renamed into place, and
/// CURRENT — the only commit point — is written last. A follower killed at
/// any syscall (every one goes through fault::fs / fault::net, so the
/// failpoint drills apply) either resumes the pull or restarts it; it can
/// never serve an unverified generation, because nothing unverified is
/// ever named by CURRENT.
///
/// Delta lineages replicate transitively: a generation whose manifest
/// names a base_generation pulls the base first (bottom-up), so the
/// follower's store always satisfies the lineage invariants the load path
/// checks.

#if defined(MVPTREE_FAULT_FS_POSIX) || defined(MVPTREE_DOXYGEN)

namespace mvp::net {

struct ReplicationOptions {
  /// FetchChunk slice size. The server caps requests at 8 MiB; smaller
  /// slices give finer resume granularity at more round trips.
  std::uint64_t chunk_bytes = std::uint64_t{256} << 10;
};

/// One replication pass: makes `dest_dir` serve the leader's committed
/// generation of `collection`. Returns the generation now committed
/// locally (which may have been current already — the pass is idempotent).
/// On Corruption (a pulled container failing its fingerprint) the partial
/// is discarded and the local store is untouched.
Result<std::uint64_t> PullGeneration(Client& client,
                                     const std::string& collection,
                                     const std::string& dest_dir,
                                     const ReplicationOptions& options = {});

}  // namespace mvp::net

#endif  // MVPTREE_FAULT_FS_POSIX

#endif  // MVPTREE_NET_REPLICATION_H_
