#ifndef MVPTREE_SNAPSHOT_ASYNC_LOADER_H_
#define MVPTREE_SNAPSHOT_ASYNC_LOADER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

/// \file
/// Hot swap of the live index generation: GenerationCell, one atomic
/// pointer that the serving path reads and a loader publishes into.
///
/// The serving side does `cell.Get()` once per query — an atomic
/// shared_ptr load, no lock, no reader registration. The loading side
/// (the server's StaticCollection::Refresh, on the serve pool) runs
/// SnapshotStore::LoadSharded off to the side while queries keep running
/// against the old generation, and only when the new index is fully built
/// does Publish() swap the pointer. This is the RCU discipline with
/// shared_ptr as the grace period: in-flight queries that grabbed the old
/// generation keep it alive through their own reference; the last one out
/// frees it. No query ever observes a half-loaded index, and no query ever
/// waits on a loader. A load that fails publishes nothing, so the old
/// generation keeps serving.
///
/// Thread-safety analysis: the publication point is a single
/// std::atomic<std::shared_ptr> — lock-free on the reader side by
/// construction, so there is no capability to annotate here.

namespace mvp::snapshot {

/// An atomically swappable, versioned reference to the live index
/// generation. Readers call Get() (wait-free on the lock-free shared_ptr
/// implementations; never blocked by writers on any); the loader calls
/// Publish(). `version()` counts publishes, so a caller can observe "a
/// swap happened" without comparing pointers.
template <typename Index>
class GenerationCell {
 public:
  GenerationCell() = default;
  explicit GenerationCell(std::shared_ptr<const Index> initial) {
    Publish(std::move(initial));
  }

  GenerationCell(const GenerationCell&) = delete;
  GenerationCell& operator=(const GenerationCell&) = delete;

  /// The current generation (may be null before the first Publish). The
  /// returned shared_ptr keeps the generation alive for as long as the
  /// query holds it, even across a concurrent Publish.
  std::shared_ptr<const Index> Get() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Atomically replaces the live generation. The old generation is freed
  /// when its last in-flight reader drops it.
  void Publish(std::shared_ptr<const Index> next) {
    current_.store(std::move(next), std::memory_order_release);
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Number of Publish() calls so far.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::shared_ptr<const Index>> current_{nullptr};
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace mvp::snapshot

#endif  // MVPTREE_SNAPSHOT_ASYNC_LOADER_H_
