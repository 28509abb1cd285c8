#ifndef MVPTREE_COMMON_SHARD_PARTITION_H_
#define MVPTREE_COMMON_SHARD_PARTITION_H_

#include <cstdint>
#include <limits>
#include <vector>

/// \file
/// The metric partition of a sharded index: one top vantage point v and,
/// per shard, the shell of distances from v its objects span (the paper's
/// m-way vp split, §3, one level above the shard trees). One definition
/// serves serve::ShardedMvpIndex, which builds and searches by it, and the
/// snapshot manifest, which persists it.

namespace mvp {

/// One shard's shell around v: every object the shard holds lies at
/// distance [lo, hi] from v. The default is the unbounded shell [0, +inf)
/// of a shard in an index without v.
struct ShardShell {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();

  friend bool operator==(const ShardShell&, const ShardShell&) = default;
};

/// v as (shard, local id), and shells[s] for each shard s.
struct ShardPartition {
  std::uint64_t vantage_shard = 0;
  std::uint64_t vantage_local = 0;
  std::vector<ShardShell> shells;

  friend bool operator==(const ShardPartition&,
                         const ShardPartition&) = default;
};

}  // namespace mvp

#endif  // MVPTREE_COMMON_SHARD_PARTITION_H_
