#ifndef MVPTREE_METRIC_KERNELS_KERNELS_H_
#define MVPTREE_METRIC_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.h"

/// \file
/// Runtime-dispatched batch distance kernels for the dense Minkowski metrics
/// (docs/simd_kernels.md).
///
/// The contract that makes SIMD safe to ship in this repo is *bit-identity*:
/// every tier must return exactly the bytes the scalar reference returns, for
/// every input including ±0, subnormals, ±Inf and NaN. The canonical
/// evaluation order is the scalar reference in kernels.cc — a strictly
/// sequential walk over the dimensions with unfused multiply+add (the kernel
/// translation units are compiled with `-ffp-contract=off`). The vector tiers
/// reproduce that order by vectorising across the *batch* dimension instead:
/// each SIMD lane owns one object and accumulates its dimensions in the same
/// sequential order the scalar loop uses, so every lane's result is the
/// scalar result bit for bit.
///
/// Two batch shapes cover the serving hot paths:
///   * one query × many objects  (`*OneToMany`) — linear sweeps, benches;
///   * one query × gathered rows (`*OneToRows`) — a row pointer per object,
///     anywhere in memory: a range search's leaf survivors and its entered
///     children's vantage points (core::Traversal). A tail shorter than the
///     lane width runs as one more vector call whose missing lanes repeat
///     the last row pointer, so it reads only rows the caller named.
/// Single-pair distances (`L1Pair`/`L2Pair`/`LInfPair`) always run the scalar
/// canonical path regardless of the active tier; they *are* the reference.
///
/// `AnnulusMask` is the leaf-filter primitive: a branchless compare+mask
/// sweep over one chunk of up to 64 leaf entries and any number of their
/// stored-distance columns (a leaf's D1, D2 and PATH columns, each with the
/// query's distance to the same vantage point as its center), answering in
/// one call whether every |center - column[i]| <= radius. Each column is
/// tested in full, with no early exit between columns, so the loads of all
/// of a chunk's columns are in flight together. Comparisons are exact (no
/// rounding), so tiers are trivially identical; NaN anywhere fails the
/// test, matching the scalar `<=`.
///
/// `OneToRows` requests every row's cache lines before the tier kernel runs
/// (`PrefetchBytes`, for every tier): gathered rows are scattered over the
/// object slab, and the kernel would otherwise wait on each one's first load
/// in turn. A k-NN search (core::Traversal) evaluates per call, but requests
/// its rows and leaf columns through the same `PrefetchBytes` before it
/// reads them.
///
/// Dispatch: the best tier is picked once via CPUID-style feature probes
/// (`__builtin_cpu_supports`); `MVPT_FORCE_KERNEL=scalar|avx2|avx512|neon`
/// overrides it, and names a tier this host cannot run, the process aborts
/// loudly rather than silently falling back — a forced tier that quietly
/// degrades would invalidate every conformance claim downstream.

namespace mvp::metric::kernels {

/// Dispatch tiers, ordered by preference. kScalar is always available.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

inline constexpr int kTierCount = 4;

/// Metric families with batch kernels.
enum class Family : int {
  kL1 = 0,
  kL2 = 1,
  kLInf = 2,
};

inline constexpr int kFamilyCount = 3;

/// Canonical lower-case tier name ("scalar", "avx2", "avx512", "neon").
const char* TierName(Tier tier);

/// True when `tier` is both compiled into this binary and runnable on this
/// host's CPU.
bool TierSupported(Tier tier);

/// The fastest supported tier on this host.
Tier BestSupportedTier();

/// The tier batch kernels currently dispatch to. On first use this resolves
/// the `MVPT_FORCE_KERNEL` environment override (aborting the process if the
/// override names an unknown or unavailable tier).
Tier ActiveTier();

/// Programmatic override: "scalar", "avx2", "avx512", "neon", or "auto" to
/// return to feature-probe dispatch. Unknown names get kInvalidArgument;
/// known-but-unavailable tiers get kNotSupported — never a silent fallback.
Status ForceTier(std::string_view name);

/// Single-pair distances: the scalar canonical reference, used by
/// metric::L1/L2/LInf for contiguous double storage. Never dispatched.
double L1Pair(const double* a, const double* b, std::size_t dim);
double L2Pair(const double* a, const double* b, std::size_t dim);
double LInfPair(const double* a, const double* b, std::size_t dim);
double PairDistance(Family family, const double* a, const double* b,
                    std::size_t dim);

/// One query against `count` row-major vectors starting at `objects`, row
/// stride `stride` doubles (stride >= dim). out[i] is bit-identical to
/// PairDistance(family, query, objects + i * stride, dim).
void OneToMany(Family family, const double* query, const double* objects,
               std::size_t count, std::size_t stride, std::size_t dim,
               double* out);

/// One query against `count` rows named by pointer (repeats and aliases
/// allowed). out[i] is bit-identical to PairDistance(family, query, rows[i],
/// dim). Every row is requested with PrefetchBytes before the first distance
/// is computed.
void OneToRows(Family family, const double* query, const double* const* rows,
               std::size_t count, std::size_t dim, double* out);

/// Requests every cache line of [data, data + bytes) without waiting for
/// any: one at every 64-byte step from `data` and one at its last byte, so
/// an unaligned run's final line is requested too. Reads nothing and never
/// faults, so a request may name memory the caller ends up not reading.
/// Always inlined: GCC's mod/ref analysis finds that an out-of-line copy
/// writes nothing and deletes the calls, prefetches and all.
[[gnu::always_inline]] inline void PrefetchBytes(const void* data,
                                                 std::size_t bytes) {
  constexpr std::size_t kLine = 64;
  if (bytes == 0) return;
  const char* p = static_cast<const char*>(data);
  for (std::size_t b = 0; b < bytes; b += kLine) __builtin_prefetch(p + b);
  __builtin_prefetch(p + bytes - 1);
}

/// Annulus compare+mask sweep over `num_columns` columns of `count` values
/// each: bit i of the result is set iff |centers[c] - columns[c][i]| <=
/// radius for every c < num_columns (so every bit below `count` when
/// num_columns is 0). `count` must be <= 64; bits >= count are zero. Each
/// column is read at [0, count) only. NaN in a center, a value or the
/// radius fails the test (bit clear), matching the scalar `<=` on a NaN
/// operand.
std::uint64_t AnnulusMask(const double* centers, const double* const* columns,
                          std::size_t num_columns, std::size_t count,
                          double radius);

inline constexpr std::size_t kAnnulusMaskMaxCount = 64;

namespace internal {

/// The bits below `count` (<= 64): every tier's AnnulusMask before its
/// first column.
inline std::uint64_t LowBits(std::size_t count) {
  return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

/// Per-tier kernel table. Entries are indexed by (int)Family.
struct Ops {
  void (*one_to_many[kFamilyCount])(const double* query, const double* objects,
                                    std::size_t count, std::size_t stride,
                                    std::size_t dim, double* out);
  void (*one_to_rows[kFamilyCount])(const double* query,
                                    const double* const* rows,
                                    std::size_t count, std::size_t dim,
                                    double* out);
  std::uint64_t (*annulus_mask)(const double* centers,
                                const double* const* columns,
                                std::size_t num_columns, std::size_t count,
                                double radius);
};

/// Tier tables. A tier not compiled into this binary returns nullptr.
const Ops* ScalarOps();
const Ops* Avx2Ops();
const Ops* Avx512Ops();
const Ops* NeonOps();

/// Resolves an MVPT_FORCE_KERNEL value; aborts the process (after printing
/// the reason to stderr) on an unknown name or an unavailable tier. Exposed
/// for the conformance suite's death tests.
Tier TierFromEnvOrDie(const char* value);

}  // namespace internal

/// Maps a metric type to its batch-kernel family. The primary template marks
/// a metric as not batch-capable; metric/lp.h specialises it for
/// metric::L1/L2/LInf.
template <typename Metric>
struct FamilyFor {
  static constexpr bool available = false;
};

/// FamilyFor through a chain of wrappers: a metric that is not itself a
/// family, but exposes inner() and can charge a primed evaluation
/// (CountPrimed(), which must do exactly what one of its own evaluations
/// does besides calling inner()), has its inner metric's family. So a
/// counted or cancellable L2 still batches, and a chain with one wrapper
/// that cannot charge a primed value does not.
template <typename Metric>
struct UnwrappedFamilyFor : FamilyFor<Metric> {};

template <typename Metric>
  requires(!FamilyFor<Metric>::available &&
           requires(const Metric& m) {
             m.CountPrimed();
             m.inner();
           })
struct UnwrappedFamilyFor<Metric>
    : UnwrappedFamilyFor<
          std::remove_cvref_t<decltype(std::declval<const Metric&>().inner())>> {
};

}  // namespace mvp::metric::kernels

#endif  // MVPTREE_METRIC_KERNELS_KERNELS_H_
