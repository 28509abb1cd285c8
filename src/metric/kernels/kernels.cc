// Scalar reference kernels + tier dispatch (docs/simd_kernels.md).
//
// This translation unit IS the bit-identity contract: every vector tier must
// reproduce these loops byte for byte. It is compiled with -ffp-contract=off
// so the compiler cannot fuse the multiply+add in L2 into an FMA — the
// canonical summation order is sequential over dimensions with unfused
// rounding after every operation.

#include "metric/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace mvp::metric::kernels {

// ---------------------------------------------------------------------------
// Scalar canonical reference
// ---------------------------------------------------------------------------

double L1Pair(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    sum += std::fabs(a[i] - b[i]);
  }
  return sum;
}

double L2Pair(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double LInfPair(const double* a, const double* b, std::size_t dim) {
  double best = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double diff = std::fabs(a[i] - b[i]);
    if (diff > best) best = diff;
  }
  return best;
}

double PairDistance(Family family, const double* a, const double* b,
                    std::size_t dim) {
  switch (family) {
    case Family::kL1:
      return L1Pair(a, b, dim);
    case Family::kL2:
      return L2Pair(a, b, dim);
    case Family::kLInf:
      return LInfPair(a, b, dim);
  }
  MVP_DCHECK(false);
  return 0.0;
}

namespace {

template <Family kFam>
void ScalarOneToMany(const double* query, const double* objects,
                     std::size_t count, std::size_t stride, std::size_t dim,
                     double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = PairDistance(kFam, query, objects + i * stride, dim);
  }
}

template <Family kFam>
void ScalarOneToRows(const double* query, const double* const* rows,
                     std::size_t count, std::size_t dim, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = PairDistance(kFam, query, rows[i], dim);
  }
}

std::uint64_t ScalarAnnulusMask(const double* centers, const double* radii,
                                const float* const* columns,
                                std::size_t num_columns, std::size_t count) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < count; ++i) {
    bool pass = true;
    for (std::size_t c = 0; c < num_columns; ++c) {
      const double value = columns[c][i];
      pass = pass && std::fabs(centers[c] - value) <= radii[c];
    }
    if (pass) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

}  // namespace

namespace internal {

const Ops* ScalarOps() {
  static const Ops ops = {
      {&ScalarOneToMany<Family::kL1>, &ScalarOneToMany<Family::kL2>,
       &ScalarOneToMany<Family::kLInf>},
      {&ScalarOneToRows<Family::kL1>, &ScalarOneToRows<Family::kL2>,
       &ScalarOneToRows<Family::kLInf>},
      &ScalarAnnulusMask,
  };
  return &ops;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

const internal::Ops* OpsForTier(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return internal::ScalarOps();
    case Tier::kAvx2:
      return internal::Avx2Ops();
    case Tier::kAvx512:
      return internal::Avx512Ops();
  }
  return nullptr;
}

bool TierRunnable(Tier tier) {
  if (OpsForTier(tier) == nullptr) return false;  // not compiled in
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
  }
  return false;
}

// kTierUnresolved means ActiveTier() has not yet consulted the environment.
constexpr int kTierUnresolved = -1;
std::atomic<int> g_active_tier{kTierUnresolved};

bool ParseTierName(std::string_view name, Tier* out) {
  if (name == "scalar") {
    *out = Tier::kScalar;
  } else if (name == "avx2") {
    *out = Tier::kAvx2;
  } else if (name == "avx512") {
    *out = Tier::kAvx512;
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool TierSupported(Tier tier) { return TierRunnable(tier); }

Tier BestSupportedTier() {
  if (TierRunnable(Tier::kAvx512)) return Tier::kAvx512;
  if (TierRunnable(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

namespace internal {

Tier TierFromEnvOrDie(const char* value) {
  if (value == nullptr || value[0] == '\0' ||
      std::string_view(value) == "auto") {
    return BestSupportedTier();
  }
  Tier tier;
  if (!ParseTierName(value, &tier)) {
    std::fprintf(stderr,
                 "MVPT_FORCE_KERNEL=%s: unknown kernel tier (expected "
                 "auto|scalar|avx2|avx512)\n",
                 value);
    std::abort();
  }
  if (!TierRunnable(tier)) {
    std::fprintf(stderr,
                 "MVPT_FORCE_KERNEL=%s: tier is not available on this host; "
                 "refusing to silently fall back\n",
                 value);
    std::abort();
  }
  return tier;
}

}  // namespace internal

Tier ActiveTier() {
  int v = g_active_tier.load(std::memory_order_acquire);
  if (v == kTierUnresolved) {
    // Benign race: concurrent first callers resolve to the same value.
    const Tier tier = internal::TierFromEnvOrDie(std::getenv("MVPT_FORCE_KERNEL"));
    g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
    v = static_cast<int>(tier);
  }
  return static_cast<Tier>(v);
}

Status ForceTier(std::string_view name) {
  if (name == "auto") {
    g_active_tier.store(static_cast<int>(BestSupportedTier()),
                        std::memory_order_release);
    return Status::OK();
  }
  Tier tier;
  if (!ParseTierName(name, &tier)) {
    return Status::InvalidArgument("unknown kernel tier: " +
                                   std::string(name));
  }
  if (!TierRunnable(tier)) {
    return Status::NotSupported(std::string("kernel tier unavailable on this "
                                            "host: ") +
                                TierName(tier));
  }
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

void OneToMany(Family family, const double* query, const double* objects,
               std::size_t count, std::size_t stride, std::size_t dim,
               double* out) {
  MVP_DCHECK(stride >= dim);
  const internal::Ops* ops = OpsForTier(ActiveTier());
  ops->one_to_many[static_cast<int>(family)](query, objects, count, stride,
                                             dim, out);
}

void OneToRows(Family family, const double* query, const double* const* rows,
               std::size_t count, std::size_t dim, double* out) {
  // The rows' misses overlap instead of each stalling the kernel at its
  // first load.
  for (std::size_t i = 0; i < count; ++i) {
    PrefetchBytes(rows[i], dim * sizeof(double));
  }
  const internal::Ops* ops = OpsForTier(ActiveTier());
  ops->one_to_rows[static_cast<int>(family)](query, rows, count, dim, out);
}

std::uint64_t AnnulusMask(const double* centers, const double* radii,
                          const float* const* columns,
                          std::size_t num_columns, std::size_t count) {
  MVP_DCHECK(count <= kAnnulusMaskMaxCount);
  const internal::Ops* ops = OpsForTier(ActiveTier());
  return ops->annulus_mask(centers, radii, columns, num_columns, count);
}

}  // namespace mvp::metric::kernels
