#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metric/kernels/kernels.h"
#include "metric/lp.h"

/// Conformance suite for the dispatched batch kernels
/// (src/metric/kernels/). The library's claim is not "SIMD is close to
/// scalar" but *bit-identity*: every tier reachable on this host must
/// return, for every shape and every input class, exactly the bytes the
/// scalar reference returns. This suite is what lets the flat index, the
/// goldens, and the serving layer treat the active tier as an invisible
/// implementation detail.
///
/// Coverage axes, crossed with every reachable tier:
///   * dimensions 0..300 (every value 0..68, then strided) — exercises all
///     SIMD block/tail splits for 2-, 4- and 8-lane tiers;
///   * batch counts around the lane-block boundaries;
///   * misaligned base pointers (odd 8-byte offsets — vector loads must not
///     assume 32/64-byte alignment);
///   * adversarial values: ±0, subnormals, ±Inf, NaN, and magnitude mixes
///     that make summation order observable;
///   * the leaf-filter mask (AnnulusMask): 0..9 float columns at every chunk
///     size 0..64, NaN in centers, values and radii, misaligned columns, and
///     columns ending exactly at the end of their allocation;
///   * the float leaf columns' radius (ColumnRadius) and upper bound
///     (ColumnUpper): on random and adversarial values, the float tests
///     keep every entry the double tests keep, on every tier;
///   * gathered rows (OneToRows): every count through two full blocks of the
///     widest tier plus a lane-filled tail, repeated and aliased row
///     pointers, and rows ending exactly at the end of their allocation, so
///     a sanitizer build catches a read past the last row;
///   * forced-tier dispatch: ForceTier error contract, and the
///     MVPT_FORCE_KERNEL resolver aborting on unknown/unavailable names.
///
/// Bit-identity is asserted with memcmp, never operator== — it must
/// distinguish -0.0 from +0.0 and must not let NaN != NaN vacuously pass.

namespace mvp::metric::kernels {
namespace {

constexpr Family kFamilies[] = {Family::kL1, Family::kL2, Family::kLInf};

const char* FamilyLabel(Family f) {
  switch (f) {
    case Family::kL1:
      return "L1";
    case Family::kL2:
      return "L2";
    case Family::kLInf:
      return "LInf";
  }
  return "?";
}

std::vector<Tier> ReachableTiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kTierCount; ++t) {
    if (TierSupported(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

/// Restores feature-probe dispatch no matter how a test exits, so a failing
/// assertion cannot leak a forced tier into later tests.
struct TierGuard {
  ~TierGuard() { (void)ForceTier("auto"); }  // not a status to act on: reset
};

void ExpectBitsEqual(double want, double got, const std::string& what) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << ": scalar=" << want << " tier=" << got
      << " (bit patterns differ)";
}

/// Deterministic fill mixing magnitudes so that any reassociation of the
/// sum changes the result — the strongest practical probe for "same
/// summation order as scalar".
void FillValues(Rng& rng, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const int exponent = static_cast<int>(rng.NextBounded(81)) - 40;
    out[i] = std::ldexp(rng.NextDouble() - 0.5, exponent);
  }
}

/// Adversarial special values, cycled through a buffer.
void FillSpecials(double* out, std::size_t n, std::size_t phase) {
  static const double kSpecials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1.0,
      -1.0,
      1e308,
      -1e-308,
  };
  constexpr std::size_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = kSpecials[(i + phase) % kNumSpecials];
  }
}

/// One conformance pass: runs OneToMany for every family at (dim, count) on
/// buffers starting at an `offset`-doubles-misaligned base, and
/// memcmp-compares the active tier's outputs against the scalar reference
/// table and against PairDistance on each row.
void CheckShapes(Tier tier, std::size_t dim, std::size_t count,
                 std::size_t offset, bool specials, std::uint64_t seed) {
  const internal::Ops* scalar = internal::ScalarOps();
  ASSERT_NE(scalar, nullptr);

  // `offset` leading doubles force SIMD-unfriendly base alignment.
  const std::size_t stride = dim + (seed % 3);  // also exercise stride > dim
  std::vector<double> query_buf(offset + dim, 0.0);
  std::vector<double> objects_buf(offset + count * stride + 1, 0.0);
  Rng rng(seed);
  if (specials) {
    FillSpecials(query_buf.data() + offset, dim, seed % 7);
    FillSpecials(objects_buf.data() + offset, count * stride, seed % 5);
  } else {
    FillValues(rng, query_buf.data() + offset, dim);
    FillValues(rng, objects_buf.data() + offset, count * stride);
  }
  const double* query = query_buf.data() + offset;
  const double* objects = objects_buf.data() + offset;

  std::vector<const double*> rows(count);
  for (std::size_t i = 0; i < count; ++i) rows[i] = objects + i * stride;

  std::vector<double> want(count), got(count);
  const std::string ctx = std::string(TierName(tier)) + " dim=" +
                          std::to_string(dim) + " count=" +
                          std::to_string(count) + " offset=" +
                          std::to_string(offset) +
                          (specials ? " specials" : "");
  for (Family family : kFamilies) {
    const int f = static_cast<int>(family);
    scalar->one_to_many[f](query, objects, count, stride, dim, want.data());
    OneToMany(family, query, objects, count, stride, dim, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      ExpectBitsEqual(want[i], got[i],
                      std::string(FamilyLabel(family)) + " OneToMany[" +
                          std::to_string(i) + "] " + ctx);
    }
    // Every batch result must equal the never-dispatched pair kernel.
    for (std::size_t i = 0; i < count; ++i) {
      const double pair = PairDistance(family, query, rows[i], dim);
      ExpectBitsEqual(pair, got[i],
                      std::string(FamilyLabel(family)) + " vs PairDistance[" +
                          std::to_string(i) + "] " + ctx);
    }
  }
}

/// Runs OneToRows for every family over `rows` and memcmp-compares each
/// output against PairDistance on the same row and the scalar table.
void CheckOneToRows(const double* query, const std::vector<const double*>& rows,
                    std::size_t dim, const std::string& ctx) {
  const internal::Ops* scalar = internal::ScalarOps();
  ASSERT_NE(scalar, nullptr);
  const std::size_t count = rows.size();
  std::vector<double> want(count), got(count);
  for (Family family : kFamilies) {
    const int f = static_cast<int>(family);
    scalar->one_to_rows[f](query, rows.data(), count, dim, want.data());
    OneToRows(family, query, rows.data(), count, dim, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::string what = std::string(FamilyLabel(family)) +
                               " OneToRows[" + std::to_string(i) + "] " + ctx;
      ExpectBitsEqual(want[i], got[i], what);
      ExpectBitsEqual(PairDistance(family, query, rows[i], dim), got[i],
                      what + " vs PairDistance");
    }
  }
}

/// A heap block of exactly `n` doubles, so the last row of a slab filling
/// it ends at the end of the allocation.
std::unique_ptr<double[]> ExactBlock(std::size_t n) {
  return std::unique_ptr<double[]>(new double[n == 0 ? 1 : n]);
}

class KernelConformanceTest : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    const Tier tier = GetParam();
    ASSERT_TRUE(TierSupported(tier));
    const Status forced = ForceTier(TierName(tier));
    ASSERT_TRUE(forced.ok()) << forced.ToString();
    ASSERT_EQ(ActiveTier(), tier);
  }
  void TearDown() override {
    const Status reset = ForceTier("auto");
    ASSERT_TRUE(reset.ok()) << reset.ToString();
  }
};

TEST_P(KernelConformanceTest, EveryDimensionZeroTo300) {
  // 0..68 covers every block/tail split of 2-, 4- and 8-lane kernels with
  // margin; beyond that, stride through 300 for long-accumulation coverage.
  for (std::size_t dim = 0; dim <= 68; ++dim) {
    CheckShapes(GetParam(), dim, 5, 0, false, 1000 + dim);
  }
  for (std::size_t dim = 69; dim <= 300; dim += 17) {
    CheckShapes(GetParam(), dim, 3, 0, false, 2000 + dim);
  }
  CheckShapes(GetParam(), 300, 3, 0, false, 2300);
}

TEST_P(KernelConformanceTest, BatchCountsAroundLaneBoundaries) {
  for (std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                            17u, 31u, 33u, 64u, 65u}) {
    CheckShapes(GetParam(), 20, count, 0, false, 3000 + count);
  }
}

TEST_P(KernelConformanceTest, MisalignedBasePointers) {
  for (std::size_t offset : {1u, 2u, 3u, 5u, 7u}) {
    CheckShapes(GetParam(), 33, 9, offset, false, 4000 + offset);
    CheckShapes(GetParam(), 8, 17, offset, false, 4100 + offset);
  }
}

TEST_P(KernelConformanceTest, SpecialValuesBitIdentical) {
  for (std::size_t dim : {1u, 3u, 4u, 7u, 8u, 12u, 16u, 33u}) {
    for (std::size_t count : {1u, 4u, 9u}) {
      CheckShapes(GetParam(), dim, count, 0, true, 5000 + dim * 100 + count);
      CheckShapes(GetParam(), dim, count, 1, true, 6000 + dim * 100 + count);
    }
  }
}

/// Leaf-filter columns for AnnulusMask: `num_columns` float columns of
/// `count` values, each its own allocation starting `offset` floats in and
/// ending right after its last value, so a read past `count` is a heap
/// overflow a sanitizer build reports. Every column has center 1 and its
/// own radius, set per call.
struct MaskColumns {
  std::vector<std::unique_ptr<float[]>> storage;
  std::vector<double> centers;
  std::vector<double> radii;
  std::vector<const float*> columns;

  MaskColumns(Rng& rng, std::size_t num_columns, std::size_t count,
              std::size_t offset) {
    for (std::size_t c = 0; c < num_columns; ++c) {
      storage.push_back(std::make_unique<float[]>(offset + count));
      float* values = storage.back().get() + offset;
      for (std::size_t i = 0; i < count; ++i) {
        values[i] = NarrowDistance(2 * rng.NextDouble());
      }
      centers.push_back(1.0);
      radii.push_back(0.0);
      columns.push_back(values);
    }
  }
  /// Column c's radius: `radius`, or the next double above it for odd c.
  void SetRadius(double radius) {
    for (std::size_t c = 0; c < radii.size(); ++c) {
      radii[c] = c % 2 == 0 ? radius
                            : std::nextafter(
                                  radius, std::numeric_limits<double>::max());
    }
  }
  std::uint64_t Scalar(std::size_t count) const {
    return internal::ScalarOps()->annulus_mask(centers.data(), radii.data(),
                                               columns.data(), columns.size(),
                                               count);
  }
  std::uint64_t Dispatched(std::size_t count) const {
    return AnnulusMask(centers.data(), radii.data(), columns.data(),
                       columns.size(), count);
  }
};

TEST_P(KernelConformanceTest, AnnulusMaskMatchesScalar) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(99);
  for (std::size_t num_columns = 0; num_columns <= 9; ++num_columns) {
    for (std::size_t count = 0; count <= kAnnulusMaskMaxCount; ++count) {
      MaskColumns cols(rng, num_columns, count, 0);
      // Sprinkle exact-boundary and special entries over the columns.
      for (std::size_t c = 0; c < num_columns && count > 0; ++c) {
        float* values = cols.storage[c].get();
        values[(c * 7) % count] = 1.5f;  // |1.0 - 1.5| == 0.5 exactly
        values[(c * 5 + 2) % count] = c % 2 == 0 ? kNaN : -0.0f;
        values[(c * 3 + 3) % count] = std::numeric_limits<float>::infinity();
        values[(c * 11 + 4) % count] = std::numeric_limits<float>::max();
        values[(c * 13 + 5) % count] =
            std::numeric_limits<float>::denorm_min();
      }
      // A NaN center fails its whole column.
      if (num_columns > 0 && count % 5 == 0) {
        cols.centers[count % num_columns] =
            std::numeric_limits<double>::quiet_NaN();
      }
      for (double radius :
           {0.0, 0.5, 0.9, 1e300, -1.0, std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()}) {
        cols.SetRadius(radius);
        const std::string ctx = std::string(TierName(GetParam())) +
                                " columns=" + std::to_string(num_columns) +
                                " count=" + std::to_string(count) +
                                " radius=" + std::to_string(radius);
        const std::uint64_t got = cols.Dispatched(count);
        EXPECT_EQ(cols.Scalar(count), got) << ctx;
        // Cross-check against the definition, not just the scalar table:
        // each float widened to double, then the double test.
        for (std::size_t i = 0; i < count; ++i) {
          bool pass = true;
          for (std::size_t c = 0; c < num_columns; ++c) {
            const double value = cols.columns[c][i];
            pass = pass &&
                   std::fabs(cols.centers[c] - value) <= cols.radii[c];
          }
          EXPECT_EQ(((got >> i) & 1) != 0, pass) << ctx << " bit " << i;
        }
        // Bits at and above `count` must be zero.
        if (count < 64) {
          EXPECT_EQ(got >> count, 0u) << ctx;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST_P(KernelConformanceTest, MisalignedAnnulusMask) {
  Rng rng(7);
  for (std::size_t offset : {1u, 3u}) {
    for (std::size_t num_columns : {1u, 2u, 7u, 9u}) {
      for (std::size_t count : {1u, 7u, 31u, 63u, 64u}) {
        MaskColumns cols(rng, num_columns, count, offset);
        cols.SetRadius(0.9);
        EXPECT_EQ(cols.Scalar(count), cols.Dispatched(count))
            << TierName(GetParam()) << " offset=" << offset
            << " columns=" << num_columns << " count=" << count;
      }
    }
  }
}

/// Random and adversarial (center, stored distance, radius) triples for the
/// float-column tests: ±0, subnormals of both widths, values near and above
/// FLT_MAX and at 2^127, +inf and NaN, next to random magnitudes and pairs
/// one double ulp apart.
std::vector<double> ColumnProbeValues(Rng& rng) {
  constexpr double kFltMax = std::numeric_limits<float>::max();
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<float>::denorm_min(),
      0x1p-150,
      0x1.8p-150,
      std::numeric_limits<float>::min(),
      1e-30,
      0.1,
      0.3,
      1.0,
      1.0 + 0x1p-52,
      1.0 + 0x1p-24,
      1.0 + 0x1.8p-24,
      3.0,
      1e10,
      0x1p127,
      std::nextafter(0x1p127, 0.0),
      kFltMax,
      std::nextafter(kFltMax, 0.0),
      std::nextafter(kFltMax, std::numeric_limits<double>::infinity()),
      kFltMax * 2,
      1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (int i = 0; i < 40; ++i) {
    const double v = std::ldexp(rng.NextDouble(),
                                static_cast<int>(rng.NextBounded(300)) - 150);
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, 1e308));
  }
  return values;
}

/// The range and k-NN test on one float column: whenever the double test
/// |c - x| <= r passes on the double x, the mask passes on NarrowDistance(x)
/// at ColumnRadius(c, r), on every tier. The triples are every center and
/// radius of the probe set against every stored value, and each value's
/// neighbours c = x ± r, where the double test sits on its boundary.
TEST_P(KernelConformanceTest, FloatColumnRadiusAdmitsEveryDoublePass) {
  Rng rng(4242);
  const std::vector<double> probe = ColumnProbeValues(rng);
  std::size_t passes = 0;
  const auto check = [&](double c, double x, double r) {
    const bool exact = std::fabs(c - x) <= r;
    if (!exact) return;
    ++passes;
    const float stored = NarrowDistance(x);
    const float* column = &stored;
    const double radius = ColumnRadius(c, r);
    const std::uint64_t scalar =
        internal::ScalarOps()->annulus_mask(&c, &radius, &column, 1, 1);
    const std::uint64_t got = AnnulusMask(&c, &radius, &column, 1, 1);
    EXPECT_EQ(got, 1u) << TierName(GetParam()) << " c=" << c << " x=" << x
                       << " r=" << r;
    EXPECT_EQ(scalar, got);
  };
  for (const double x : probe) {
    for (const double r : probe) {
      if (!(r >= 0)) continue;
      for (const double c : probe) check(c, x, r);
      check(x + r, x, r);
      check(x - r, x, r);
      check(std::nextafter(x + r, 0.0), x, r);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(passes, 10000u);
}

/// NaN and the radius edges: a NaN center or radius keeps nothing, as in
/// double; r = +inf keeps every non-NaN difference; and the radius grows
/// with r, so a k-NN mask at a larger tau keeps a superset.
TEST(FloatColumnTest, RadiusEdges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(ColumnRadius(nan, 1.0)));
  EXPECT_TRUE(std::isnan(ColumnRadius(1.0, nan)));
  EXPECT_EQ(ColumnRadius(1.0, inf), inf);
  EXPECT_EQ(ColumnRadius(0x1p127, 0.0), inf);
  EXPECT_EQ(ColumnRadius(0.0, 0.0), 0x1p-149);
  EXPECT_EQ(NarrowDistance(inf), std::numeric_limits<float>::max());
  EXPECT_EQ(NarrowDistance(1e300), std::numeric_limits<float>::max());
  EXPECT_TRUE(std::isnan(NarrowDistance(nan)));
  Rng rng(77);
  const std::vector<double> probe = ColumnProbeValues(rng);
  for (const double c : probe) {
    if (std::isnan(c)) continue;
    for (const double r : probe) {
      if (!(r >= 0)) continue;
      const double wider = std::nextafter(r, inf);
      EXPECT_LE(ColumnRadius(c, r), ColumnRadius(c, wider))
          << "c=" << c << " r=" << r;
    }
  }
}

/// The farthest test on one float column: it rejects an entry only when
/// d + ColumnUpper(x~) < tau, and whenever it does, the double test
/// d + x < tau rejects it too — so the float bound never drops an entry the
/// double bound keeps.
TEST(FloatColumnTest, UpperNeverRejectsWhatDoubleKeeps) {
  Rng rng(4243);
  const std::vector<double> probe = ColumnProbeValues(rng);
  std::size_t rejects = 0;
  const auto check = [&](double d, double x, double tau) {
    if (!(d + ColumnUpper(NarrowDistance(x)) < tau)) return;
    ++rejects;
    EXPECT_LT(d + x, tau) << "d=" << d << " x=" << x << " tau=" << tau;
  };
  for (const double x : probe) {
    if (!(x >= 0)) continue;
    EXPECT_GE(ColumnUpper(NarrowDistance(x)), x) << "x=" << x;
    for (const double d : probe) {
      if (!(d >= 0)) continue;
      for (const double tau : probe) check(d, x, tau);
      check(d, x, d + x);
      check(d, x, std::nextafter(d + x, std::numeric_limits<double>::max()));
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(rejects, 1000u);
}

TEST_P(KernelConformanceTest, OneToRowsEveryCountThroughLaneFill) {
  // 1..2*8+1 covers one and two full blocks of every tier's lane width and
  // every tail length, which runs as one more call over a repeated row.
  Rng rng(8100);
  for (std::size_t dim : {1u, 3u, 4u, 5u, 8u, 20u, 33u}) {
    for (std::size_t count = 1; count <= 17; ++count) {
      std::vector<double> query(dim);
      FillValues(rng, query.data(), dim);
      const auto slab = ExactBlock(count * dim);
      FillValues(rng, slab.get(), count * dim);
      // Odd counts gather in memory order, so a lane-filled tail repeats
      // the row that ends the allocation; even counts gather in reverse,
      // so the row order is not the memory order.
      std::vector<const double*> rows(count);
      for (std::size_t i = 0; i < count; ++i) {
        rows[i] = slab.get() + (count % 2 == 0 ? count - 1 - i : i) * dim;
      }
      CheckOneToRows(query.data(), rows, dim,
                     std::string(TierName(GetParam())) + " dim=" +
                         std::to_string(dim) + " count=" +
                         std::to_string(count));
    }
  }
}

TEST_P(KernelConformanceTest, OneToRowsRepeatedAndAliasedRows) {
  Rng rng(8200);
  const std::size_t dim = 12;
  std::vector<double> query(dim);
  FillValues(rng, query.data(), dim);
  for (std::size_t count : {1u, 2u, 3u, 7u, 9u, 17u}) {
    // Every pointer the same row, the allocation's only row.
    const auto one = ExactBlock(dim);
    FillValues(rng, one.get(), dim);
    CheckOneToRows(query.data(),
                   std::vector<const double*>(count, one.get()), dim,
                   "repeated count=" + std::to_string(count));
    // Overlapping rows one double apart: row i shares dim-1 coordinates
    // with row i+1, and the last ends at the end of the allocation.
    const auto shifted = ExactBlock(dim + count - 1);
    FillValues(rng, shifted.get(), dim + count - 1);
    std::vector<const double*> aliased(count);
    for (std::size_t i = 0; i < count; ++i) aliased[i] = shifted.get() + i;
    CheckOneToRows(query.data(), aliased, dim,
                   "aliased count=" + std::to_string(count));
    // Rows named twice, out of order: a, b, a, b, ...
    const auto two = ExactBlock(2 * dim);
    FillValues(rng, two.get(), 2 * dim);
    std::vector<const double*> alternating(count);
    for (std::size_t i = 0; i < count; ++i) {
      alternating[i] = two.get() + (i % 2 == 0 ? dim : 0);
    }
    CheckOneToRows(query.data(), alternating, dim,
                   "alternating count=" + std::to_string(count));
  }
}

TEST_P(KernelConformanceTest, OneToRowsSpecialValuesBitIdentical) {
  for (std::size_t dim : {1u, 4u, 7u, 12u}) {
    for (std::size_t count : {1u, 3u, 8u, 11u}) {
      for (std::size_t phase = 0; phase < 4; ++phase) {
        std::vector<double> query(dim);
        FillSpecials(query.data(), dim, phase * 3);
        const auto slab = ExactBlock(count * dim);
        FillSpecials(slab.get(), count * dim, phase);
        std::vector<const double*> rows(count);
        for (std::size_t i = 0; i < count; ++i) rows[i] = slab.get() + i * dim;
        CheckOneToRows(query.data(), rows, dim,
                       "specials dim=" + std::to_string(dim) + " count=" +
                           std::to_string(count) + " phase=" +
                           std::to_string(phase));
      }
    }
  }
  // Two NaNs with different payloads at one coordinate: which one survives
  // a - b depends on the operand order, so it pins query - row. One payload
  // at most reaches each row's sum: which of two NaN addends a sum keeps is
  // not pinned (the compiler may commute an add), only the subtraction's.
  const double query_nan = std::bit_cast<double>(0x7ff8000000000011ULL);
  const double row_nan = std::bit_cast<double>(0xfff8000000000022ULL);
  for (std::size_t count : {1u, 5u, 9u}) {
    const std::size_t dim = 3;
    std::vector<double> query = {1.0, query_nan, -0.0};
    const auto slab = ExactBlock(count * dim);
    for (std::size_t i = 0; i < count; ++i) {
      slab[i * dim + 0] = 0.5;
      slab[i * dim + 1] = i % 2 == 0 ? row_nan : 2.0;
      slab[i * dim + 2] = i % 3 == 0 ? 0.0 : -0.0;
    }
    std::vector<const double*> rows(count);
    for (std::size_t i = 0; i < count; ++i) rows[i] = slab.get() + i * dim;
    CheckOneToRows(query.data(), rows, dim,
                   "nan payloads count=" + std::to_string(count));
    // And a NaN only in the rows.
    query[1] = 2.0;
    CheckOneToRows(query.data(), rows, dim,
                   "row nan count=" + std::to_string(count));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllReachableTiers, KernelConformanceTest,
    ::testing::ValuesIn(ReachableTiers()),
    [](const ::testing::TestParamInfo<Tier>& info) {
      return std::string(TierName(info.param));
    });

// --- dispatch contract ------------------------------------------------------

TEST(KernelDispatchTest, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(TierSupported(Tier::kScalar));
  EXPECT_TRUE(TierSupported(BestSupportedTier()));
}

TEST(KernelDispatchTest, ForceTierRejectsUnknownName) {
  TierGuard guard;
  const Status s = ForceTier("sse9");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  const Status empty = ForceTier("");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument) << empty.ToString();
}

TEST(KernelDispatchTest, ForceTierRejectsUnavailableTierLoudly) {
  TierGuard guard;
  // Every tier this host cannot run is refused. An AVX-512 host runs every
  // tier there is, so the removed "neon" tier is refused too, as unknown.
  ASSERT_TRUE(ForceTier("scalar").ok());
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (TierSupported(tier)) continue;
    const Status s = ForceTier(TierName(tier));
    EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s.ToString();
  }
  const Status neon = ForceTier("neon");
  EXPECT_EQ(neon.code(), StatusCode::kInvalidArgument) << neon.ToString();
  // A refused ForceTier must not have changed dispatch.
  EXPECT_EQ(ActiveTier(), Tier::kScalar);
}

TEST(KernelDispatchTest, ForceTierRoundTripsEveryReachableTier) {
  TierGuard guard;
  for (Tier tier : ReachableTiers()) {
    const Status s = ForceTier(TierName(tier));
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(ActiveTier(), tier);
  }
  EXPECT_TRUE(ForceTier("auto").ok());
  EXPECT_EQ(ActiveTier(), BestSupportedTier());
}

TEST(KernelDispatchDeathTest, EnvResolverAbortsOnUnknownName) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(internal::TierFromEnvOrDie("bogus-tier"), "MVPT_FORCE_KERNEL");
}

TEST(KernelDispatchDeathTest, EnvResolverAbortsOnUnavailableTier) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (int t = 0; t < kTierCount; ++t) {
    if (!TierSupported(static_cast<Tier>(t))) {
      EXPECT_DEATH(internal::TierFromEnvOrDie(TierName(static_cast<Tier>(t))),
                   "MVPT_FORCE_KERNEL");
    }
  }
  // The NEON tier is gone: its name is an unknown tier everywhere.
  EXPECT_DEATH(internal::TierFromEnvOrDie("neon"), "unknown kernel tier");
}

TEST(KernelDispatchTest, EnvResolverAcceptsAutoAndEmpty) {
  EXPECT_EQ(internal::TierFromEnvOrDie(nullptr), BestSupportedTier());
  EXPECT_EQ(internal::TierFromEnvOrDie(""), BestSupportedTier());
  EXPECT_EQ(internal::TierFromEnvOrDie("auto"), BestSupportedTier());
  EXPECT_EQ(internal::TierFromEnvOrDie("scalar"), Tier::kScalar);
}

// --- pair kernels are the metrics -------------------------------------------

/// The scalar pair kernels must be the *same function* (bit for bit) as the
/// metric objects the trees were built with — that identity is what lets
/// the flat SoA path mix kernel sweeps with metric calls mid-query.
TEST(KernelPairTest, PairKernelsMatchMetricObjects) {
  Rng rng(11);
  for (std::size_t dim : {0u, 1u, 2u, 5u, 8u, 20u, 33u, 300u}) {
    std::vector<double> a(dim), b(dim);
    FillValues(rng, a.data(), dim);
    FillValues(rng, b.data(), dim);
    ExpectBitsEqual(metric::L1()(a, b), L1Pair(a.data(), b.data(), dim),
                    "L1 dim=" + std::to_string(dim));
    ExpectBitsEqual(metric::L2()(a, b), L2Pair(a.data(), b.data(), dim),
                    "L2 dim=" + std::to_string(dim));
    ExpectBitsEqual(metric::LInf()(a, b), LInfPair(a.data(), b.data(), dim),
                    "LInf dim=" + std::to_string(dim));
    // And Lp at p=1 / p=2 (the integer-exponent fast path) agrees too.
    ExpectBitsEqual(metric::Lp(1.0)(a, b), L1Pair(a.data(), b.data(), dim),
                    "Lp(1) dim=" + std::to_string(dim));
    ExpectBitsEqual(metric::Lp(2.0)(a, b), L2Pair(a.data(), b.data(), dim),
                    "Lp(2) dim=" + std::to_string(dim));
  }
}

}  // namespace
}  // namespace mvp::metric::kernels
