#ifndef MVPTREE_METRIC_LP_H_
#define MVPTREE_METRIC_LP_H_

#include <cmath>
#include <concepts>
#include <cstddef>
#include <vector>

#include "common/macros.h"
#include "metric/kernels/kernels.h"

/// \file
/// Minkowski (Lp) metrics on dense real vectors — the distance family used
/// throughout the paper's vector experiments (§5.1.A uses L2; §5.1.B notes
/// "Any Lp metric can be used just like L1 or L2", including a per-dimension
/// weighted variant, which "can be easily shown to be metric").
///
/// All metrics operate on dense real vectors and require equal dimensions
/// (checked with MVP_DCHECK — mixing dimensions is a programming error).
/// Each operator() is a template over two vector-like arguments (anything
/// with size() and operator[]), so the same metric — and the same floating
/// point expression, hence bit-identical distances — applies to an owned
/// std::vector<double> and to a VectorView, the zero-copy row a vector
/// mvp-tree's slab (core/mvp_tree.h) or a mapped flat arena
/// (snapshot/flat_tree.h) hands out. A concrete (Vector, Vector) overload
/// delegates to the template so braced-initializer calls like
/// d({0, 1}, {1, 0}) still deduce.

namespace mvp::metric {

using Vector = std::vector<double>;

/// Zero-copy view of one stored row of doubles: a row of a vector
/// mvp-tree's slab or of a flat arena's objects section. Duck-compatible
/// with Vector for the metrics' templated operator(), so d(query, stored)
/// runs on the stored bytes with no materialization; the explicit
/// conversion makes an owned copy.
class VectorView {
 public:
  VectorView(const double* data, std::size_t dim) : data_(data), dim_(dim) {}
  std::size_t size() const { return dim_; }
  double operator[](std::size_t i) const { return data_[i]; }
  const double* data() const { return data_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + dim_; }
  explicit operator Vector() const { return Vector(data_, data_ + dim_); }

 private:
  const double* data_;
  std::size_t dim_;
};

/// A metric a vector mvp-tree can evaluate over its stored rows: an owned
/// query against a row (searches) and a row against a row (construction
/// and validation). The bundled Lp metrics, and the counting and
/// cancellation wrappers of them, qualify.
template <typename M>
concept RowMetric = requires(const M& m, const Vector& v, const VectorView& r) {
  { m(v, r) } -> std::convertible_to<double>;
  { m(r, r) } -> std::convertible_to<double>;
};

namespace internal {

/// Vector-like types exposing contiguous double storage (std::vector<double>,
/// VectorView, std::array<double, N>, ...). Pairs of these
/// delegate to the out-of-line scalar kernels in metric/kernels/ — the
/// canonical reference compiled with -ffp-contract=off, so the result is
/// bit-identical on every architecture. Non-contiguous argument types keep
/// the inline loop, which evaluates the same expression in the same order.
template <typename T>
concept DenseDoubleRange = requires(const T& t) {
  { t.data() } -> std::convertible_to<const double*>;
  { t.size() } -> std::convertible_to<std::size_t>;
};

/// Returns p as an int when it is a small integral value (the exponents the
/// fast paths cover), else 0.
inline int IntegralExponent(double p) {
  constexpr double kMaxFastExponent = 64.0;
  if (p < 1.0 || p > kMaxFastExponent) return 0;
  const int ip = static_cast<int>(p);
  return static_cast<double>(ip) == p ? ip : 0;
}

/// x^n for n >= 1 by a left-to-right multiply chain (x*x*x*... in order, so
/// the result is deterministic across platforms; not correctly rounded for
/// n >= 3, which only affects exponents with no bit-identity pin).
inline double PowInt(double x, int n) {
  double r = x;
  for (int i = 1; i < n; ++i) r *= x;
  return r;
}

}  // namespace internal

/// L2 (Euclidean) distance.
struct L2 {
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    MVP_DCHECK(a.size() == b.size());
    if constexpr (internal::DenseDoubleRange<A> &&
                  internal::DenseDoubleRange<B>) {
      return kernels::L2Pair(a.data(), b.data(), a.size());
    } else {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = a[i] - b[i];
        sum += diff * diff;
      }
      return std::sqrt(sum);
    }
  }
  double operator()(const Vector& a, const Vector& b) const {
    return operator()<Vector, Vector>(a, b);
  }
};

/// L1 (Manhattan) distance: accumulated absolute differences per dimension.
struct L1 {
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    MVP_DCHECK(a.size() == b.size());
    if constexpr (internal::DenseDoubleRange<A> &&
                  internal::DenseDoubleRange<B>) {
      return kernels::L1Pair(a.data(), b.data(), a.size());
    } else {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::fabs(a[i] - b[i]);
      }
      return sum;
    }
  }
  double operator()(const Vector& a, const Vector& b) const {
    return operator()<Vector, Vector>(a, b);
  }
};

/// L-infinity (Chebyshev) distance: the limit of Lp as p -> inf.
struct LInf {
  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    MVP_DCHECK(a.size() == b.size());
    if constexpr (internal::DenseDoubleRange<A> &&
                  internal::DenseDoubleRange<B>) {
      return kernels::LInfPair(a.data(), b.data(), a.size());
    } else {
      double best = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = std::fabs(a[i] - b[i]);
        if (diff > best) best = diff;
      }
      return best;
    }
  }
  double operator()(const Vector& a, const Vector& b) const {
    return operator()<Vector, Vector>(a, b);
  }
};

/// General Lp distance for p >= 1 (p < 1 does not satisfy the triangle
/// inequality and is rejected).
class Lp {
 public:
  explicit Lp(double p) : p_(p), int_p_(internal::IntegralExponent(p)) {
    MVP_DCHECK(p >= 1.0);
  }

  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    MVP_DCHECK(a.size() == b.size());
    // Integer-exponent fast path: std::pow per element is ~100x the cost of
    // a multiply chain. p=1 and p=2 are bit-identical to the generic
    // expression (and to metric::L1/L2): glibc pow is correctly rounded, so
    // pow(x, 1.0) == x, pow(x, 2.0) == x*x and pow(s, 0.5) == sqrt(s).
    if (int_p_ == 1) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::fabs(a[i] - b[i]);
      }
      return sum;
    }
    if (int_p_ == 2) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = std::fabs(a[i] - b[i]);
        sum += diff * diff;
      }
      return std::sqrt(sum);
    }
    if (int_p_ > 2) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += internal::PowInt(std::fabs(a[i] - b[i]), int_p_);
      }
      return std::pow(sum, 1.0 / p_);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum += std::pow(std::fabs(a[i] - b[i]), p_);
    }
    return std::pow(sum, 1.0 / p_);
  }
  double operator()(const Vector& a, const Vector& b) const {
    return operator()<Vector, Vector>(a, b);
  }

  double p() const { return p_; }

 private:
  double p_;
  int int_p_;
};

/// Weighted Lp: each dimension's difference is scaled by a non-negative
/// weight before accumulation (the paper suggests weighting pixel positions
/// to emphasize image regions, §5.1.B). Metric for any weights >= 0.
class WeightedLp {
 public:
  WeightedLp(double p, Vector weights)
      : p_(p),
        int_p_(internal::IntegralExponent(p)),
        weights_(std::move(weights)) {
    MVP_DCHECK(p >= 1.0);
#ifndef NDEBUG
    for (double w : weights_) MVP_DCHECK(w >= 0.0);
#endif
  }

  template <typename A, typename B>
  double operator()(const A& a, const B& b) const {
    MVP_DCHECK(a.size() == b.size());
    MVP_DCHECK(a.size() == weights_.size());
    // Same integer-exponent fast path as Lp; p=1 and p=2 stay bit-identical
    // to the generic std::pow expression.
    if (int_p_ == 1) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += weights_[i] * std::fabs(a[i] - b[i]);
      }
      return sum;
    }
    if (int_p_ == 2) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double term = weights_[i] * std::fabs(a[i] - b[i]);
        sum += term * term;
      }
      return std::sqrt(sum);
    }
    if (int_p_ > 2) {
      double sum = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        sum += internal::PowInt(weights_[i] * std::fabs(a[i] - b[i]), int_p_);
      }
      return std::pow(sum, 1.0 / p_);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum += std::pow(weights_[i] * std::fabs(a[i] - b[i]), p_);
    }
    return std::pow(sum, 1.0 / p_);
  }
  double operator()(const Vector& a, const Vector& b) const {
    return operator()<Vector, Vector>(a, b);
  }

  const Vector& weights() const { return weights_; }

 private:
  double p_;
  int int_p_;
  Vector weights_;
};

/// Batch-kernel families for the dense Minkowski metrics (the primary
/// template in metric/kernels/kernels.h marks everything else unavailable).
template <>
struct kernels::FamilyFor<L1> {
  static constexpr bool available = true;
  static constexpr kernels::Family family = kernels::Family::kL1;
};
template <>
struct kernels::FamilyFor<L2> {
  static constexpr bool available = true;
  static constexpr kernels::Family family = kernels::Family::kL2;
};
template <>
struct kernels::FamilyFor<LInf> {
  static constexpr bool available = true;
  static constexpr kernels::Family family = kernels::Family::kLInf;
};

}  // namespace mvp::metric

#endif  // MVPTREE_METRIC_LP_H_
