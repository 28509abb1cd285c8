#ifndef MVPTREE_VPTREE_VP_SELECT_H_
#define MVPTREE_VPTREE_VP_SELECT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"

/// \file
/// Vantage-point selection strategies, shared by vp-trees and mvp-trees.
///
/// The paper picks vantage points randomly (its experiments average over 4
/// random seeds) and notes that "any optimization technique (such as a
/// heuristic to chose the best vantage point) for vp-trees can also be
/// applied to the mvp-trees" (§4.2). The max-spread heuristic of [Yia93] is
/// provided as that optimization: sample a few candidates, estimate each
/// candidate's distance spread against a random subset, keep the widest.

namespace mvp::vptree {

/// Which vantage-point picker a tree uses.
enum class VpSelection {
  kRandom,     ///< uniform random data point (the paper's default)
  kMaxSpread,  ///< [Yia93]: candidate with maximal distance variance
};

/// Tuning for kMaxSpread (ignored by kRandom).
struct VpSelectOptions {
  VpSelection strategy = VpSelection::kRandom;
  std::size_t candidates = 8;  ///< sampled candidate vantage points
  std::size_t sample = 24;     ///< sampled points to estimate spread against
};

/// Picks a vantage point among positions [begin, end) of a working array.
/// `object_at(i)` must return the object at position i, by reference or
/// as a view (a vector tree's metric::VectorView rows);
/// `metric` the distance function. Distance computations performed by the
/// heuristic are added to *distance_count. Returns the chosen position.
template <typename ObjectAt, typename Metric>
std::size_t SelectVantagePoint(std::size_t begin, std::size_t end,
                               const ObjectAt& object_at, const Metric& metric,
                               Rng& rng, const VpSelectOptions& options,
                               std::uint64_t* distance_count) {
  MVP_DCHECK(begin < end);
  const std::size_t count = end - begin;
  if (options.strategy == VpSelection::kRandom || count <= 2) {
    return begin + rng.NextIndex(count);
  }

  // [Yia93]-style: evaluate `candidates` random positions against `sample`
  // random positions; spread = second moment about the median distance.
  const std::size_t num_candidates = std::min(options.candidates, count);
  const std::size_t num_samples = std::min(options.sample, count);
  std::vector<std::size_t> candidates = rng.SampleIndices(count, num_candidates);
  std::vector<std::size_t> sample = rng.SampleIndices(count, num_samples);

  std::size_t best_pos = begin + candidates[0];
  double best_spread = -1.0;
  std::vector<double> dists(sample.size());
  for (const std::size_t cand_off : candidates) {
    const std::size_t cand = begin + cand_off;
    for (std::size_t s = 0; s < sample.size(); ++s) {
      dists[s] = metric(object_at(cand), object_at(begin + sample[s]));
    }
    if (distance_count != nullptr) *distance_count += sample.size();
    // Median via nth_element, then the second moment about it.
    std::vector<double> sorted = dists;
    const std::size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                     sorted.end());
    const double median = sorted[mid];
    double spread = 0.0;
    for (const double d : dists) spread += (d - median) * (d - median);
    if (spread > best_spread) {
      best_spread = spread;
      best_pos = cand;
    }
  }
  return best_pos;
}

}  // namespace mvp::vptree

#endif  // MVPTREE_VPTREE_VP_SELECT_H_
