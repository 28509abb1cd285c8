// Extension benchmark: SIMD distance-kernel throughput (metric/kernels).
//
// Measures one query against a contiguous object slab (leaf sweeps) and the
// AnnulusMask leaf-filter primitive in the shape a range search runs it (D1,
// D2 and five PATH columns per 64-entry chunk), for every kernel tier
// compiled into and supported by this binary. Every tier's outputs are
// byte-compared against the scalar reference: the speedup numbers are only
// meaningful because the results are bit-identical, and the binary exits
// nonzero if they are not.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "dataset/vector_gen.h"
#include "metric/kernels/kernels.h"

namespace mvp::bench {
namespace {

namespace kernels = mvp::metric::kernels;

constexpr int kReps = 3;  // best-of, same convention as ext_snapshot

double SecondsOf(const std::chrono::steady_clock::time_point start,
                 const std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

/// Runs `body` kReps times and returns the fastest wall-clock seconds.
template <typename Fn>
double BestOf(Fn&& body) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double s = SecondsOf(start, stop);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

const char* FamilyLabel(kernels::Family family) {
  switch (family) {
    case kernels::Family::kL1:
      return "L1";
    case kernels::Family::kL2:
      return "L2";
    default:
      return "Linf";
  }
}

int Run() {
  const auto scale = VectorScale::Get();
  const std::size_t count = scale.count;
  const std::size_t dim = scale.dim;
  const std::size_t num_queries = QuickMode() ? 512 : 4096;
  const std::size_t sweeps = QuickMode() ? 4 : 16;

  harness::PrintFigureHeader(
      std::cout, "Extension: SIMD kernels",
      "distance-kernel throughput per dispatch tier, bit-identical to scalar",
      std::to_string(count) + " uniform " + std::to_string(dim) +
          "-d vectors in [0,1]^d, " + std::to_string(num_queries) +
          " queries, best of " + std::to_string(kReps) + " reps" +
          (QuickMode() ? " (quick mode)" : ""));

  // One contiguous row-major slab of objects (the v2 leaf layout) and the
  // queries swept against it in turn.
  const auto data = dataset::UniformVectors(count, dim, 4242);
  std::vector<double> slab(count * dim);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(slab.data() + i * dim, data[i].data(), dim * sizeof(double));
  }
  // The one->many shape models a leaf sweep, and leaf slabs are small and
  // cache-resident — sweep a leaf-sized block repeatedly rather than
  // streaming the full slab (which measures DRAM bandwidth, not the kernel).
  const std::size_t block = count < 4096 ? count : 4096;
  const std::size_t o2m_iters = sweeps * (count / block);
  const auto query_vecs = dataset::UniformQueryVectors(num_queries, dim, 777);
  std::vector<const double*> queries(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    queries[q] = query_vecs[q].data();
  }

  std::vector<kernels::Tier> tiers;
  for (int t = 0; t < kernels::kTierCount; ++t) {
    const auto tier = static_cast<kernels::Tier>(t);
    if (kernels::TierSupported(tier)) tiers.push_back(tier);
  }

  const std::array<kernels::Family, kernels::kFamilyCount> families = {
      kernels::Family::kL1, kernels::Family::kL2, kernels::Family::kLInf};

  harness::Table table({"metric", "tier", "1->many Mdist/s", "speedup",
                        "bit-identical"});
  bool all_match = true;
  // Min over families of the best SIMD tier's speedup.
  double min_o2m_speedup = 0.0;

  std::vector<double> scalar_o2m(count), out_o2m(count);
  for (const auto family : families) {
    double scalar_o2m_s = 0.0;
    double best_o2m = 0.0;
    for (const auto tier : tiers) {
      if (!kernels::ForceTier(kernels::TierName(tier)).ok()) {
        all_match = false;
        continue;
      }
      const double o2m_s = BestOf([&] {
        for (std::size_t s = 0; s < o2m_iters; ++s) {
          kernels::OneToMany(family, queries[s % num_queries], slab.data(),
                             block, dim, dim, out_o2m.data());
        }
      });
      bool match = true;
      if (tier == kernels::Tier::kScalar) {
        scalar_o2m_s = o2m_s;
        scalar_o2m = out_o2m;
      } else {
        match = std::memcmp(scalar_o2m.data(), out_o2m.data(),
                            block * sizeof(double)) == 0;
        if (!match) all_match = false;
        if (scalar_o2m_s / o2m_s > best_o2m) best_o2m = scalar_o2m_s / o2m_s;
      }
      const double o2m_rate =
          static_cast<double>(o2m_iters * block) / o2m_s / 1e6;
      table.AddRow({FamilyLabel(family), kernels::TierName(tier),
                    harness::FormatDouble(o2m_rate, 1),
                    tier == kernels::Tier::kScalar
                        ? std::string("1.0")
                        : harness::FormatDouble(scalar_o2m_s / o2m_s, 1),
                    match ? "yes" : "NO (BUG)"});
    }
    if (tiers.size() > 1 &&
        (min_o2m_speedup == 0.0 || best_o2m < min_o2m_speedup)) {
      min_o2m_speedup = best_o2m;
    }
  }

  // AnnulusMask: a range search's leaf filter tests each 64-entry chunk
  // against the leaf's D1, D2 and PATH columns in one call — here a leaf of
  // `count` entries with p = 5, its columns laid out column-major like a
  // leaf's PATH slab, each column against [d(q,vp) - r, d(q,vp) + r].
  constexpr std::size_t kMaskColumns = 2 + 5;
  constexpr std::size_t kChunk = kernels::kAnnulusMaskMaxCount;
  const std::size_t chunks = count / kChunk;
  std::vector<float> leaf_columns(kMaskColumns * count);
  for (std::size_t i = 0; i < leaf_columns.size(); ++i) {
    leaf_columns[i] = kernels::NarrowDistance(slab[i % slab.size()]);
  }
  const std::array<double, kMaskColumns> centers = {0.5, 0.5, 0.5, 0.5,
                                                    0.5, 0.5, 0.5};
  std::array<double, kMaskColumns> radii{};
  for (std::size_t k = 0; k < kMaskColumns; ++k) {
    radii[k] = kernels::ColumnRadius(centers[k], 0.45);
  }
  std::vector<std::array<const float*, kMaskColumns>> chunk_columns(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t k = 0; k < kMaskColumns; ++k) {
      chunk_columns[c][k] = leaf_columns.data() + k * count + c * kChunk;
    }
  }
  harness::Table mask_table(
      {"tier", "leaf-filter Melem/s", "speedup", "bit-identical"});
  std::vector<std::uint64_t> scalar_masks(chunks), masks(chunks);
  double scalar_mask_s = 0.0;
  double mask_speedup = 0.0;
  for (const auto tier : tiers) {
    if (!kernels::ForceTier(kernels::TierName(tier)).ok()) {
      all_match = false;
      continue;
    }
    const double mask_s = BestOf([&] {
      for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t c = 0; c < chunks; ++c) {
          masks[c] = kernels::AnnulusMask(centers.data(), radii.data(),
                                          chunk_columns[c].data(),
                                          kMaskColumns, kChunk);
        }
      }
    });
    bool match = true;
    if (tier == kernels::Tier::kScalar) {
      scalar_mask_s = mask_s;
      scalar_masks = masks;
    } else {
      match = scalar_masks == masks;
      if (!match) all_match = false;
      const double speedup = scalar_mask_s / mask_s;
      if (speedup > mask_speedup) mask_speedup = speedup;
    }
    const double rate =
        static_cast<double>(sweeps * chunks * kChunk) /
        mask_s / 1e6;
    mask_table.AddRow({kernels::TierName(tier), harness::FormatDouble(rate, 1),
                       tier == kernels::Tier::kScalar
                           ? std::string("1.0")
                           : harness::FormatDouble(scalar_mask_s / mask_s, 1),
                       match ? "yes" : "NO (BUG)"});
  }
  // Leave the process-wide dispatch as it was found.
  (void)kernels::ForceTier("auto");  // not a status to act on: reset

  std::cout << table.ToText();
  std::cout << mask_table.ToText();
  std::printf("all tiers bit-identical to scalar: %s\n",
              all_match ? "yes" : "NO (BUG)");
  if (tiers.size() > 1) {
    std::printf("best SIMD speedup, min across metrics: one->many %.1fx, "
                "leaf filter %.1fx\n",
                min_o2m_speedup, mask_speedup);
  } else {
    std::printf("no SIMD tier available on this host; scalar only\n");
  }
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace mvp::bench

int main() { return mvp::bench::Run(); }
