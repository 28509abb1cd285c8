// Extension: budgeted (approximate) k-NN. For expensive metrics the
// natural production knob is "spend at most B distance computations and
// return the best found". Because the mvp-tree orders children by distance
// lower bound and pre-filters leaf candidates through stored distances,
// recall climbs steeply with the budget. This bench prints the recall@10
// curve vs budget on the clustered-vector workload (where near neighbors
// are meaningful) together with the exact search's cost for reference.
//
// Queries run the served way: serve::RunBatch over a one-shard
// ShardedMvpIndex with a per-query max_distance_computations. The metric's
// cancellation point checks the budget every 64 evaluations, so every
// budget is a multiple of 64; at those budgets the served k-NN equals
// MvpTree::KnnSearchApproximate, as
// MvpTreeTest.ApproximateKnnMatchesServedBudget pins.

#include <cstdio>
#include <iostream>

#include "bench/figure_common.h"
#include "common/rng.h"
#include "dataset/vector_gen.h"
#include "metric/lp.h"
#include "serve/executor.h"
#include "serve/sharded_index.h"

namespace mvp::bench {
namespace {

using metric::L2;
using metric::Vector;
using Index = serve::ShardedMvpIndex<Vector, L2>;

int Run() {
  const std::size_t n = QuickMode() ? 5000 : 50000;
  harness::PrintFigureHeader(
      std::cout, "Extension: budgeted approximate k-NN",
      "recall@10 vs distance-computation budget, mvpt(3,80,p=5), served",
      std::to_string(n) + " clustered 20-d vectors (cluster 1000, eps=0.15),"
                          " 50 cluster-member queries");

  dataset::ClusterParams params;
  params.count = n;
  params.dim = 20;
  params.cluster_size = QuickMode() ? 100 : 1000;
  const auto data = dataset::ClusteredVectors(params, 4242);

  Index::Options options;
  options.num_shards = 1;
  options.tree.order = 3;
  options.tree.leaf_capacity = 80;
  options.tree.num_path_distances = 5;
  const auto index = Index::Build(data, L2(), options).ValueOrDie();

  // Cluster-member queries: perturbed copies of random data points.
  Rng rng(777);
  std::vector<Vector> queries;
  for (int i = 0; i < 50; ++i) {
    Vector q = data[rng.NextIndex(data.size())];
    for (auto& x : q) x += rng.Uniform(-0.05, 0.05);
    queries.push_back(std::move(q));
  }

  // One serial batch of 10-NN queries; budget 0 means unlimited.
  const auto run = [&](std::uint64_t budget) {
    std::vector<serve::BatchQuery<Vector>> batch(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      batch[i].kind = serve::BatchQuery<Vector>::Kind::kKnn;
      batch[i].object = queries[i];
      batch[i].k = 10;
      batch[i].max_distance_computations = budget;
    }
    return serve::RunBatch(index, batch, /*pool=*/nullptr);
  };

  // Exact reference + exact cost.
  const auto exact = run(0);
  double exact_cost = 0;
  for (const auto& out : exact) {
    exact_cost += static_cast<double>(out.distance_computations);
  }
  exact_cost /= static_cast<double>(queries.size());

  std::printf("%10s  %10s  %10s\n", "budget", "recall@10", "avg dists");
  for (std::uint64_t budget = 64; budget <= 64 * 128; budget *= 2) {
    double hits = 0, cost = 0;
    const auto approx = run(budget);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      cost += static_cast<double>(approx[qi].distance_computations);
      for (const auto& a : approx[qi].neighbors) {
        for (const auto& e : exact[qi].neighbors) hits += a.id == e.id ? 1 : 0;
      }
    }
    std::printf("%10llu  %10.3f  %10.1f\n",
                static_cast<unsigned long long>(budget),
                hits / (10.0 * static_cast<double>(queries.size())),
                cost / static_cast<double>(queries.size()));
  }
  std::printf("exact search: recall 1.000 at avg %.1f distance computations\n",
              exact_cost);
  std::cout <<
      "expected: recall climbs monotonically with the budget (the\n"
      "best-bound-first traversal finds the home cluster early, then\n"
      "spends the rest confirming), reaching ~0.9+ at roughly half the\n"
      "exact search's cost — a smooth recall/cost trade-off curve.\n";
  return 0;
}

}  // namespace
}  // namespace mvp::bench

int main() { return mvp::bench::Run(); }
