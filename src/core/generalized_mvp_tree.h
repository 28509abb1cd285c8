#ifndef MVPTREE_CORE_GENERALIZED_MVP_TREE_H_
#define MVPTREE_CORE_GENERALIZED_MVP_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/node_tree.h"
#include "metric/metric.h"
#include "vptree/vp_select.h"

/// \file
/// The §4.2 generalization the paper sketches but does not evaluate: "The
/// mvp-tree construction can be modified easily so that more than 2 vantage
/// points can be kept in one node. Also, higher fanouts at the internal
/// nodes are also possible, and may be more favorable in most cases."
///
/// GeneralizedMvpTree keeps `v` vantage points per node (fanout m^v). v = 2
/// recovers the paper's mvp-tree (construction order of vantage points
/// differs slightly: here every subsequent vantage point is the farthest
/// point from the previous one, the rule §4.2 justifies for leaves). v = 1
/// is an m-way vp-tree *plus* the mvp-tree's stored leaf distances — the
/// configuration that isolates Observation 2 (pre-computed distances) from
/// Observation 1 (shared vantage points); bench/abl_vps_per_node uses it.
///
/// The canonical, paper-exact structure remains core::MvpTree; this class
/// exists for the v sweep and mirrors its API (range, k-NN, stats). It only
/// builds: its nodes live in core::NodeTree (core/node_tree.h), the store it
/// shares with the vp-tree, whose searches are the one mvp-tree traversal
/// (core/search_shared.h), so range and k-NN prune exactly as the mvp-tree
/// does, with v levels of shells where the mvp-tree has two.

namespace mvp::core {

template <typename Object, metric::MetricFor<Object> Metric>
class GeneralizedMvpTree : public NodeTree<Object, Metric> {
  using Store = NodeTree<Object, Metric>;
  using typename Store::Node;

 public:
  struct Options {
    int order = 3;             ///< m: partitions per vantage point
    int vantage_points = 2;    ///< v: vantage points per node (fanout m^v)
    int leaf_capacity = 80;    ///< k
    int num_path_distances = 5;///< p
    vptree::VpSelectOptions selection;  ///< first-vantage-point picker
    std::uint64_t seed = 0;
  };

  static Result<GeneralizedMvpTree> Build(std::vector<Object> objects,
                                          Metric metric,
                                          const Options& options = Options{}) {
    if (options.order < 2) {
      return Status::InvalidArgument("order (m) must be >= 2");
    }
    if (options.vantage_points < 1 ||
        options.vantage_points > static_cast<int>(kMaxVantagePoints)) {
      return Status::InvalidArgument("vantage points per node must be 1..8");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("leaf capacity (k) must be >= 1");
    }
    if (options.num_path_distances < 0) {
      return Status::InvalidArgument("path distances (p) must be >= 0");
    }
    const double fanout = std::pow(options.order, options.vantage_points);
    if (fanout > 4096) {
      return Status::InvalidArgument("fanout m^v too large (> 4096)");
    }
    GeneralizedMvpTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

  const Options& options() const { return options_; }

 private:
  /// Construction working entry: distances to the current node's vantage
  /// points plus the accumulated PATH.
  struct Entry {
    std::size_t id = 0;
    std::vector<double> dists;  // size v while partitioning a node
    std::vector<double> path;
  };

  GeneralizedMvpTree(std::vector<Object> objects, Metric metric,
                     const Options& options)
      : Store(std::move(objects), std::move(metric),
              static_cast<std::size_t>(options.order),
              static_cast<std::size_t>(options.vantage_points),
              static_cast<std::size_t>(options.num_path_distances)),
        options_(options) {}

  double Distance(const Object& a, const Object& b) {
    ++this->construction_distances_;
    return this->metric_(a, b);
  }

  void BuildTree() {
    Rng rng(options_.seed);
    std::vector<Entry> entries(this->size());
    for (std::size_t i = 0; i < entries.size(); ++i) entries[i].id = i;
    this->root_ = BuildNode(entries, 0, entries.size(), rng);
  }

  std::unique_ptr<Node> BuildNode(std::vector<Entry>& entries,
                                  std::size_t begin, std::size_t end,
                                  Rng& rng) {
    if (begin == end) return nullptr;
    const std::size_t count = end - begin;
    const std::size_t v = static_cast<std::size_t>(options_.vantage_points);
    const std::size_t m = static_cast<std::size_t>(options_.order);
    const std::size_t p =
        static_cast<std::size_t>(options_.num_path_distances);

    auto node = this->NewNode();

    // --- choose vantage points: first by the selection strategy, each
    // subsequent one the farthest point from the previous (the §4.2 rule).
    // Chosen points are swapped to the front [begin, begin+v').
    const std::size_t num_vps = std::min(v, count);
    for (std::size_t l = 0; l < num_vps; ++l) {
      const std::size_t range_begin = begin + l;
      std::size_t pick = range_begin;
      if (l == 0) {
        pick = vptree::SelectVantagePoint(
            range_begin, end,
            [&](std::size_t i) -> const Object& {
              return this->object(entries[i].id);
            },
            this->metric_, rng, options_.selection,
            &this->construction_distances_);
      } else {
        // Farthest from the previous vantage point; distances to the
        // previous vp were just computed into dists[l-1].
        for (std::size_t i = range_begin + 1; i < end; ++i) {
          if (entries[i].dists[l - 1] > entries[pick].dists[l - 1]) pick = i;
        }
      }
      std::swap(entries[range_begin], entries[pick]);
      node->vp_ids.push_back(entries[range_begin].id);
      // Distances from this vantage point to every remaining point.
      const Object& vp = this->object(node->vp_ids.back());
      for (std::size_t i = range_begin + 1; i < end; ++i) {
        if (entries[i].dists.size() <= l) entries[i].dists.resize(num_vps);
        entries[i].dists[l] = Distance(vp, this->object(entries[i].id));
      }
    }

    const std::size_t data_begin = begin + num_vps;
    if (count <= static_cast<std::size_t>(options_.leaf_capacity) + v) {
      // --- leaf: store exact distances to the leaf's vantage points.
      node->is_leaf = true;
      for (std::size_t i = data_begin; i < end; ++i) {
        this->AddLeafEntry(*node, entries[i].id,
                           std::span(entries[i].dists).first(num_vps),
                           entries[i].path);
      }
      return node;
    }

    // --- internal: extend PATH, then partition recursively per level.
    for (std::size_t i = data_begin; i < end; ++i) {
      for (std::size_t l = 0; l < num_vps && entries[i].path.size() < p; ++l) {
        entries[i].path.push_back(entries[i].dists[l]);
      }
    }
    node->lower.resize(v);
    node->upper.resize(v);
    std::size_t width = 1;
    for (std::size_t l = 0; l < v; ++l) {
      width *= m;
      node->lower[l].assign(width, 0.0);
      node->upper[l].assign(width, std::numeric_limits<double>::infinity());
    }
    node->children.resize(width);  // width == m^v here
    Partition(entries, data_begin, end, 0, 0, *node, rng);
    return node;
  }

  /// Splits [b, e) on distance level `l` into m groups, records the shell
  /// bounds at partition prefix `prefix`, and recurses to level l+1; at
  /// l == v the group becomes child subtree `prefix`.
  void Partition(std::vector<Entry>& entries, std::size_t b, std::size_t e,
                 std::size_t l, std::size_t prefix, Node& node, Rng& rng) {
    const std::size_t v = static_cast<std::size_t>(options_.vantage_points);
    const std::size_t m = static_cast<std::size_t>(options_.order);
    if (l == v) {
      node.children[prefix] = BuildNode(entries, b, e, rng);
      return;
    }
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(b),
              entries.begin() + static_cast<std::ptrdiff_t>(e),
              [l](const Entry& x, const Entry& y) {
                return x.dists[l] < y.dists[l];
              });
    const std::size_t points = e - b;
    double prev_cutoff = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t sb = b + points * s / m;
      const std::size_t se = b + points * (s + 1) / m;
      const std::size_t idx = prefix * m + s;
      if (sb < se) {
        // Paper-style cutoff bounds: previous sibling's max below, own max
        // above, open at the ends.
        node.lower[l][idx] = s == 0 ? 0.0 : prev_cutoff;
        node.upper[l][idx] = s + 1 == m
                                 ? std::numeric_limits<double>::infinity()
                                 : entries[se - 1].dists[l];
        prev_cutoff = entries[se - 1].dists[l];
      }
      Partition(entries, sb, se, l + 1, idx, node, rng);
    }
  }

  Options options_;
};

}  // namespace mvp::core

#endif  // MVPTREE_CORE_GENERALIZED_MVP_TREE_H_
