#ifndef MVPTREE_VPTREE_VP_TREE_H_
#define MVPTREE_VPTREE_VP_TREE_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/node_tree.h"
#include "metric/metric.h"
#include "vptree/vp_select.h"

/// \file
/// The vantage-point tree [Uhl91, Yia93] — the paper's comparison baseline
/// (§3.3). Every node holds one vantage point chosen among the node's data
/// points; the remaining points are ordered by distance to it and split into
/// `order` groups of equal cardinality at m-1 cutoff values ("spherical
/// cuts"); each group is indexed by a child subtree built the same way.
/// Range search prunes a child whenever the triangle inequality proves the
/// query ball cannot intersect the child's shell (Appendix of the paper).
///
/// The vp-tree deliberately does NOT reuse vantage points across siblings
/// and does NOT retain construction-time distances in its leaves — the two
/// costs the mvp-tree (core/mvp_tree.h) removes.
///
/// The class only builds. Its nodes live in core::NodeTree
/// (core/node_tree.h), the store it shares with GeneralizedMvpTree: an
/// internal node is a store node with one vantage point and one shell
/// level, a leaf a bucket with no vantage point and no PATH (p = 0), which
/// the one mvp-tree traversal (core/search_shared.h) evaluates whole. So
/// range and k-NN search, SearchStats and TreeStats are the traversal's.

namespace mvp::vptree {

template <typename Object, metric::MetricFor<Object> Metric>
class VpTree : public core::NodeTree<Object, Metric> {
  using Store = core::NodeTree<Object, Metric>;
  using typename Store::Node;

 public:
  /// Construction parameters.
  struct Options {
    /// Branching factor m ("the order of the tree corresponds to the number
    /// of partitions", §1). Paper experiments use 2 and 3.
    int order = 2;
    /// Data points per leaf bucket. The paper's vp-tree keeps individual
    /// data-point references in leaves; 1 reproduces that exactly.
    int leaf_capacity = 1;
    /// Vantage-point picker (paper default: random).
    VpSelectOptions selection;
    /// Seed for the random choices ("a different seed ... is used in each
    /// run", §5.2).
    std::uint64_t seed = 0;
    /// Ablation: store exact per-child [min,max] distance bounds instead of
    /// deriving the lower bound from the previous child's cutoff.
    bool store_exact_bounds = false;
  };

  /// Builds a vp-tree over `objects` (ids = positions in the input vector).
  /// Fails with InvalidArgument on bad options. An empty input is valid.
  static Result<VpTree> Build(std::vector<Object> objects, Metric metric,
                              const Options& options = Options{}) {
    if (options.order < 2) {
      return Status::InvalidArgument("vp-tree order must be >= 2");
    }
    if (options.leaf_capacity < 1) {
      return Status::InvalidArgument("vp-tree leaf capacity must be >= 1");
    }
    VpTree tree(std::move(objects), std::move(metric), options);
    tree.BuildTree();
    return tree;
  }

 private:
  /// Construction working entry: a data point plus its distance to the
  /// current vantage point.
  struct Entry {
    std::size_t id;
    double dist;
  };

  VpTree(std::vector<Object> objects, Metric metric, const Options& options)
      : Store(std::move(objects), std::move(metric),
              static_cast<std::size_t>(options.order), 1, 0),
        options_(options) {}

  void BuildTree() {
    Rng rng(options_.seed);
    std::vector<Entry> entries(this->size());
    for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = Entry{i, 0.0};
    this->root_ = BuildNode(entries, 0, entries.size(), rng);
  }

  std::unique_ptr<Node> BuildNode(std::vector<Entry>& entries,
                                  std::size_t begin, std::size_t end,
                                  Rng& rng) {
    if (begin == end) return nullptr;
    const std::size_t count = end - begin;
    auto node = this->NewNode();
    if (count <= static_cast<std::size_t>(options_.leaf_capacity)) {
      // A bucket: no vantage point, no stored distances, no PATH.
      node->is_leaf = true;
      for (std::size_t i = begin; i < end; ++i) {
        this->AddLeafEntry(*node, entries[i].id, {}, {});
      }
      return node;
    }

    // Pick the vantage point among this node's points and move it out of
    // the working range.
    const std::size_t vp_pos = SelectVantagePoint(
        begin, end,
        [&](std::size_t i) -> const Object& {
          return this->object(entries[i].id);
        },
        this->metric_, rng, options_.selection,
        &this->construction_distances_);
    std::swap(entries[begin], entries[vp_pos]);
    node->vp_ids.push_back(entries[begin].id);
    const Object& vp = this->object(entries[begin].id);

    // "the distances of this vantage point from all other points ... are
    // computed. Then, these points are sorted ... with respect to their
    // distances from the vantage point" (§1).
    for (std::size_t i = begin + 1; i < end; ++i) {
      entries[i].dist = this->metric_(vp, this->object(entries[i].id));
    }
    this->construction_distances_ += count - 1;
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(begin) + 1,
              entries.begin() + static_cast<std::ptrdiff_t>(end),
              [](const Entry& a, const Entry& b) { return a.dist < b.dist; });

    // Positional split into `order` groups of equal cardinality.
    const std::size_t m = static_cast<std::size_t>(options_.order);
    const std::size_t points = count - 1;
    const std::size_t first = begin + 1;
    node->children.resize(m);
    // One shell level: child c's shell around the vantage point is
    // [lower[c], upper[c]].
    node->lower.assign(1, std::vector<double>(m, 0.0));
    node->upper.assign(
        1, std::vector<double>(m, std::numeric_limits<double>::infinity()));
    std::vector<double>& lower = node->lower[0];
    std::vector<double>& upper = node->upper[0];
    double prev_cutoff = 0.0;
    for (std::size_t child = 0; child < m; ++child) {
      const std::size_t group_begin = first + points * child / m;
      const std::size_t group_end = first + points * (child + 1) / m;
      if (group_begin == group_end) continue;  // tiny node: empty child
      if (options_.store_exact_bounds) {
        lower[child] = entries[group_begin].dist;
        upper[child] = entries[group_end - 1].dist;
      } else {
        // Faithful mode: m-1 cutoff values. Child i's shell is bounded above
        // by its boundary cutoff and below by the previous cutoff; the
        // innermost shell starts at 0 and the outermost is unbounded.
        lower[child] = child == 0 ? 0.0 : prev_cutoff;
        upper[child] =
            child + 1 == m ? std::numeric_limits<double>::infinity()
                           : entries[group_end - 1].dist;
        prev_cutoff = entries[group_end - 1].dist;
      }
      node->children[child] = BuildNode(entries, group_begin, group_end, rng);
    }
    return node;
  }

  Options options_;
};

}  // namespace mvp::vptree

#endif  // MVPTREE_VPTREE_VP_TREE_H_
