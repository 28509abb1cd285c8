// Fuzz harness for the MVPZ flat arena (snapshot/flat_tree.h) and the
// MVPT stream parser it shares with the heap tree (core/tree_layout.h).
//
// Mode 0 feeds the bytes to BuildFlatArena as a serialized mvp-tree
// stream; any arena the builder accepts MUST validate under ParseFlatArena
// (the builder's output is the parser's contract). The same bytes are
// deserialized as a heap MvpTree<Vector, L2> — the path heap snapshot
// chunks, delta forests and replicated generations take — which must
// accept exactly the streams the builder accepts: the builder goes through
// the same Deserialize, so ragged, zero-dimension or oversized vectors fail
// both alike. A range and a k-NN search then run on every tree both
// accept. Mode 1 treats the bytes as a hostile arena — v1 to v4, the
// version field is attacker-controlled: flat::OpenTree either rejects it or
// returns an MvpTree that is safe to search (a v1, v2 or v3 arena is
// validated, then upgraded to v4 at open) — range and k-NN traversals over
// an accepted arena must stay in bounds (ASan checks this, not us), and so
// must ValidateInvariants, which recomputes every stored distance. An
// opened arena holds no double leaf distances, so Serialize must refuse
// it. The arena parser must agree with the arena writer: every accepted
// tree is laid out again with BuildFlatArena, which ParseFlatArena must
// accept, and the reopened tree must give equal range and k-NN answers and
// SearchStats.
//
// Input layout: [u8 mode][body...].

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/codec.h"
#include "common/query.h"
#include "common/serialize.h"
#include "core/mvp_tree.h"
#include "fuzz_util.h"
#include "metric/lp.h"
#include "snapshot/flat_tree.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::uint8_t mode = data[0] % 2;
  ++data;
  --size;

  if (mode == 0) {
    mvp::BinaryReader reader(data, size);
    auto heap = mvp::core::MvpTree<mvp::metric::Vector, mvp::metric::L2>::
        Deserialize(&reader, mvp::metric::L2{}, mvp::VectorCodec{});
    const bool heap_ok = heap.ok() && reader.AtEnd();
    auto arena = mvp::snapshot::flat::BuildFlatArena(data, size);
    FUZZ_ASSERT(arena.ok() == heap_ok,
                "MvpTree::Deserialize and BuildFlatArena disagree");
    if (!arena.ok()) return 0;
    auto parts = mvp::snapshot::flat::ParseFlatArena(arena.value().data(),
                                                     arena.value().size());
    FUZZ_ASSERT(parts.ok(), "BuildFlatArena output failed ParseFlatArena");
    const auto& tree = heap.value();
    const std::vector<double> query(tree.dim(), 0.25);
    mvp::SearchStats stats;
    (void)tree.RangeSearch(query, 1.5, &stats);
    (void)tree.KnnSearch(query, 3, &stats);
    return 0;
  }

  // Hostile arena bytes. ParseFlatArena requires 8-byte alignment (as the
  // mmap path guarantees), so copy into an aligned buffer first.
  std::vector<std::uint64_t> aligned((size + 7) / 8);
  std::memcpy(aligned.data(), data, size);
  const auto* base = reinterpret_cast<const std::uint8_t*>(aligned.data());

  auto opened = mvp::snapshot::flat::OpenTree(base, size, mvp::metric::L2{},
                                              nullptr);
  if (!opened.ok()) return 0;
  const auto& tree = opened.value();
  // An empty arena's header can carry an arbitrary dim (no section
  // constrains it); cap the query allocation rather than OOM the harness.
  if (tree.dim() > 4096) return 0;
  const std::vector<double> query(tree.dim(), 0.25);
  mvp::SearchStats stats;
  const auto range = tree.RangeSearch(query, 1.5, &stats);
  const auto knn = tree.KnnSearch(query, 3, &stats);

  // Bounded work: validation costs O(n log n) distances of dim each.
  if (tree.size() * tree.dim() <= (std::size_t{1} << 16)) {
    (void)tree.ValidateInvariants();
  }
  mvp::BinaryWriter stream;
  FUZZ_ASSERT(tree.Serialize(&stream, mvp::VectorCodec{}).code() ==
                  mvp::StatusCode::kNotSupported,
              "an opened arena serialized without its double columns");
  const std::vector<std::uint8_t> again = mvp::snapshot::flat::BuildFlatArena(
      tree.options(), tree.rows(), tree.dim(), tree.arrays());
  auto reopened = mvp::snapshot::flat::OpenTree(again.data(), again.size(),
                                                mvp::metric::L2{}, nullptr);
  FUZZ_ASSERT(reopened.ok(), "an opened arena's own layout failed to open");
  // Bit for bit: a hostile arena's rows may hold NaN, and NaN != NaN.
  const auto same = [](const std::vector<mvp::Neighbor>& a,
                       const std::vector<mvp::Neighbor>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id ||
          std::bit_cast<std::uint64_t>(a[i].distance) !=
              std::bit_cast<std::uint64_t>(b[i].distance)) {
        return false;
      }
    }
    return true;
  };
  mvp::SearchStats again_stats;
  FUZZ_ASSERT(
      same(reopened.value().RangeSearch(query, 1.5, &again_stats), range) &&
          same(reopened.value().KnnSearch(query, 3, &again_stats), knn),
      "an arena and its own layout answer differently");
  FUZZ_ASSERT(
      again_stats.distance_computations == stats.distance_computations &&
          again_stats.nodes_visited == stats.nodes_visited &&
          again_stats.leaf_points_seen == stats.leaf_points_seen &&
          again_stats.leaf_points_filtered == stats.leaf_points_filtered,
      "an arena and its own layout count differently");
  return 0;
}
