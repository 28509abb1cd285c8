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
// accept. Mode 1 treats the bytes as a hostile arena — v1 or v2, the
// version field is attacker-controlled: FlatTreeView::Open either rejects
// it or returns a view that is safe to search (a v1 arena is validated,
// then upgraded to v2 at open) — range and k-NN traversals over an
// accepted arena must stay in bounds (ASan checks this, not us).
//
// Input layout: [u8 mode][body...].

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

  auto view = mvp::snapshot::flat::FlatTreeView<mvp::metric::L2>::Open(
      base, size, mvp::metric::L2{});
  if (!view.ok()) return 0;
  const auto& tree = view.value();
  // An empty arena's header can carry an arbitrary dim (no section
  // constrains it); cap the query allocation rather than OOM the harness.
  if (tree.dim() > 4096) return 0;
  const std::vector<double> query(tree.dim(), 0.25);
  mvp::SearchStats stats;
  (void)tree.RangeSearch(query, 1.5, &stats);
  (void)tree.KnnSearch(query, 3, &stats);
  return 0;
}
