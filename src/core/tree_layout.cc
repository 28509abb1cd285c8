#include "core/tree_layout.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>

/// \file
/// Building and (de)serializing the mvp-tree layout: the node and leaf
/// appenders BuildNode/BuildLeaf and the stream parser share, the float
/// leaf columns, the row order (vantage-point rows, the id -> row map and
/// the in-place reorder), and the one parser and writer of the MVPT
/// stream's structure.

namespace mvp::core {
namespace {

/// Wire size of one leaf entry: u64 id, f64 D1, f64 D2, u32 PATH offset,
/// u32 PATH length.
constexpr std::uint64_t kEntryBytes = 32;

struct StreamSource {
  BinaryReader* reader;
  std::uint64_t objects;
  std::size_t m;
  std::size_t p;
  const std::vector<double>& pool;
  TreeLayout* out;
};

/// Parses one stream node and, preorder, its subtree. Returns the node's
/// index, or kNullChild for an absent child.
Result<std::uint32_t> ReadNode(const StreamSource& s, std::size_t depth) {
  if (depth > kMaxTreeDepth) {
    return Status::Corruption("mvp-tree nesting too deep");
  }
  BinaryReader* r = s.reader;
  std::uint8_t tag = 0;
  MVP_RETURN_NOT_OK(r->Read<std::uint8_t>(&tag));
  if (tag == 0) return kNullChild;
  if (tag > 2) return Status::Corruption("bad mvp-tree node tag");
  std::uint64_t vp1 = 0, vp2 = 0;
  std::uint8_t has_vp2 = 0;
  MVP_RETURN_NOT_OK(r->Read<std::uint64_t>(&vp1));
  MVP_RETURN_NOT_OK(r->Read<std::uint8_t>(&has_vp2));
  MVP_RETURN_NOT_OK(r->Read<std::uint64_t>(&vp2));
  if (vp1 >= s.objects || (has_vp2 != 0 && vp2 >= s.objects)) {
    return Status::Corruption("vantage point id out of range");
  }
  if (tag == 2 && has_vp2 == 0) {
    return Status::Corruption(
        "internal mvp-tree node lacks a second vantage point");
  }
  if (s.out->nodes.size() >= kNullChild) {
    return Status::Corruption("mvp-tree node count exceeds format limit");
  }
  const auto id1 = static_cast<std::uint32_t>(vp1);
  const auto id2 = has_vp2 != 0 ? static_cast<std::uint32_t>(vp2) : 0u;
  TreeLayout& out = *s.out;

  if (tag == 1) {
    std::uint64_t count = 0;
    MVP_RETURN_NOT_OK(r->Read<std::uint64_t>(&count));
    if (count > r->remaining() / kEntryBytes || count > kMaxTreeObjects) {
      return Status::Corruption("leaf bucket size exceeds buffer");
    }
    // A writer lays the entries' PATH slices end to end in stream order,
    // one length per leaf, so the leaf's slab is the pool run at `base`.
    const std::uint64_t base = out.path.size();
    std::uint32_t length = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t id = 0;
      double d1 = 0.0, d2 = 0.0;
      std::uint32_t offset = 0, path_length = 0;
      MVP_RETURN_NOT_OK(r->Read<std::uint64_t>(&id));
      MVP_RETURN_NOT_OK(r->Read<double>(&d1));
      MVP_RETURN_NOT_OK(r->Read<double>(&d2));
      MVP_RETURN_NOT_OK(r->Read<std::uint32_t>(&offset));
      MVP_RETURN_NOT_OK(r->Read<std::uint32_t>(&path_length));
      if (id >= s.objects) {
        return Status::Corruption("leaf point id out of range");
      }
      if (path_length > s.p) {
        return Status::Corruption("leaf PATH length exceeds header p");
      }
      if (i == 0) length = path_length;
      if (path_length != length) {
        return Status::Corruption("leaf PATH lengths inconsistent in a leaf");
      }
      const std::uint64_t at = base + i * length;
      if (offset != static_cast<std::uint32_t>(at)) {
        return Status::Corruption("leaf PATH slice out of stream order");
      }
      if (at + length > s.pool.size()) {
        return Status::Corruption("leaf PATH slice out of pool range");
      }
      out.ids.push_back(static_cast<std::uint32_t>(id));
      out.d1.push_back(d1);
      out.d2.push_back(d2);
    }
    const auto n = static_cast<std::size_t>(count);
    const std::uint32_t index = out.AddLeaf(id1, id2, has_vp2 != 0, n, length);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < length; ++j) {
        out.path[base + j * n + i] = s.pool[base + i * length + j];
      }
    }
    return index;
  }

  const std::size_t m = s.m;
  if (2 * m + 2 * m * m > r->remaining() / sizeof(double)) {
    return Status::Corruption("internal node bound arrays malformed");
  }
  const std::uint32_t index = out.AddInternal(id1, id2, m);
  std::size_t at = out.nodes[index].begin;
  for (const std::size_t want : {m, m, m * m, m * m}) {
    std::uint64_t length = 0;
    MVP_RETURN_NOT_OK(r->Read<std::uint64_t>(&length));
    if (length != want) {
      return Status::Corruption("internal node bound arrays malformed");
    }
    for (std::size_t k = 0; k < want; ++k) {
      MVP_RETURN_NOT_OK(r->Read<double>(&out.bounds[at++]));
    }
  }
  const std::size_t slots = out.nodes[index].children;
  for (std::size_t c = 0; c < m * m; ++c) {
    auto child = ReadNode(s, depth + 1);
    if (!child.ok()) return child.status();
    out.children[slots + c] = child.value();
  }
  return index;
}

void WriteNode(const TreeLayout& t, std::size_t m, BinaryWriter* w,
               std::uint32_t index) {
  if (index == kNullChild) {
    w->Write<std::uint8_t>(0);
    return;
  }
  const NodeRec& n = t.nodes[index];
  const bool leaf = (n.flags & kNodeLeaf) != 0;
  w->Write<std::uint8_t>(leaf ? 1 : 2);
  w->Write<std::uint64_t>(n.vp1);
  w->Write<std::uint8_t>((n.flags & kNodeHasVp2) != 0 ? 1 : 0);
  w->Write<std::uint64_t>(n.vp2);
  if (leaf) {
    const LeafPathRec& lp = t.leafpaths[index];
    w->Write<std::uint64_t>(n.count);
    for (std::size_t i = 0; i < n.count; ++i) {
      const std::size_t e = n.begin + i;
      w->Write<std::uint64_t>(t.ids[e]);
      w->Write<double>(t.d1[e]);
      w->Write<double>(t.d2[e]);
      w->Write<std::uint32_t>(
          static_cast<std::uint32_t>(lp.slab_offset + i * lp.path_length));
      w->Write<std::uint32_t>(lp.path_length);
    }
    return;
  }
  std::size_t at = n.begin;
  for (const std::size_t length : {m, m, m * m, m * m}) {
    w->Write<std::uint64_t>(length);
    for (std::size_t k = 0; k < length; ++k) w->Write<double>(t.bounds[at++]);
  }
  for (std::size_t c = 0; c < m * m; ++c) {
    WriteNode(t, m, w, t.children[n.children + c]);
  }
}

}  // namespace

std::uint32_t TreeLayout::AddInternal(std::uint32_t vp1, std::uint32_t vp2,
                                      std::size_t m) {
  NodeRec rec;
  rec.flags = kNodeHasVp2;
  rec.vp1 = vp1;
  rec.vp2 = vp2;
  rec.begin = bounds.size();
  rec.children = children.size();
  constexpr double kOpen = std::numeric_limits<double>::infinity();
  bounds.insert(bounds.end(), m, 0.0);
  bounds.insert(bounds.end(), m, kOpen);
  bounds.insert(bounds.end(), m * m, 0.0);
  bounds.insert(bounds.end(), m * m, kOpen);
  children.insert(children.end(), m * m, kNullChild);
  nodes.push_back(rec);
  leafpaths.emplace_back();
  return static_cast<std::uint32_t>(nodes.size() - 1);
}

std::uint32_t TreeLayout::AddLeaf(std::uint32_t vp1, std::uint32_t vp2,
                                  bool has_vp2, std::size_t count,
                                  std::size_t path_length) {
  NodeRec rec;
  rec.flags = kNodeLeaf | (has_vp2 ? kNodeHasVp2 : 0u);
  rec.vp1 = vp1;
  rec.vp2 = vp2;
  rec.count = static_cast<std::uint32_t>(count);
  rec.begin = ids.size() - count;
  LeafPathRec lp;
  lp.slab_offset = path.size();
  lp.path_length = static_cast<std::uint32_t>(path_length);
  path.resize(path.size() + count * path_length);
  nodes.push_back(rec);
  leafpaths.push_back(lp);
  return static_cast<std::uint32_t>(nodes.size() - 1);
}

void TreeLayout::Narrow() {
  const auto narrow = [](const std::vector<double>& in,
                         std::vector<float>* out) {
    out->resize(in.size());
    std::transform(in.begin(), in.end(), out->begin(),
                   metric::kernels::NarrowDistance);
  };
  narrow(d1, &d1_f32);
  narrow(d2, &d2_f32);
  narrow(path, &path_f32);
}

void TreeLayout::AssignRows() {
  auto row = static_cast<std::uint32_t>(ids.size());
  for (NodeRec& node : nodes) {
    node.vp_row = row;
    row += static_cast<std::uint32_t>(VpCount(node));
  }
}

std::vector<std::uint32_t> VantagePointIds(const TreeArrays& t) {
  std::vector<std::uint32_t> vps;
  vps.reserve(2 * t.node_count);
  for (std::size_t i = 0; i < t.node_count; ++i) {
    vps.push_back(t.nodes[i].vp1);
    if (VpCount(t.nodes[i]) == 2) vps.push_back(t.nodes[i].vp2);
  }
  return vps;
}

Result<std::vector<std::uint32_t>> RowMap(const TreeArrays& t,
                                          std::size_t objects) {
  constexpr std::uint32_t kNoRow = 0xffffffffu;  // above every row
  std::vector<std::uint32_t> map(objects, kNoRow);
  std::size_t placed = 0;
  const auto place = [&](std::size_t id, std::size_t row) {
    if (id >= objects || map[id] != kNoRow) return false;
    map[id] = static_cast<std::uint32_t>(row);
    ++placed;
    return true;
  };
  for (std::size_t e = 0; e < t.entry_count; ++e) {
    if (!place(t.ids[e], e)) {
      return Status::Corruption("object " + std::to_string(t.ids[e]) +
                                " stored twice or out of range");
    }
  }
  for (std::size_t i = 0; i < t.node_count; ++i) {
    const NodeRec& node = t.nodes[i];
    for (std::size_t l = 0; l < VpCount(node); ++l) {
      const std::size_t id = l == 0 ? node.vp1 : node.vp2;
      if (!place(id, node.vp_row + l)) {
        return Status::Corruption("vantage point " + std::to_string(id) +
                                  " stored twice or out of range");
      }
    }
  }
  if (placed != objects) {
    return Status::Corruption("tree stores " + std::to_string(placed) +
                              " of its " + std::to_string(objects) +
                              " objects");
  }
  return map;
}

void PermuteRows(const TreeArrays& t, void* rows, std::size_t objects,
                 std::size_t row_bytes) {
  std::byte* const base = static_cast<std::byte*>(rows);
  std::vector<std::byte> spare(row_bytes);
  const auto row = [&](std::size_t i) { return base + i * row_bytes; };
  PermuteInPlace(
      t, objects,
      [&](std::size_t i) { std::memcpy(spare.data(), row(i), row_bytes); },
      [&](std::size_t from, std::size_t to) {
        std::memcpy(row(to), row(from), row_bytes);
      },
      [&](std::size_t to) { std::memcpy(row(to), spare.data(), row_bytes); });
}

Status TreeLayout::Read(BinaryReader* reader, std::uint64_t objects,
                        std::size_t m, std::size_t p) {
  std::vector<double> pool;
  MVP_RETURN_NOT_OK(reader->ReadVector(&pool));
  // The entries and slabs fit in these; each object read consumed bytes
  // of the stream, so the reservations stay proportional to it.
  ids.reserve(static_cast<std::size_t>(objects));
  d1.reserve(static_cast<std::size_t>(objects));
  d2.reserve(static_cast<std::size_t>(objects));
  path.reserve(pool.size());
  auto root = ReadNode({reader, objects, m, p, pool, this}, 0);
  if (!root.ok()) return root.status();
  if (root.value() == kNullChild && objects != 0) {
    return Status::Corruption("non-empty tree has no root");
  }
  if (path.size() != pool.size()) {
    return Status::Corruption("leaf PATH slices do not tile the pool");
  }
  return Status::OK();
}

void TreeLayout::Write(BinaryWriter* writer, std::size_t m) const {
  // The PATH pool holds each entry's PATH in a row, leaves in node order —
  // the slabs transposed back.
  writer->Write<std::uint64_t>(path.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const LeafPathRec& lp = leafpaths[n];
    if ((nodes[n].flags & kNodeLeaf) == 0 || lp.path_length == 0) continue;
    const std::size_t count = nodes[n].count;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = 0; j < lp.path_length; ++j) {
        writer->Write<double>(path[lp.slab_offset + j * count + i]);
      }
    }
  }
  WriteNode(*this, m, writer, nodes.empty() ? kNullChild : 0);
}

}  // namespace mvp::core
