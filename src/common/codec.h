#ifndef MVPTREE_COMMON_CODEC_H_
#define MVPTREE_COMMON_CODEC_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"

/// \file
/// Object codecs: how index serialization writes/reads the stored objects.
/// An index is generic over its object type, so persistence needs a codec
/// for that type; codecs for the three bundled object types live here.

namespace mvp {

/// A codec for objects of type O: value encoding to/from the binary format.
template <typename C, typename O>
concept CodecFor = requires(const C& c, BinaryWriter& w, BinaryReader& r,
                            const O& obj, O* out) {
  { c.Write(w, obj) } -> std::same_as<void>;
  { c.Read(r, out) } -> std::same_as<Status>;
};

/// Codec for dense real vectors (metric::Vector). Write takes any dense
/// double range — an owned vector or a row of a vector mvp-tree's slab
/// (metric::VectorView) — and emits the u64 length, then the values.
struct VectorCodec {
  void Write(BinaryWriter& w, std::span<const double> v) const {
    w.WriteVector(v);
  }
  Status Read(BinaryReader& r, std::vector<double>* out) const {
    return r.ReadVector(out);
  }
};

/// Codec for strings.
struct StringCodec {
  void Write(BinaryWriter& w, const std::string& s) const { w.WriteString(s); }
  Status Read(BinaryReader& r, std::string* out) const {
    return r.ReadString(out);
  }
};

}  // namespace mvp

#endif  // MVPTREE_COMMON_CODEC_H_
