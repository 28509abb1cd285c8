#ifndef MVPTREE_COMMON_SERIALIZE_H_
#define MVPTREE_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

/// \file
/// Minimal versioned little-endian binary serialization used by the index
/// save/load paths. Writers append to an in-memory byte buffer; readers
/// validate every read against the buffer bounds and surface Corruption
/// statuses instead of crashing on truncated/garbage input.

namespace mvp {

/// Appends primitive values and byte blocks to a growable byte buffer.
class BinaryWriter {
 public:
  /// Little-endian fixed-width append. Only arithmetic types.
  template <typename T>
  void Write(T value) {
    static_assert(std::is_arithmetic_v<T>);
    // All supported build targets are little-endian; a static_assert-like
    // runtime check lives in serialize.cc (VerifyLittleEndian).
    // resize+memcpy rather than a pointer-range insert: GCC 12 raises
    // -Wnonnull false positives inside vector::_M_range_insert<unsigned
    // char*> clones, so that template is kept uninstantiated.
    const std::size_t base = buffer_.size();
    buffer_.resize(base + sizeof(T));
    std::memcpy(buffer_.data() + base, &value, sizeof(T));
  }

  /// Length-prefixed (u64) byte string.
  void WriteBytes(const void* data, std::size_t size) {
    Write<std::uint64_t>(size);
    if (size == 0) return;  // an empty string's data() may be null
    const std::size_t base = buffer_.size();
    buffer_.resize(base + size);
    std::memcpy(buffer_.data() + base, data, size);
  }

  void WriteString(const std::string& s) { WriteBytes(s.data(), s.size()); }

  /// Length-prefixed run of arithmetic values, from any contiguous range
  /// (a std::vector or a std::span).
  template <std::ranges::contiguous_range R>
  void WriteVector(const R& values) {
    using T = std::ranges::range_value_t<R>;
    static_assert(std::is_arithmetic_v<T>);
    Write<std::uint64_t>(std::ranges::size(values));
    for (const T& v : values) Write<T>(v);
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked sequential reader over a byte span.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& buffer)
      : BinaryReader(buffer.data(), buffer.size()) {}

  /// Reads one little-endian fixed-width value into *out.
  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_arithmetic_v<T>);
    if (size_ - pos_ < sizeof(T)) {
      return Status::Corruption("buffer truncated reading fixed value");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(std::string* out);

  /// Reads the u64 length prefix of a sequence of `element_size`-byte items
  /// and validates it against the remaining buffer BEFORE the caller
  /// allocates anything: an adversarial length near SIZE_MAX fails here as
  /// Corruption instead of triggering a multi-gigabyte resize. The check
  /// divides rather than multiplies, so it cannot itself overflow.
  Status ReadLengthPrefix(std::size_t element_size, std::uint64_t* count) {
    MVP_DCHECK(element_size > 0);
    MVP_RETURN_NOT_OK(Read<std::uint64_t>(count));
    if (*count > (size_ - pos_) / element_size) {
      return Status::Corruption("length prefix exceeds remaining buffer");
    }
    return Status::OK();
  }

  /// Reads a length-prefixed vector; rejects lengths that exceed the
  /// remaining buffer (corruption guard against huge bogus allocations).
  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T>);
    std::uint64_t count = 0;
    MVP_RETURN_NOT_OK(ReadLengthPrefix(sizeof(T), &count));
    out->resize(static_cast<std::size_t>(count));
    for (auto& v : *out) MVP_RETURN_NOT_OK(Read<T>(&v));
    return Status::OK();
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// The bytes of `values`, in place (little-endian on every supported
/// target): how a writer hands an array it keeps to the gather write
/// without copying it.
template <typename T>
std::span<const std::uint8_t> ByteSpan(std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  const void* data = values.data();
  return {static_cast<const std::uint8_t*>(data), values.size_bytes()};
}

/// Writes `bytes` to `path` directly (no tmp+rename, no fsync) — fine for
/// scratch outputs whose loss on crash is acceptable. Durable multi-file
/// artifacts (the snapshot store) use WriteFileAtomic instead.
Status WriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Crash-safe write: writes to `path + ".tmp"`, flushes the data to stable
/// storage (fsync), atomically renames over `path`, then fsyncs the parent
/// directory so the rename itself is durable. A kill at any point leaves
/// either the previous file or the complete new one — never a torn mix.
/// On platforms without POSIX fsync this degrades to write + rename.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// The gather form: the file's bytes are `pieces` back to back, written in
/// order, each through its own write calls, so a caller never assembles
/// them in one buffer. The same temp file, fsync and rename as above; a
/// crash mid-way leaves a truncated temp file and the old `path`.
Status WriteFileAtomic(const std::string& path,
                       std::span<const std::span<const std::uint8_t>> pieces);

/// Reads the whole file at `path`.
Result<std::vector<std::uint8_t>> ReadFile(const std::string& path);

}  // namespace mvp

#endif  // MVPTREE_COMMON_SERIALIZE_H_
