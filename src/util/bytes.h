#ifndef DEEPDIVE_UTIL_BYTES_H_
#define DEEPDIVE_UTIL_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace dd {

/// ---- The byte codec ---------------------------------------------------
///
/// Every binary format in the system — DDSN snapshot sections
/// (factor/io.h, storage/snapshot.h, serve/epoch.h) and dist wire frames
/// and messages (dist/wire.h, dist/protocol.h) — is written with
/// ByteWriter and read with ByteReader. Integers are little-endian,
/// doubles travel as their IEEE-754 bit image, and byte strings carry a
/// u64 length prefix. The mmap'ed readers also memcpy little-endian words
/// straight out of the file image, hence the host check.
static_assert(std::endian::native == std::endian::little,
              "the byte codec assumes a little-endian host");

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Put(&v, 4); }
  void U64(uint64_t v) { Put(&v, 8); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  /// Bytes as they are, with no length.
  void Raw(std::string_view bytes) { out_.append(bytes.data(), bytes.size()); }
  /// u64 length, then the bytes.
  void Bytes(std::string_view bytes) {
    U64(bytes.size());
    Raw(bytes);
  }
  /// Zero bytes up to the next multiple of 8 of the bytes written so far.
  void Pad8() { out_.append((8 - (out_.size() & 7)) & 7, '\0'); }

  void Reserve(size_t n) { out_.reserve(n); }
  size_t size() const { return out_.size(); }
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Put(const void* p, size_t n) { out_.append(static_cast<const char*>(p), n); }

  std::string out_;
};

/// Bounds-checked sequential reader. Every read checks the remaining
/// length first; a failure is Status::Corruption naming the field
/// (`what`) and its offset in the buffer, and leaves the reader where it
/// was. Nothing is dereferenced past the end, whatever the input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  Status U8(uint8_t* v, const char* what) { return Get(v, 1, what); }
  Status U32(uint32_t* v, const char* what) { return Get(v, 4, what); }
  Status U64(uint64_t* v, const char* what) { return Get(v, 8, what); }
  Status F64(double* v, const char* what) { return Get(v, 8, what); }
  /// View of the next `n` bytes.
  Status Raw(size_t n, std::string_view* out, const char* what);
  /// A u64 length, then a view of that many bytes.
  Status Bytes(std::string_view* out, const char* what);
  Status Skip(size_t n, const char* what);
  /// Reserve `count` elements of `elem_size` bytes (overflow-safe) and
  /// report where they start; the bytes are not read.
  Status Array(size_t elem_size, uint64_t count, size_t* start, const char* what);
  /// Skip to the next multiple of 8; every skipped byte must be zero.
  Status Pad8(const char* what);
  Status ExpectEnd(const char* what) const;

 private:
  Status Get(void* out, size_t n, const char* what) {
    if (n > remaining()) return Truncated(what, n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status Truncated(const char* what, size_t need) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_UTIL_BYTES_H_
