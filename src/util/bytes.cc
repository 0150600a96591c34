#include "util/bytes.h"

#include "util/string_util.h"

namespace dd {

Status ByteReader::Truncated(const char* what, size_t need) const {
  return Status::Corruption(
      StrFormat("truncated %s at offset %zu: need %zu bytes, have %zu", what,
                pos_, need, remaining()));
}

Status ByteReader::Raw(size_t n, std::string_view* out, const char* what) {
  if (n > remaining()) return Truncated(what, n);
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::Bytes(std::string_view* out, const char* what) {
  const size_t start = pos_;
  uint64_t n = 0;
  DD_RETURN_IF_ERROR(U64(&n, what));
  if (n > remaining()) {
    const size_t have = remaining();
    pos_ = start;
    return Status::Corruption(
        StrFormat("%s at offset %zu declares %llu bytes but only %zu remain",
                  what, start, static_cast<unsigned long long>(n), have));
  }
  return Raw(static_cast<size_t>(n), out, what);
}

Status ByteReader::Skip(size_t n, const char* what) {
  if (n > remaining()) return Truncated(what, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::Array(size_t elem_size, uint64_t count, size_t* start,
                         const char* what) {
  if (count > remaining() / elem_size) {
    return Status::Corruption(
        StrFormat("truncated %s at offset %zu: need %llu x %zu bytes, have %zu",
                  what, pos_, static_cast<unsigned long long>(count), elem_size,
                  remaining()));
  }
  *start = pos_;
  pos_ += static_cast<size_t>(count) * elem_size;
  return Status::OK();
}

Status ByteReader::Pad8(const char* what) {
  const size_t pad = (8 - (pos_ & 7)) & 7;
  if (pad > remaining()) return Truncated(what, pad);
  for (size_t i = 0; i < pad; ++i) {
    if (data_[pos_ + i] != '\0') {
      return Status::Corruption(
          StrFormat("nonzero %s pad byte at offset %zu", what, pos_ + i));
    }
  }
  pos_ += pad;
  return Status::OK();
}

Status ByteReader::ExpectEnd(const char* what) const {
  if (remaining() != 0) {
    return Status::Corruption(StrFormat("%zu trailing bytes after %s at offset %zu",
                                        remaining(), what, pos_));
  }
  return Status::OK();
}

}  // namespace dd
