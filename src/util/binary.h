#ifndef GRAPHSIG_UTIL_BINARY_H_
#define GRAPHSIG_UTIL_BINARY_H_

// Little-endian binary encoding primitives used by the model-artifact
// serialization layer (src/model/). ByteWriter appends fixed-width
// fields to a growable buffer; ByteReader consumes them with explicit
// bounds checking — every read reports truncation through util::Status
// instead of crashing, so corrupt files surface as clean errors.

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace graphsig::util {

// Appends little-endian fixed-width values to an owned byte buffer.
// All multi-byte integers are written least-significant byte first
// regardless of host endianness, so artifacts are portable.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI16(int16_t v) { WriteU16(static_cast<uint16_t>(v)); }
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  // IEEE-754 bit pattern as a u64.
  void WriteF64(double v);
  // Raw bytes, no length prefix.
  void WriteBytes(std::string_view bytes);
  // u64 length prefix + bytes.
  void WriteString(std::string_view s);

  // Overwrites previously written bytes at `offset` (e.g. to patch a
  // section table once section sizes are known). The range must already
  // exist.
  void PatchU32(size_t offset, uint32_t v);

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Consumes little-endian fields from a byte view. Never reads past the
// end: each accessor returns a Status and leaves the cursor unchanged
// on failure. Every failure message names the section being decoded
// (set_section) and the byte offset of the failed read, so a corrupt
// artifact reports "truncated read in catalog at offset 132: ..."
// instead of a bare bounds error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data,
                      std::string section = "input")
      : data_(data), section_(std::move(section)) {}

  // Labels subsequent error messages; decoders set this as they move
  // between logical sections of one buffer.
  void set_section(std::string section) { section_ = std::move(section); }
  const std::string& section() const { return section_; }

  Status ReadU8(uint8_t* out);
  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI16(int16_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF64(double* out);
  // u64 length prefix + bytes.
  Status ReadString(std::string* out);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  // Repositions the cursor; `pos` must be within the data.
  Status Seek(size_t pos);

 private:
  Status Take(size_t n, const char** out);

  std::string_view data_;
  std::string section_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG convention) of `data`.
// Used as the artifact integrity checksum.
uint32_t Crc32(std::string_view data);

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_BINARY_H_
