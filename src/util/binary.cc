#include "util/binary.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/strings.h"

namespace graphsig::util {
namespace {

template <typename T>
void AppendLe(std::string* buffer, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    buffer->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
void PatchLe(std::string* buffer, size_t offset, T v) {
  GS_CHECK_LE(offset + sizeof(T), buffer->size());
  for (size_t i = 0; i < sizeof(T); ++i) {
    (*buffer)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

template <typename T>
T LoadLe(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

}  // namespace

void ByteWriter::WriteU16(uint16_t v) { AppendLe(&buffer_, v); }
void ByteWriter::WriteU32(uint32_t v) { AppendLe(&buffer_, v); }
void ByteWriter::WriteU64(uint64_t v) { AppendLe(&buffer_, v); }

void ByteWriter::WriteF64(double v) {
  WriteU64(std::bit_cast<uint64_t>(v));
}

void ByteWriter::WriteBytes(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

void ByteWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  WriteBytes(s);
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  PatchLe(&buffer_, offset, v);
}

Status ByteReader::Take(size_t n, const char** out) {
  if (n > remaining()) {
    return Status::OutOfRange(StrPrintf(
        "truncated read in %s at offset %zu: need %zu bytes, have %zu",
        section_.c_str(), pos_, n, remaining()));
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::ReadU8(uint8_t* out) {
  const char* p;
  Status s = Take(1, &p);
  if (!s.ok()) return s;
  *out = static_cast<uint8_t>(*p);
  return Status::Ok();
}

Status ByteReader::ReadU16(uint16_t* out) {
  const char* p;
  Status s = Take(2, &p);
  if (!s.ok()) return s;
  *out = LoadLe<uint16_t>(p);
  return Status::Ok();
}

Status ByteReader::ReadU32(uint32_t* out) {
  const char* p;
  Status s = Take(4, &p);
  if (!s.ok()) return s;
  *out = LoadLe<uint32_t>(p);
  return Status::Ok();
}

Status ByteReader::ReadU64(uint64_t* out) {
  const char* p;
  Status s = Take(8, &p);
  if (!s.ok()) return s;
  *out = LoadLe<uint64_t>(p);
  return Status::Ok();
}

Status ByteReader::ReadI16(int16_t* out) {
  uint16_t v;
  Status s = ReadU16(&v);
  if (!s.ok()) return s;
  *out = static_cast<int16_t>(v);
  return Status::Ok();
}

Status ByteReader::ReadI32(int32_t* out) {
  uint32_t v;
  Status s = ReadU32(&v);
  if (!s.ok()) return s;
  *out = static_cast<int32_t>(v);
  return Status::Ok();
}

Status ByteReader::ReadI64(int64_t* out) {
  uint64_t v;
  Status s = ReadU64(&v);
  if (!s.ok()) return s;
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

Status ByteReader::ReadF64(double* out) {
  uint64_t v;
  Status s = ReadU64(&v);
  if (!s.ok()) return s;
  *out = std::bit_cast<double>(v);
  return Status::Ok();
}

Status ByteReader::ReadString(std::string* out) {
  uint64_t length;
  Status s = ReadU64(&length);
  if (!s.ok()) return s;
  if (length > remaining()) {
    pos_ -= 8;  // leave the cursor where the caller can diagnose it
    return Status::OutOfRange(StrPrintf(
        "truncated string in %s at offset %zu: declared %llu bytes, "
        "have %zu",
        section_.c_str(), pos_, static_cast<unsigned long long>(length),
        remaining() - 8));
  }
  const char* p;
  s = Take(static_cast<size_t>(length), &p);
  if (!s.ok()) return s;
  out->assign(p, static_cast<size_t>(length));
  return Status::Ok();
}

Status ByteReader::Seek(size_t pos) {
  if (pos > data_.size()) {
    return Status::OutOfRange(StrPrintf(
        "seek in %s to offset %zu past end %zu", section_.c_str(), pos,
        data_.size()));
  }
  pos_ = pos;
  return Status::Ok();
}

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace graphsig::util
