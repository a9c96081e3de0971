#include "data/byte_codec.h"

#include <cerrno>
#include <cstdio>

#include "common/string_util.h"

namespace tcrowd {
namespace {

constexpr size_t kMinAnswerBytes = 4 + kMinCellBytes + kMinValueBytes;

bool GetAnswer(ByteReader* r, Answer* a) {
  return r->I32(&a->worker) && r->Cell(&a->cell) && GetValue(r, &a->value);
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Table-free bitwise CRC-32 (IEEE, reflected). Every record is checksummed
  // once per encode and once per decode; simplicity beats a lookup table.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

void PutCells(const std::vector<CellRef>& cells, std::string* out) {
  PutU32(static_cast<uint32_t>(cells.size()), out);
  for (CellRef cell : cells) PutCell(cell, out);
}

void PutValue(const Value& v, std::string* out) {
  if (v.is_categorical()) {
    PutU8(kValueCategorical, out);
    PutI32(v.label(), out);
  } else if (v.is_continuous()) {
    PutU8(kValueContinuous, out);
    PutDouble(v.number(), out);
  } else {
    PutU8(kValueMissing, out);
  }
}

void PutAnswer(const Answer& a, std::string* out) {
  PutI32(a.worker, out);
  PutCell(a.cell, out);
  PutValue(a.value, out);
}

bool GetCells(ByteReader* r, std::vector<CellRef>* cells) {
  uint32_t count;
  if (!r->U32(&count) || !r->Count(count, kMinCellBytes)) return false;
  cells->resize(count);
  for (CellRef& cell : *cells) {
    if (!r->Cell(&cell)) return false;
  }
  return true;
}

bool GetValue(ByteReader* r, Value* v) {
  uint8_t kind;
  if (!r->U8(&kind)) return false;
  if (kind == kValueCategorical) {
    int32_t label;
    if (!r->I32(&label)) return false;
    *v = Value::Categorical(label);
  } else if (kind == kValueContinuous) {
    double number;
    if (!r->Double(&number)) return false;
    *v = Value::Continuous(number);
  } else if (kind == kValueMissing) {
    *v = Value();
  } else {
    return false;  // unknown kind tag: corrupt
  }
  return true;
}

bool GetAnswers(ByteReader* r, uint64_t count, std::vector<Answer>* out) {
  if (!r->Count(count, kMinAnswerBytes)) return false;
  out->reserve(out->size() + static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    Answer a;
    if (!GetAnswer(r, &a)) return false;
    out->push_back(a);
  }
  return true;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot open %s: %s", path.c_str(), std::strerror(errno)));
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError(StrFormat("read error on %s", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace tcrowd
