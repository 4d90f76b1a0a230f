#include "check.h"

#include <cmath>
#include <functional>
#include <string>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t IntegerHash(int64_t v) { return Mix(static_cast<uint64_t>(v)); }

uint64_t DoubleHash(double d) {
  if (std::isnan(d)) return Mix(0x6e616eull);
  if (std::isinf(d)) return Mix(d > 0 ? 0x696e66ull : 0x2d696e66ull);
  // Integral values hash as the integer, so Int(2) and Real(2.0) agree.
  if (d == std::trunc(d) && std::fabs(d) < 9.0e15) {
    return IntegerHash(static_cast<int64_t>(d));
  }
  int exponent = 0;
  double mantissa = std::frexp(d, &exponent);
  int64_t q = std::llround(mantissa * (1 << 24));
  return Mix(static_cast<uint64_t>(q) ^
             (static_cast<uint64_t>(exponent + 2048) << 40) ^ 0xd0ull);
}

uint64_t ValueHash(const cbqt::Value& v) {
  switch (v.kind()) {
    case cbqt::ValueKind::kNull:
      return 0x4e554c4cull;
    case cbqt::ValueKind::kInt64:
      return IntegerHash(v.AsInt());
    case cbqt::ValueKind::kDouble:
      return DoubleHash(v.AsDouble());
    case cbqt::ValueKind::kString:
      return Mix(std::hash<std::string>{}(v.AsString()) ^ 0x5354ull);
    case cbqt::ValueKind::kBool:
      return v.AsBool() ? 0x54525545ull : 0x46414c53ull;
  }
  return 0;
}

}  // namespace

RowsDigest DigestRows(const std::vector<cbqt::Row>& rows) {
  RowsDigest d;
  for (const cbqt::Row& row : rows) {
    uint64_t h = 0x726f77ull + row.size();
    for (const cbqt::Value& v : row) h = Mix(h * 31 + ValueHash(v));
    d.sum += Mix(h);
  }
  d.rows = rows.size();
  return d;
}

}  // namespace perfbench
