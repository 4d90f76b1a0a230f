// Result checking: an order-insensitive digest of a result multiset, so the
// timed loop can compare every query's rows against expected rows computed
// outside the timed window without keeping the rows themselves.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// Digest of a row multiset. Equal multisets give equal digests: rows are
/// hashed one by one and the hashes summed, so row order does not matter,
/// and numbers are hashed by value (Int(2) equals Real(2.0)), with
/// non-integral doubles rounded to ~7 significant digits so that plans
/// summing in a different order still agree. A digest mismatch is
/// confirmed by a full canonical comparison (CompareRowMultisets) before it
/// counts as a wrong result.
struct RowsDigest {
  uint64_t sum = 0;
  uint64_t rows = 0;

  bool operator==(const RowsDigest& o) const {
    return sum == o.sum && rows == o.rows;
  }
  bool operator!=(const RowsDigest& o) const { return !(*this == o); }
};

RowsDigest DigestRows(const std::vector<cbqt::Row>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
