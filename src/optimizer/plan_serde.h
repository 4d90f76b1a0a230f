#ifndef CBQT_OPTIMIZER_PLAN_SERDE_H_
#define CBQT_OPTIMIZER_PLAN_SERDE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/value.h"
#include "optimizer/plan.h"
#include "sql/query_block.h"

namespace cbqt {

/// Compact binary (de)serialization for physical plans and the query trees
/// that carry their CBQT provenance — the layer underneath the persistent
/// plan-cache snapshot and the standalone plan blobs of plan_dump.
///
/// Wire format: little-endian fixed-width scalars, length-prefixed strings
/// and vectors, a one-byte tag per enum, and a presence byte per optional
/// pointer. Every field of every node is written unconditionally, in
/// declaration order, so serialization is a pure function of the tree:
/// serialize(deserialize(bytes)) == bytes (bit identity), which the
/// round-trip tests and the warm-start bench gate rely on.
///
/// The reader is strict and bounds-checked: any truncation, out-of-range
/// enum tag, over-long count, or excessive nesting depth yields a typed
/// Status::DataCorruption — never UB, never a crash — so arbitrary bytes
/// (bit flips, version skew, hostile files) degrade to "artifact absent,
/// re-optimize". Catalog pointers (TableRef::table_def) are deliberately
/// NOT serialized: a deserialized query tree is unbound, which is exactly
/// what CbqtOptimizer::Optimize expects (it clones and re-binds), and a
/// deserialized PlanNode references tables/indexes by name only.

/// Version stamped into every framed blob; a mismatch is a typed error so
/// old snapshots are discarded rather than misread.
/// Version 2: PlanOp lost its merge-join operator, which renumbered the
/// operators after it.
inline constexpr uint32_t kPlanSerdeVersion = 2;

/// Nesting-depth ceiling for recursive readers (expressions, blocks,
/// plans). Legitimate trees are tens deep; malformed bytes claiming more
/// fail typed instead of overflowing the stack.
inline constexpr int kSerdeMaxDepth = 200;

/// FNV-1a 64-bit over `bytes` — the payload checksum of framed blobs.
uint64_t Fnv1a64(std::string_view bytes);

/// Append-only encoder. Never fails; the buffer grows as needed.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// Length-prefixed (u32) raw bytes.
  void Str(std::string_view s);
  template <typename E>
  void Enum(E v) {
    U8(static_cast<uint8_t>(v));
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Strict bounds-checked decoder over a borrowed byte range. Every accessor
/// returns Status; after the first error the reader is poisoned and all
/// further reads fail with the same error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* out);
  Status Bool(bool* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I32(int32_t* out);
  Status I64(int64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);

  /// Reads a u8 enum tag and validates it against [0, max_inclusive].
  template <typename E>
  Status Enum(E* out, uint8_t max_inclusive) {
    uint8_t tag = 0;
    CBQT_RETURN_IF_ERROR(U8(&tag));
    if (tag > max_inclusive) {
      return Fail("enum tag " + std::to_string(tag) + " out of range");
    }
    *out = static_cast<E>(tag);
    return Status::OK();
  }

  /// Reads a u32 element count and sanity-checks it against the remaining
  /// bytes (every element costs >= 1 byte), so a malformed count cannot
  /// drive a multi-gigabyte allocation.
  Status Count(uint32_t* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  /// Records and returns a DataCorruption error; poisons the reader.
  Status Fail(const std::string& what);

 private:
  Status Raw(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status error_;  ///< sticky first error
};

// ---- node-level serde ----------------------------------------------------

void WriteValue(const Value& v, ByteWriter* w);
Status ReadValue(ByteReader* r, Value* out);

void WriteExpr(const Expr& e, ByteWriter* w);
Status ReadExpr(ByteReader* r, ExprPtr* out, int depth = 0);

void WriteQueryBlock(const QueryBlock& qb, ByteWriter* w);
Status ReadQueryBlock(ByteReader* r, std::unique_ptr<QueryBlock>* out,
                      int depth = 0);

void WritePlanNode(const PlanNode& node, ByteWriter* w);
Status ReadPlanNode(ByteReader* r, std::unique_ptr<PlanNode>* out,
                    int depth = 0);

// ---- framing -------------------------------------------------------------

/// Wraps `payload` in the common frame: magic, kPlanSerdeVersion, payload
/// size, FNV-1a checksum, payload bytes. The snapshot file and plan_dump
/// blobs share this frame (different magics).
std::string FramePayload(uint32_t magic, std::string payload);

/// Validates magic / version / size / checksum and returns a view of the
/// payload. Typed DataCorruption on any mismatch.
Result<std::string_view> UnframePayload(uint32_t magic,
                                        std::string_view bytes);

/// Magic of a standalone framed plan blob ("CBQP"), as written by
/// SerializePlan and the plan_dump tool.
inline constexpr uint32_t kPlanBlobMagic = 0x50514243u;  // "CBQP" LE

/// A self-contained framed blob of one physical plan tree.
std::string SerializePlan(const PlanNode& plan);

/// Inverse of SerializePlan. Typed DataCorruption for malformed bytes
/// (including trailing garbage after the tree).
Result<std::unique_ptr<PlanNode>> DeserializePlan(std::string_view bytes);

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_PLAN_SERDE_H_
