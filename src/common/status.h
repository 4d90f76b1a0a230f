#ifndef CBQT_COMMON_STATUS_H_
#define CBQT_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace cbqt {

/// Error categories used across the library. Mirrors the usual
/// database-system convention (RocksDB/Arrow-style Status) of returning
/// explicit status objects instead of throwing exceptions across API
/// boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kBindError,
  kNotSupported,
  kInternal,
  /// Physical optimization was aborted because accumulated cost exceeded
  /// the best transformation state found so far (paper §3.4.1).
  kCostCutoff,
  /// Work was abandoned because the optimization resource budget
  /// (OptimizerBudget: deadline / state cap / executor row cap) tripped.
  /// During the search this is a cooperative stop signal, not an error: the
  /// framework degrades to its best-so-far answer instead of failing.
  kBudgetExhausted,
  /// The query was cancelled (CancellationToken tripped). Unlike
  /// kBudgetExhausted this is a hard stop: every layer unwinds and the
  /// query fails — there is no best-so-far degradation for a cancel.
  kCancelled,
  /// A memory reservation against a MemoryTracker budget failed (per-query
  /// or engine-wide) after the degradation ladder (cache eviction, largest-
  /// query victim selection) could not free enough. Hard stop, like
  /// kCancelled.
  kResourceExhausted,
  /// Admission control turned the query away before any work was done:
  /// the engine is at its concurrency ceiling and the query's tenant queue
  /// was full, its wait timed out, or it was the lowest-priority waiter
  /// shed under overload. The message carries a `retry-after-ms=N` hint
  /// (see cbqt/scheduler.h RetryAfterMs) that well-behaved clients honor
  /// with jittered backoff. Cheap, typed, retryable.
  kTenantThrottled,
  /// Serialized bytes (plan snapshot, framed plan blob) failed
  /// structural validation: bad magic, version skew, checksum mismatch,
  /// truncation, or an out-of-range enum/count. The reader guarantees a
  /// typed error for arbitrary malformed input — never UB — so callers
  /// treat the artifact as absent and re-optimize from scratch.
  kDataCorruption,
};

/// True for the runtime-guardrail codes that must abort a whole query
/// instead of being fault-isolated per transformation state or degraded to
/// a best-so-far answer: cancellation, memory exhaustion, admission
/// throttling. The search and executor propagate these verbatim.
inline bool IsGuardrailAbort(StatusCode code) {
  return code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kTenantThrottled;
}

/// Result of an operation: either OK or an error code plus message.
///
/// `Status` is cheap to copy in the OK case (empty message) and is used as
/// the return type of every fallible public function in the library.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status CostCutoff() {
    return Status(StatusCode::kCostCutoff, "cost cutoff exceeded");
  }
  static Status BudgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status TenantThrottled(std::string msg) {
    return Status(StatusCode::kTenantThrottled, std::move(msg));
  }
  static Status DataCorruption(std::string msg) {
    return Status(StatusCode::kDataCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "ParseError: unexpected token ')'".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal {
/// Prints the status and aborts — value access on a failed Result is a
/// programming error and must die loudly in every build type rather than
/// silently handing out a default-constructed value.
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

/// A value-or-error holder, analogous to absl::StatusOr.
///
/// Access the value only after checking `ok()`; accessing the value of a
/// failed Result aborts with the status message in all build types.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { EnsureOk(); return value_; }
  const T& value() const& { EnsureOk(); return value_; }
  T&& value() && { EnsureOk(); return std::move(value_); }

  T& operator*() { EnsureOk(); return value_; }
  const T& operator*() const { EnsureOk(); return value_; }
  T* operator->() { EnsureOk(); return &value_; }
  const T* operator->() const { EnsureOk(); return &value_; }

 private:
  void EnsureOk() const {
    if (!status_.ok()) internal::DieOnBadResultAccess(status_);
  }

  Status status_;
  T value_{};
};

/// Propagates a non-OK Status from an expression. Usable only in functions
/// returning Status.
#define CBQT_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::cbqt::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace cbqt

#endif  // CBQT_COMMON_STATUS_H_
