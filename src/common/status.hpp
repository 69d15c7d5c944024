// Lightweight error handling: Status + Result<T>.
//
// ProxyGrid is a middleware library: most failures (peer closed, bad
// certificate, permission denied) are expected runtime conditions, not
// programming errors, so they travel as values rather than exceptions.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace pg {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kUnauthenticated,
  kFailedPrecondition,
  kOutOfRange,
  kUnavailable,     // transient: peer down, link down
  kDeadlineExceeded,
  kProtocolError,   // malformed or unexpected wire data
  kCryptoError,     // MAC mismatch, bad signature, handshake failure
  kInternal,
};

/// Human-readable name of an ErrorCode ("permission_denied").
const char* error_code_name(ErrorCode code);

/// A success/error outcome with an optional message.
class Status {
 public:
  constexpr Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "permission_denied: user alice lacks mpi.run" or "ok".
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status error(ErrorCode code, std::string message) {
  return Status(code, std::move(message));
}

/// Value-or-error. Use `if (!r.is_ok()) return r.status();` at call sites.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {    // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(data_).is_ok() && "Result built from OK status");
  }

  bool is_ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    const Status* failed = std::get_if<Status>(&data_);
    return failed != nullptr ? *failed : kOk;
  }

  T& value() {
    assert(is_ok());
    return std::get<T>(data_);
  }
  const T& value() const {
    assert(is_ok());
    return std::get<T>(data_);
  }

  T take() {
    assert(is_ok());
    return std::move(std::get<T>(data_));
  }

 private:
  // A member rather than a function-local static in status(): the local's
  // init guard kept status() from inlining, and GCC then flagged the
  // Status alternative of a value-holding Result as maybe-uninitialized.
  inline static const Status kOk{};
  std::variant<T, Status> data_;
};

/// Early-return helper: PG_RETURN_IF_ERROR(expr) where expr yields a Status.
#define PG_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::pg::Status pg_status_ = (expr);             \
    if (!pg_status_.is_ok()) return pg_status_;   \
  } while (false)

}  // namespace pg
