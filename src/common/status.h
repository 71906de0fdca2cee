#ifndef NBRAFT_COMMON_STATUS_H_
#define NBRAFT_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace nbraft {

/// Error categories used across the library. The library does not use C++
/// exceptions; every fallible operation returns a `Status` or a `Result<T>`.
enum class StatusCode : uint8_t {
  kOk = 0,
  kOutOfRange,
  kCorruption,
  kIoError,
};

/// Returns a stable human-readable name for `code` ("Ok", "IoError", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// The OK status carries no allocation; error statuses carry a code and an
/// optional message. Typical use:
///
///     Status s = log.Truncate(index);
///     if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace nbraft

#endif  // NBRAFT_COMMON_STATUS_H_
