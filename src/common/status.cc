#include "common/status.h"

namespace nbraft {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIoError:
      return "IoError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out(StatusCodeToString(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace nbraft
