#ifndef NBRAFT_COMMON_LOGGING_H_
#define NBRAFT_COMMON_LOGGING_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string_view>

namespace nbraft {

/// Severity levels for the library logger. `kFatal` aborts the process after
/// emitting the message (used by NBRAFT_CHECK, the no-exceptions analogue of
/// an assertion that is always on).
enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kFatal = 5,
};

/// Process-wide minimum level; messages below it are discarded.
/// Defaults to kWarn so tests and benches stay quiet; the NBRAFT_LOG_LEVEL
/// environment variable (name like "debug"/"INFO" or integer 0-5) overrides
/// the default at startup.
LogLevel GetLogLevel();

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"fatal" (any case) or an
/// integer 0-5. Returns `fallback` on anything else (including nullptr).
LogLevel ParseLogLevel(const char* text, LogLevel fallback);

/// Clock used to timestamp log messages, returning nanoseconds. The harness
/// installs the simulator's virtual clock so log output lines up with trace
/// timestamps; without one, messages are stamped with wall time since the
/// first message. The hook is THREAD-LOCAL: each sweep worker thread's
/// substrate installs its own clock, so concurrent simulations never share
/// (or fight over) a timestamp source.
using LogClock = std::function<int64_t()>;
void SetLogClock(LogClock clock);
void ClearLogClock();
bool HasLogClock();

namespace internal_logging {

/// Stream-style log sink. Collects the message and emits it on destruction;
/// aborts for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows a streamed expression when the level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging
}  // namespace nbraft

/// Stream-style logging: `NBRAFT_LOG(Info) << "elected, term=" << term;`
/// Messages below the process-wide level are discarded without evaluating
/// the streamed expressions.
#define NBRAFT_LOG(level)                                            \
  if (static_cast<int>(::nbraft::LogLevel::k##level) <               \
      static_cast<int>(::nbraft::GetLogLevel())) {                   \
  } else /* NOLINT */                                                \
    ::nbraft::internal_logging::LogMessage(                          \
        ::nbraft::LogLevel::k##level, __FILE__, __LINE__)

/// Always-on invariant check; aborts with a message on failure. This is the
/// library's replacement for exceptions on programming errors.
#define NBRAFT_CHECK(cond)                                           \
  while (!(cond))                                                    \
  ::nbraft::internal_logging::LogMessage(::nbraft::LogLevel::kFatal, \
                                         __FILE__, __LINE__)         \
      << "Check failed: " #cond " "

#define NBRAFT_CHECK_EQ(a, b) NBRAFT_CHECK((a) == (b))
#define NBRAFT_CHECK_NE(a, b) NBRAFT_CHECK((a) != (b))
#define NBRAFT_CHECK_LT(a, b) NBRAFT_CHECK((a) < (b))
#define NBRAFT_CHECK_LE(a, b) NBRAFT_CHECK((a) <= (b))
#define NBRAFT_CHECK_GT(a, b) NBRAFT_CHECK((a) > (b))
#define NBRAFT_CHECK_GE(a, b) NBRAFT_CHECK((a) >= (b))

#endif  // NBRAFT_COMMON_LOGGING_H_
