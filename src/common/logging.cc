#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "common/sim_time.h"

namespace nbraft {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* file) {
  const char* slash = std::strrchr(file, '/');
  return slash != nullptr ? slash + 1 : file;
}

std::atomic<int> g_level{static_cast<int>(
    ParseLogLevel(std::getenv("NBRAFT_LOG_LEVEL"), LogLevel::kWarn))};

// Each simulator is single-threaded, but the sweep scheduler runs many
// simulators on concurrent worker threads — the clock hook is therefore
// thread-local, so every worker's log stamps follow its *own* substrate's
// virtual time and installing/clearing a clock on one thread can never
// race with (or leak into) another thread's simulation.
thread_local LogClock g_clock;

int64_t WallNanosSinceFirstMessage() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

LogLevel ParseLogLevel(const char* text, LogLevel fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  if (text[0] >= '0' && text[0] <= '5' && text[1] == '\0') {
    return static_cast<LogLevel>(text[0] - '0');
  }
  std::string lower;
  for (const char* p = text; *p != '\0'; ++p) {
    lower.push_back(static_cast<char>(
        *p >= 'A' && *p <= 'Z' ? *p - 'A' + 'a' : *p));
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "fatal") return LogLevel::kFatal;
  return fallback;
}

void SetLogClock(LogClock clock) { g_clock = std::move(clock); }

void ClearLogClock() { g_clock = nullptr; }

bool HasLogClock() { return static_cast<bool>(g_clock); }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const int64_t stamp =
      g_clock ? g_clock() : WallNanosSinceFirstMessage();
  stream_ << "[" << LevelName(level) << " " << FormatDuration(stamp) << " "
          << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  if (level_ == LogLevel::kFatal) {
    std::cerr.flush();
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace nbraft
