#include "util/logging.h"

#include <atomic>
#include <cstdio>

#include "util/sync.h"

namespace graphsig::util {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

// The sink serializes record emission and target swaps. stdio already
// locks per call, but the explicit annotated mutex (a) makes the
// target pointer itself safe to swap while workers log and (b) lets the
// thread-safety analysis check the discipline at compile time.
struct LogSink {
  Mutex mutex;
  std::FILE* target GS_GUARDED_BY(mutex) = nullptr;  // nullptr = stderr
};

LogSink& Sink() {
  static LogSink sink;
  return sink;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void SetLogTarget(std::FILE* target) {
  LogSink& sink = Sink();
  MutexLock lock(&sink.mutex);
  sink.target = target;
}

void Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  // Pre-format the whole record outside the lock, then emit it with a
  // single stdio call under the sink mutex, so concurrent ParallelFor
  // workers cannot interleave one record inside another.
  std::string line;
  line.reserve(message.size() + 16);
  line += '[';
  line += LevelName(level);
  line += "] ";
  line += message;
  line += '\n';
  LogSink& sink = Sink();
  MutexLock lock(&sink.mutex);
  std::fputs(line.c_str(), sink.target != nullptr ? sink.target : stderr);
}

void FlushLogs() {
  LogSink& sink = Sink();
  MutexLock lock(&sink.mutex);
  std::fflush(sink.target != nullptr ? sink.target : stderr);
}

void LogDebug(const std::string& message) { Log(LogLevel::kDebug, message); }
void LogInfo(const std::string& message) { Log(LogLevel::kInfo, message); }
void LogWarning(const std::string& message) {
  Log(LogLevel::kWarning, message);
}

}  // namespace graphsig::util
