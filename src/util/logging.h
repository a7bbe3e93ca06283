#ifndef GRAPHSIG_UTIL_LOGGING_H_
#define GRAPHSIG_UTIL_LOGGING_H_

#include <cstdio>
#include <string>

namespace graphsig::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Process-wide minimum level; messages below it are dropped. Benches set
// this to kWarning so timing loops stay quiet.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Redirects log output (default: stderr). `target` must stay valid until
// the next SetLogTarget call; pass nullptr to restore stderr. Used by
// tests that assert on emitted records.
void SetLogTarget(std::FILE* target);

// Writes "[LEVEL] message" to the log target if `level` passes the
// filter. Thread-safe: each record is emitted atomically.
void Log(LogLevel level, const std::string& message);

// Flushes the log target. GS_CHECK calls this before aborting so records
// buffered by stdio (e.g. when the target is a file) survive the crash;
// parallel-test diagnostics depend on it.
void FlushLogs();

void LogDebug(const std::string& message);
void LogInfo(const std::string& message);
void LogWarning(const std::string& message);

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_LOGGING_H_
