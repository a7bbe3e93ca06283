#ifndef GRAPHSIG_UTIL_DURABLE_FILE_H_
#define GRAPHSIG_UTIL_DURABLE_FILE_H_

// Durable POSIX file writes for the ingest log and the model artifact.
// Every call fsyncs what it wrote before returning, and any failing
// system call comes back as an IoError naming the call, the path and
// errno's text.

#include <string>
#include <string_view>

#include "util/status.h"

namespace graphsig::util {

// Opens `path` with the open(2) `flags` (new files get mode 0644),
// writes all of `bytes` (retrying short writes and EINTR), then fsyncs
// and closes it.
Status WriteAndSync(const std::string& path, int flags,
                    std::string_view bytes);

// Fsyncs the directory holding `path`, so that a file created in it or
// renamed into it survives a crash.
Status SyncParentDirectory(const std::string& path);

// Replaces `path` with `bytes`: writes and fsyncs `<path>.tmp`, renames
// it over `path`, then fsyncs the directory. A reader sees the old file
// or the whole new one, never a part. On failure the temp file is
// removed and `path` is left as it was.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_DURABLE_FILE_H_
