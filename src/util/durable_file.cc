#include "util/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/strings.h"

namespace graphsig::util {

Status WriteAndSync(const std::string& path, int flags,
                    std::string_view bytes) {
  auto failed = [&path](const char* call) {
    return Status::IoError(
        StrPrintf("%s %s: %s", call, path.c_str(), std::strerror(errno)));
  };
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) return failed("open");
  Status status = Status::Ok();
  size_t written = 0;
  while (status.ok() && written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n >= 0) {
      written += static_cast<size_t>(n);
    } else if (errno != EINTR) {
      status = failed("write");
    }
  }
  if (status.ok() && ::fsync(fd) != 0) status = failed("fsync");
  // A file, not a socket.
  if (::close(fd) != 0 && status.ok()) {  // lint:allow=raw-socket
    status = failed("close");
  }
  return status;
}

Status SyncParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  return WriteAndSync(dir, O_RDONLY | O_DIRECTORY, "");
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  const std::string temp = path + ".tmp";
  Status status = WriteAndSync(temp, O_WRONLY | O_CREAT | O_TRUNC, bytes);
  if (status.ok()) {
    std::error_code error;
    std::filesystem::rename(temp, path, error);
    if (error) {
      status = Status::IoError("rename " + temp + " to " + path + ": " +
                               error.message());
    }
  }
  if (!status.ok()) {
    ::unlink(temp.c_str());
    return status;
  }
  return SyncParentDirectory(path);
}

}  // namespace graphsig::util
