#ifndef GRAPHSIG_NET_SOCKET_H_
#define GRAPHSIG_NET_SOCKET_H_

// Thin RAII + Status layer over POSIX TCP sockets. Every raw socket
// syscall in the project lives in socket.cc (scripts/lint.py bans
// send/recv/close/epoll_* outside src/net/), so error handling,
// SIGPIPE suppression (MSG_NOSIGNAL), and EINTR retries are written
// exactly once.
//
// Two I/O styles, matching the two sides of the protocol:
//   * blocking exact-count helpers (WriteAll/ReadExact) with socket
//     timeouts — the client and the tools;
//   * nonblocking chunk helpers (ReadSome/WriteSome) reporting
//     would-block as a state, not an error — the epoll server loop.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace graphsig::net {

// Owns one file descriptor; closes it on destruction. Movable so
// accept loops can hand connections around; not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Reset(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  // Closes the current fd (if any) and adopts `fd`.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Binds and listens on host:port (IPv4 dotted quad, or "localhost").
// Port 0 binds an ephemeral port — read it back with LocalPort. The
// returned socket has SO_REUSEADDR set and is left blocking; the server
// switches it to nonblocking itself.
util::Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                               int backlog);

// The locally bound port of a listening or connected socket.
util::Result<uint16_t> LocalPort(const Socket& socket);

// Connects to host:port, failing with DeadlineExceeded after
// `timeout_seconds` (<= 0 means block indefinitely). The returned
// socket is blocking with TCP_NODELAY set (the protocol is
// request/response; Nagle only adds latency).
util::Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                                double timeout_seconds);

// Accepts one pending connection from a listening socket.
// Would-block (no pending connection on a nonblocking listener) is
// reported as an invalid Socket with ok() status via `*would_block`.
util::Result<Socket> AcceptConnection(const Socket& listener,
                                      bool* would_block);

util::Status SetNonBlocking(int fd, bool nonblocking);

// SO_RCVTIMEO / SO_SNDTIMEO for the blocking client paths; timed-out
// I/O surfaces as DeadlineExceeded from ReadExact/WriteAll.
util::Status SetIoTimeout(int fd, double seconds);

// Writes all of `bytes` (blocking socket), retrying short writes and
// EINTR. SIGPIPE is suppressed; a closed peer returns IoError.
util::Status WriteAll(int fd, std::string_view bytes);

// Reads exactly `n` bytes into *out (appending). EOF before `n` bytes
// is IoError("connection closed..."); a receive timeout is
// DeadlineExceeded.
util::Status ReadExact(int fd, size_t n, std::string* out);

// Nonblocking I/O outcome for the event loop.
enum class IoState {
  kOk,          // made progress
  kWouldBlock,  // no progress possible now; wait for epoll
  kEof,         // peer closed (read side only)
  kError,       // hard error; see the Status out-param
};

// Reads up to `max_bytes`, appending to *buf.
IoState ReadSome(int fd, size_t max_bytes, std::string* buf,
                 util::Status* error);

// Writes a prefix of `bytes`; *written reports how many were accepted.
IoState WriteSome(int fd, std::string_view bytes, size_t* written,
                  util::Status* error);

}  // namespace graphsig::net

#endif  // GRAPHSIG_NET_SOCKET_H_
