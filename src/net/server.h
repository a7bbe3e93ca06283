#ifndef GRAPHSIG_NET_SERVER_H_
#define GRAPHSIG_NET_SERVER_H_

// The GraphSig query server: one non-blocking epoll event loop feeding
// decoded requests to the shared worker pool (DESIGN.md §11).
//
// Architecture (one box per thread role):
//
//   event loop (thread that called Serve)   pool workers
//   -------------------------------------   --------------------------
//   accept / read / frame-split        -->  decode payload, run the
//   admission control, reply ordering       catalog query, encode the
//   write replies, close, drain        <--  reply frame
//
// The loop owns every Connection for its whole lifetime. Workers never
// touch a Connection: a dispatched request carries only (connection
// id, reply slot, frame bytes); the finished reply comes back through
// the mutex-guarded completion queue plus an eventfd wakeup, and the
// loop matches it to the connection — or drops it if the peer is
// gone. That split keeps all per-connection state single-threaded (no
// locks, no torn states) while queries themselves run concurrently.
//
// Backpressure is explicit: at most max_inflight_requests requests may
// be queued-or-executing at once; a request over that bound is
// answered immediately with RETRY_LATER instead of buffering
// unboundedly. Every frame carries one request, so admission is
// counted per request and one pool task serves it.
//
// Graceful drain (RequestShutdown, signal-safe): stop accepting/
// reading, finish dispatched requests, flush every reply, then return
// from Serve(). Connections still open after drain_timeout_seconds are
// force-closed; Serve() always waits for in-flight pool tasks before
// returning so no worker outlives the server.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/catalog_handle.h"
#include "serve/pattern_catalog.h"
#include "util/status.h"
#include "util/sync.h"

namespace graphsig::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read it back with Server::port().
  uint16_t port = 0;
  // Hard cap on one frame's payload; larger announcements are protocol
  // errors and close the connection.
  size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
  // Admission bound: requests queued-or-executing before RETRY_LATER.
  size_t max_inflight_requests = 64;
  // Force-close straggling connections this long after drain starts.
  double drain_timeout_seconds = 5.0;
  // Emit one structured "stats:" log line this often (0 = disabled).
  // The line carries the transport counters and serving totals, so a
  // long-running server leaves a coarse utilization trace in its logs.
  double stats_log_period_seconds = 0.0;
};

// Transport-level counters, readable from any thread.
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t frames_received = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;
  uint64_t retries_sent = 0;
};

class Server {
 public:
  // `catalog` must outlive the server. The handle indirection is what
  // makes generation hot-swaps safe: every request handler snapshots
  // the current catalog exactly once (a shared_ptr copy) and runs
  // against that immutable snapshot, so the owner may Swap() in a new
  // generation at any moment without dropping in-flight queries.
  Server(const serve::CatalogHandle* catalog, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and sets up the epoll/eventfd pair. After Start(),
  // port() is the actual bound port.
  util::Status Start();
  uint16_t port() const { return port_; }

  // Runs the event loop on the calling thread until a drain completes.
  // Requires Start() to have succeeded.
  util::Status Serve();

  // Begins a graceful drain. Safe from any thread and from signal
  // handlers (one atomic store + one eventfd write). Idempotent.
  void RequestShutdown();

  ServerCounters counters() const;
  bool draining() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

 private:
  // One reply-in-order slot; see Connection::pending.
  struct ReplySlot {
    bool done = false;
    std::string frame;  // fully encoded reply frame, valid when done
  };

  struct Connection {
    Socket socket;
    wire::FrameDecoder decoder;
    std::string outbuf;      // reply bytes not yet accepted by the kernel
    int inflight = 0;        // requests dispatched, completion pending
    bool want_read = true;   // false: EOF seen, errored, or draining
    bool closing = false;    // erase once inflight drains + outbuf flushes
    bool broken = false;     // write side dead; drop pending replies
    uint32_t epoll_events = 0;  // currently registered interest set

    // FIFO reply ordering. The wire protocol has no request ids, so a
    // client pipelining N requests matches replies to requests purely
    // by order — but pool workers complete in any order. Every request
    // therefore claims a slot here at dispatch time (inline handlers
    // fill theirs immediately); only the filled prefix is ever written
    // to the socket. Slot seq - head_seq indexes into the deque.
    std::deque<ReplySlot> pending;
    uint64_t next_seq = 0;  // seq the next dispatched request gets
    uint64_t head_seq = 0;  // seq of pending.front()

    explicit Connection(Socket s, size_t max_frame)
        : socket(std::move(s)), decoder(max_frame) {}
  };

  struct Completion {
    uint64_t conn_id;
    uint64_t seq;       // reply slot within the connection
    std::string frame;  // fully encoded reply frame
  };

  void HandleListener();
  void HandleConnectionRead(uint64_t id, Connection* conn);
  void HandleConnectionWrite(uint64_t id, Connection* conn);
  // Splits buffered bytes into frames and dispatches them; stops at a
  // fatal protocol error (which queues an Error reply and closes).
  void ConsumeFrames(uint64_t id, Connection* conn);
  void DispatchRequest(uint64_t id, Connection* conn, wire::Frame frame);
  // Executed on a pool worker: returns the encoded reply frame.
  std::string ProcessRequest(const wire::Frame& frame);
  std::string ProcessQuery(std::string_view payload);
  std::string ProcessApprox(std::string_view payload);
  std::string ProcessStats();
  std::string ProcessHealth();
  // One structured log line with the current counters (see
  // ServerConfig::stats_log_period_seconds).
  void LogStatsLine();
  void PushCompletion(uint64_t conn_id, uint64_t seq, std::string frame);
  void DrainCompletions();
  // Claims the next in-order reply slot for a request on `conn`.
  uint64_t AllocateReplySlot(Connection* conn);
  // Fills slot `seq` and flushes the filled prefix of pending replies
  // to the socket, preserving request order.
  void QueueReply(Connection* conn, uint64_t seq, std::string frame);
  void SendFrame(Connection* conn, std::string frame);
  // Flushes as much outbuf as the kernel accepts right now.
  void FlushWrites(Connection* conn);
  void UpdateInterest(uint64_t id, Connection* conn);
  void BeginDrain();
  // Erases the connection if it is closing and fully settled.
  void MaybeErase(uint64_t id);
  void EraseConnection(uint64_t id);

  const serve::CatalogHandle* catalog_ GS_UNGUARDED_BY_DESIGN(
      "set in the constructor, read-only afterwards; the handle itself "
      "is internally locked");
  ServerConfig config_ GS_UNGUARDED_BY_DESIGN(
      "set in the constructor, read-only afterwards");

  // The epoll instance (RAII via Socket: it is just an fd).
  Socket epoll_ GS_UNGUARDED_BY_DESIGN(
      "created in Start(); polled only by the loop thread");
  // eventfd: completions + shutdown. Writing an eventfd is atomic at
  // the kernel boundary, so cross-thread writers need no user-space
  // lock.
  Socket wakeup_ GS_UNGUARDED_BY_DESIGN(
      "created in Start(); fd writes are kernel-atomic");
  Socket listener_ GS_UNGUARDED_BY_DESIGN(
      "bound in Start(); the loop thread's only afterwards");
  uint16_t port_ GS_UNGUARDED_BY_DESIGN(
      "written by Start() before the loop runs") = 0;
  bool started_ GS_UNGUARDED_BY_DESIGN(
      "written by Start() before the loop runs") = false;

  std::map<uint64_t, std::unique_ptr<Connection>> connections_
      GS_UNGUARDED_BY_DESIGN("owned by the loop thread");
  // 0 = listener, 1 = wakeup sentinel.
  uint64_t next_conn_id_ GS_UNGUARDED_BY_DESIGN(
      "owned by the loop thread") = 2;
  size_t inflight_total_ GS_UNGUARDED_BY_DESIGN(
      "owned by the loop thread") = 0;
  bool drain_started_ GS_UNGUARDED_BY_DESIGN(
      "owned by the loop thread") = false;

  // Workers push finished replies here; the loop drains them.
  util::Mutex completions_mutex_;
  std::deque<Completion> completions_ GS_GUARDED_BY(completions_mutex_);

  // Not a metric: this is the async-signal-safe shutdown flag, and a
  // registry lookup is not signal-safe.
  std::atomic<bool> shutdown_requested_{false};  // lint:allow=adhoc-atomic

  mutable util::Mutex counters_mutex_;
  ServerCounters counters_ GS_GUARDED_BY(counters_mutex_);
};

}  // namespace graphsig::net

#endif  // GRAPHSIG_NET_SERVER_H_
