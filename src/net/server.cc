#include "net/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace graphsig::net {

namespace {

// Per-frame-type arrival counters. For a fixed workload the stream of
// request frames is deterministic, so these are work counters and land
// in the CI baseline (DESIGN.md §12). One static per case keeps the
// hot path at a single relaxed add after first use.
obs::Counter* FrameTypeCounter(wire::MessageType type) {
  auto& registry = obs::MetricsRegistry::Global();
  switch (type) {
    case wire::MessageType::kQuery: {
      static obs::Counter* const c = registry.GetCounter("net/frames/query");
      return c;
    }
    case wire::MessageType::kStats: {
      static obs::Counter* const c = registry.GetCounter("net/frames/stats");
      return c;
    }
    case wire::MessageType::kHealth: {
      static obs::Counter* const c =
          registry.GetCounter("net/frames/health");
      return c;
    }
    case wire::MessageType::kApproxQuery: {
      static obs::Counter* const c =
          registry.GetCounter("net/frames/approx_query");
      return c;
    }
    default: {
      // Reply/error types arriving as requests; counted, then rejected
      // by DispatchRequest.
      static obs::Counter* const c = registry.GetCounter("net/frames/other");
      return c;
    }
  }
}

// Reply sizes depend on scheduling only in their interleaving, but the
// histogram is advisory anyway: CI asserts on counts of frames, not
// byte distributions.
obs::Histogram* ReplyBytesHistogram() {
  static obs::Histogram* const h =
      obs::MetricsRegistry::Global().GetHistogram(
          "net/reply_bytes",
          {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576});
  return h;
}

// epoll user-data sentinels; real connections start at id 2.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeupId = 1;
// One nonblocking read per EPOLLIN wakeup; level-triggered epoll
// re-notifies while more bytes are pending, so a flooding client cannot
// starve other connections.
constexpr size_t kReadChunkBytes = 64 * 1024;
constexpr int kListenBacklog = 128;

std::string ErrorFrame(const util::Status& status) {
  wire::ErrorReply reply;
  reply.code = status.code();
  reply.message = status.message();
  return wire::EncodeFrame(wire::MessageType::kError,
                           wire::EncodeErrorReply(reply));
}

util::Status Errno(const char* what) {
  return util::Status::IoError(
      util::StrPrintf("%s: %s", what, strerror(errno)));
}

}  // namespace

Server::Server(const serve::CatalogHandle* catalog, ServerConfig config)
    : catalog_(catalog), config_(std::move(config)) {}

Server::~Server() = default;

util::Status Server::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("server already started");
  }
  GS_ASSIGN_OR_RETURN(
      listener_,
      ListenTcp(config_.host, config_.port, kListenBacklog));
  GS_RETURN_IF_ERROR(SetNonBlocking(listener_.fd(), true));
  GS_ASSIGN_OR_RETURN(port_, LocalPort(listener_));

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) return Errno("epoll_create1");
  epoll_.Reset(epfd);
  const int evfd = ::eventfd(0, EFD_NONBLOCK);
  if (evfd < 0) return Errno("eventfd");
  wakeup_.Reset(evfd);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeupId;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, wakeup_.fd(), &ev) != 0) {
    return Errno("epoll_ctl(eventfd)");
  }
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Errno("epoll_ctl(listener)");
  }
  started_ = true;
  util::LogInfo(util::StrPrintf("server listening on %s:%u",
                                config_.host.c_str(), port_));
  return util::Status::Ok();
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Async-signal-safe wakeup: one 8-byte eventfd write. The loop
  // notices the flag on its next iteration even if the write is lost
  // to a full counter.
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeup_.fd(), &one, sizeof(one));
}

ServerCounters Server::counters() const {
  util::MutexLock lock(&counters_mutex_);
  return counters_;
}

util::Status Server::Serve() {
  if (!started_) {
    return util::Status::FailedPrecondition("Start() must succeed first");
  }
  util::WallTimer drain_timer;
  util::WallTimer stats_log_timer;
  std::array<epoll_event, 64> events;
  while (!(drain_started_ && connections_.empty() && inflight_total_ == 0)) {
    // Block indefinitely in steady state; tick during drain so the
    // force-close deadline fires even with no socket activity. With
    // periodic stats logging enabled, wake at least often enough that
    // the next line is at most half a period late on an idle server.
    int timeout_ms = drain_started_ ? 50 : -1;
    if (config_.stats_log_period_seconds > 0.0) {
      if (stats_log_timer.ElapsedSeconds() >=
          config_.stats_log_period_seconds) {
        LogStatsLine();
        stats_log_timer.Restart();
      }
      const int tick_ms = static_cast<int>(
          config_.stats_log_period_seconds * 500.0) + 1;
      if (timeout_ms < 0 || tick_ms < timeout_ms) timeout_ms = tick_ms;
    }
    const int n = ::epoll_wait(epoll_.fd(), events.data(),
                               static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        HandleListener();
        continue;
      }
      if (id == kWakeupId) {
        uint64_t drained;
        while (::read(wakeup_.fd(), &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed this batch
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleConnectionRead(id, conn);
      }
      // The read may have erased the connection; re-find before writing.
      it = connections_.find(id);
      if (it != connections_.end() && (events[i].events & EPOLLOUT)) {
        HandleConnectionWrite(id, it->second.get());
      }
    }
    if (shutdown_requested_.load(std::memory_order_acquire) &&
        !drain_started_) {
      BeginDrain();
      drain_timer.Restart();
    }
    if (drain_started_ && !connections_.empty() &&
        drain_timer.ElapsedSeconds() > config_.drain_timeout_seconds) {
      util::LogWarning(util::StrPrintf(
          "drain timeout: force-closing %zu connection(s)",
          connections_.size()));
      while (!connections_.empty()) {
        EraseConnection(connections_.begin()->first);
      }
    }
  }

  util::LogInfo(util::StrPrintf(
      "server on port %u drained: %llu connections served, %llu requests, "
      "%llu protocol errors, %llu retries",
      port_,
      static_cast<unsigned long long>(counters().connections_accepted),
      static_cast<unsigned long long>(counters().requests_served),
      static_cast<unsigned long long>(counters().protocol_errors),
      static_cast<unsigned long long>(counters().retries_sent)));
  util::FlushLogs();
  return util::Status::Ok();
}

void Server::HandleListener() {
  while (true) {
    bool would_block = false;
    auto accepted = AcceptConnection(listener_, &would_block);
    if (!accepted.ok()) {
      // Transient accept failures (EMFILE under fd pressure) must not
      // kill the loop; log and keep serving existing connections.
      util::LogWarning("accept failed: " + accepted.status().ToString());
      return;
    }
    if (would_block) return;
    Socket sock = std::move(accepted).value();
    if (util::Status nb = SetNonBlocking(sock.fd(), true); !nb.ok()) {
      util::LogWarning("new connection dropped: " + nb.ToString());
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(std::move(sock),
                                             config_.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, conn->socket.fd(), &ev) !=
        0) {
      util::LogWarning(Errno("epoll_ctl(add connection)").ToString());
      continue;
    }
    conn->epoll_events = EPOLLIN;
    connections_.emplace(id, std::move(conn));
    util::MutexLock lock(&counters_mutex_);
    ++counters_.connections_accepted;
    ++counters_.connections_active;
  }
}

void Server::HandleConnectionRead(uint64_t id, Connection* conn) {
  if (!conn->want_read) {
    // Drain/half-close: EPOLLHUP can still tick; nothing to read.
    MaybeErase(id);
    return;
  }
  std::string chunk;
  util::Status error;
  switch (ReadSome(conn->socket.fd(), kReadChunkBytes, &chunk, &error)) {
    case IoState::kOk:
      conn->decoder.Append(chunk);
      ConsumeFrames(id, conn);
      break;
    case IoState::kWouldBlock:
      break;
    case IoState::kEof:
      // Half-close: the peer is done sending but may still read
      // replies. Serve the in-flight requests, flush, then close.
      conn->want_read = false;
      conn->closing = true;
      break;
    case IoState::kError:
      conn->broken = true;
      conn->closing = true;
      conn->want_read = false;
      conn->outbuf.clear();
      break;
  }
  auto it = connections_.find(id);
  if (it != connections_.end()) {
    UpdateInterest(id, conn);
    MaybeErase(id);
  }
}

void Server::ConsumeFrames(uint64_t id, Connection* conn) {
  while (conn->want_read) {
    auto next = conn->decoder.Next();
    if (!next.ok()) {
      // Protocol violation: report it on the wire, then close once the
      // error (and any already-dispatched replies) have flushed.
      {
        util::MutexLock lock(&counters_mutex_);
        ++counters_.protocol_errors;
      }
      util::LogWarning(util::StrPrintf(
          "connection %llu protocol error: %s",
          static_cast<unsigned long long>(id),
          next.status().ToString().c_str()));
      // Queued, not sent directly: replies to requests that were
      // already dispatched must still go out first.
      QueueReply(conn, AllocateReplySlot(conn), ErrorFrame(next.status()));
      conn->want_read = false;
      conn->closing = true;
      return;
    }
    if (!next.value().has_value()) return;  // need more bytes
    {
      util::MutexLock lock(&counters_mutex_);
      ++counters_.frames_received;
    }
    FrameTypeCounter(next.value()->type)->Increment();
    DispatchRequest(id, conn, std::move(*next.value()));
  }
}

void Server::DispatchRequest(uint64_t id, Connection* conn,
                             wire::Frame frame) {
  switch (frame.type) {
    case wire::MessageType::kStats:
    case wire::MessageType::kHealth: {
      // Stats and health answer inline on the loop thread: they are a
      // few mutex-guarded reads, and keeping them outside admission
      // control means monitoring still works while the server sheds
      // query load. They still claim a reply slot so pipelined replies
      // keep request order. Neither request carries a payload; one that
      // does is answered like any undecodable request, on a connection
      // that stays open.
      std::string reply;
      if (!frame.payload.empty()) {
        reply = ErrorFrame(util::Status::ParseError(util::StrPrintf(
            "%s request must be empty, got %zu payload bytes",
            wire::MessageTypeName(frame.type), frame.payload.size())));
      } else if (frame.type == wire::MessageType::kStats) {
        reply = ProcessStats();
      } else {
        reply = ProcessHealth();
      }
      QueueReply(conn, AllocateReplySlot(conn), std::move(reply));
      return;
    }
    case wire::MessageType::kQuery:
    case wire::MessageType::kApproxQuery:
      break;
    default: {
      util::MutexLock lock(&counters_mutex_);
      ++counters_.protocol_errors;
    }
      QueueReply(conn, AllocateReplySlot(conn),
                 ErrorFrame(util::Status::InvalidArgument(util::StrPrintf(
                     "%s is not a request",
                     wire::MessageTypeName(frame.type)))));
      conn->want_read = false;
      conn->closing = true;
      return;
  }
  if (inflight_total_ >= config_.max_inflight_requests) {
    {
      util::MutexLock lock(&counters_mutex_);
      ++counters_.retries_sent;
    }
    QueueReply(conn, AllocateReplySlot(conn),
               wire::EncodeFrame(wire::MessageType::kRetryLater, ""));
    return;
  }
  ++inflight_total_;
  ++conn->inflight;
  const uint64_t seq = AllocateReplySlot(conn);
  auto shared = std::make_shared<wire::Frame>(std::move(frame));
  util::ThreadPool::Global().Submit([this, id, seq, shared] {
    std::string reply;
    // Submit() tasks must not throw; anything escaping the handlers
    // becomes an Internal error reply so the connection learns of it.
    try {
      reply = ProcessRequest(*shared);
    } catch (const std::exception& e) {
      reply = ErrorFrame(util::Status::Internal(
          util::StrPrintf("request handler threw: %s", e.what())));
    } catch (...) {
      reply = ErrorFrame(
          util::Status::Internal("request handler threw a non-exception"));
    }
    PushCompletion(id, seq, std::move(reply));
  });
}

std::string Server::ProcessRequest(const wire::Frame& frame) {
  switch (frame.type) {
    case wire::MessageType::kQuery:
      return ProcessQuery(frame.payload);
    case wire::MessageType::kApproxQuery:
      return ProcessApprox(frame.payload);
    default:
      return ErrorFrame(util::Status::Internal("unreachable request type"));
  }
}

std::string Server::ProcessQuery(std::string_view payload) {
  auto request = wire::DecodeQueryRequest(payload);
  if (!request.ok()) return ErrorFrame(request.status());
  serve::CatalogQueryConfig config;
  config.compute_matches = request.value().options.compute_matches;
  config.compute_score = request.value().options.compute_score;
  // One snapshot per request: a generation swap mid-query is invisible.
  const auto catalog = catalog_->Current();
  const serve::QueryResult result =
      catalog->Query(request.value().query, config);
  return wire::EncodeFrame(
      wire::MessageType::kQueryReply,
      wire::EncodeQueryReply(wire::ReplyFromResult(result)));
}

std::string Server::ProcessApprox(std::string_view payload) {
  auto request = wire::DecodeApproxRequest(payload);
  if (!request.ok()) return ErrorFrame(request.status());
  serve::ApproxQueryConfig config;
  config.mode = static_cast<approx::ApproxMode>(request.value().mode);
  config.seed = request.value().seed;
  config.samples = static_cast<int32_t>(request.value().samples);
  config.confidence = request.value().confidence;
  // Estimator-internal parallelism stays off: each request is one pool
  // task, and the reply must not depend on worker count anyway.
  config.num_threads = 1;
  const auto catalog = catalog_->Current();
  auto result = catalog->ApproxQuery(request.value().pattern, config);
  if (!result.ok()) return ErrorFrame(result.status());
  return wire::EncodeFrame(
      wire::MessageType::kApproxReply,
      wire::EncodeApproxReply(wire::ReplyFromApprox(result.value())));
}

std::string Server::ProcessStats() {
  wire::StatsReply reply;
  const auto catalog = catalog_->Current();
  reply.serving = catalog->Snapshot();
  const ServerCounters counters = this->counters();
  reply.connections_accepted = counters.connections_accepted;
  reply.connections_active = counters.connections_active;
  reply.frames_received = counters.frames_received;
  reply.requests_served = counters.requests_served;
  reply.protocol_errors = counters.protocol_errors;
  reply.retries_sent = counters.retries_sent;
  // The process's deterministic work counters by name; the map is
  // already sorted, so the section is stable.
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().WorkValues()) {
    reply.work_counters.emplace_back(name, value);
  }
  reply.generation = catalog->generation();
  return wire::EncodeFrame(wire::MessageType::kStatsReply,
                           wire::EncodeStatsReply(reply));
}

std::string Server::ProcessHealth() {
  wire::HealthReply reply;
  reply.ok = true;
  reply.draining = draining();
  const auto catalog = catalog_->Current();
  reply.num_patterns = catalog->num_patterns();
  reply.has_classifier = catalog->has_classifier();
  return wire::EncodeFrame(wire::MessageType::kHealthReply,
                           wire::EncodeHealthReply(reply));
}

void Server::LogStatsLine() {
  const ServerCounters counters = this->counters();
  const serve::ServingStats serving = catalog_->Current()->Snapshot();
  // One line, valid JSON after the "stats: " prefix, so log scrapers
  // can parse it without a bespoke format.
  util::LogInfo(util::StrPrintf(
      "stats: {\"connections_active\": %llu, \"frames_received\": %llu, "
      "\"requests_served\": %llu, \"protocol_errors\": %llu, "
      "\"retries_sent\": %llu, \"queries\": %lld, \"iso_calls\": %lld, "
      "\"pattern_matches\": %lld}",
      static_cast<unsigned long long>(counters.connections_active),
      static_cast<unsigned long long>(counters.frames_received),
      static_cast<unsigned long long>(counters.requests_served),
      static_cast<unsigned long long>(counters.protocol_errors),
      static_cast<unsigned long long>(counters.retries_sent),
      static_cast<long long>(serving.queries),
      static_cast<long long>(serving.iso_calls),
      static_cast<long long>(serving.pattern_matches)));
}

void Server::PushCompletion(uint64_t conn_id, uint64_t seq,
                            std::string frame) {
  {
    util::MutexLock lock(&completions_mutex_);
    completions_.push_back({conn_id, seq, std::move(frame)});
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeup_.fd(), &one, sizeof(one));
}

void Server::DrainCompletions() {
  std::deque<Completion> batch;
  {
    util::MutexLock lock(&completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    --inflight_total_;
    {
      util::MutexLock lock(&counters_mutex_);
      ++counters_.requests_served;
    }
    auto it = connections_.find(done.conn_id);
    if (it == connections_.end()) continue;  // peer gone; drop it
    Connection* conn = it->second.get();
    --conn->inflight;
    QueueReply(conn, done.seq, std::move(done.frame));
    UpdateInterest(done.conn_id, conn);
    MaybeErase(done.conn_id);
  }
}

uint64_t Server::AllocateReplySlot(Connection* conn) {
  conn->pending.emplace_back();
  return conn->next_seq++;
}

void Server::QueueReply(Connection* conn, uint64_t seq, std::string frame) {
  ReplySlot& slot = conn->pending[seq - conn->head_seq];
  slot.done = true;
  slot.frame = std::move(frame);
  // Ship the filled prefix: replies leave in exactly the order their
  // requests arrived, whatever order the workers finished in.
  while (!conn->pending.empty() && conn->pending.front().done) {
    SendFrame(conn, std::move(conn->pending.front().frame));
    conn->pending.pop_front();
    ++conn->head_seq;
  }
}

void Server::SendFrame(Connection* conn, std::string frame) {
  if (conn->broken) return;
  ReplyBytesHistogram()->Observe(frame.size());
  conn->outbuf.append(frame);
  FlushWrites(conn);
}

void Server::FlushWrites(Connection* conn) {
  while (!conn->outbuf.empty() && !conn->broken) {
    size_t written = 0;
    util::Status error;
    switch (WriteSome(conn->socket.fd(), conn->outbuf, &written, &error)) {
      case IoState::kOk:
        conn->outbuf.erase(0, written);
        break;
      case IoState::kWouldBlock:
        return;
      case IoState::kEof:  // not produced by writes
      case IoState::kError:
        conn->broken = true;
        conn->closing = true;
        conn->want_read = false;
        conn->outbuf.clear();
        return;
    }
  }
}

void Server::HandleConnectionWrite(uint64_t id, Connection* conn) {
  FlushWrites(conn);
  UpdateInterest(id, conn);
  MaybeErase(id);
}

void Server::UpdateInterest(uint64_t id, Connection* conn) {
  uint32_t desired = 0;
  if (conn->want_read) desired |= EPOLLIN;
  if (!conn->outbuf.empty() && !conn->broken) desired |= EPOLLOUT;
  if (desired == conn->epoll_events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_.fd(), EPOLL_CTL_MOD, conn->socket.fd(), &ev) ==
      0) {
    conn->epoll_events = desired;
  }
}

void Server::BeginDrain() {
  drain_started_ = true;
  util::LogInfo(util::StrPrintf(
      "drain: %zu connection(s) open, %zu request(s) in flight",
      connections_.size(), inflight_total_));
  if (listener_.valid()) {
    [[maybe_unused]] int rc =
        ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_.Reset();
  }
  // Stop reading everywhere; in-flight requests finish and their
  // replies flush before each connection closes.
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    conn->want_read = false;
    conn->closing = true;
    UpdateInterest(id, conn);
    MaybeErase(id);
  }
}

void Server::MaybeErase(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  const Connection& conn = *it->second;
  const bool settled =
      conn.inflight == 0 && (conn.outbuf.empty() || conn.broken);
  if (conn.closing && settled) EraseConnection(id);
}

void Server::EraseConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  [[maybe_unused]] int rc = ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL,
                                        it->second->socket.fd(), nullptr);
  connections_.erase(it);
  util::MutexLock lock(&counters_mutex_);
  --counters_.connections_active;
}

}  // namespace graphsig::net
