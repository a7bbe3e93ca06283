#ifndef GRAPHSIG_NET_CLIENT_H_
#define GRAPHSIG_NET_CLIENT_H_

// Blocking client for the GraphSig query server. One Client owns one
// TCP connection; it is NOT thread-safe — give each thread its own
// (the loadgen and the e2e tests do exactly that).
//
// Failure semantics callers can rely on:
//   * Unavailable      — connection refused, or the server answered
//                        RETRY_LATER (backpressure) / is draining.
//                        Retrying after a pause is the right move.
//   * DeadlineExceeded — connect or I/O timeout.
//   * IoError          — the connection died mid-RPC. The client
//                        reconnects and retries ONCE per RPC before
//                        surfacing this (queries are idempotent).
//   * other codes      — the server's typed Error reply, re-inflated
//                        into the Status the handler reported.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace graphsig::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 5.0;
  // Per-socket-operation deadline (SO_RCVTIMEO/SO_SNDTIMEO).
  double io_timeout_seconds = 30.0;
  // Reconnect-and-retry attempts after a broken connection (not after
  // timeouts or typed errors). 0 disables reconnecting.
  int max_reconnect_attempts = 1;
};

class Client {
 public:
  explicit Client(ClientConfig config) : config_(std::move(config)) {}

  util::Status Connect();
  void Close() { socket_.Reset(); }
  bool connected() const { return socket_.valid(); }

  // One query, one round trip.
  util::Result<wire::QueryReply> Query(const graph::Graph& query,
                                       const wire::QueryOptions& options = {});

  // Pipelining: writes every Query frame back-to-back, then reads the
  // replies in order; replies align positionally with `queries`. Each
  // frame is an independent server-side request, so per-request
  // admission control applies (any RETRY_LATER fails the whole pipeline
  // as Unavailable).
  util::Result<std::vector<wire::QueryReply>> PipelineQueries(
      const std::vector<graph::Graph>& queries,
      const wire::QueryOptions& options = {});

  // One approximate-estimate query: the server runs the seeded
  // estimator `request` names and returns the estimate with its
  // confidence interval.
  util::Result<wire::ApproxReply> Approx(const wire::ApproxRequest& request);

  // The server's counters, named work counters and catalog generation.
  util::Result<wire::StatsReply> Stats();
  util::Result<wire::HealthReply> Health();

 private:
  // Sends one request frame and reads one reply frame, reconnecting and
  // retrying once on a broken connection.
  util::Result<wire::Frame> RoundTrip(wire::MessageType type,
                                      const std::string& payload);
  util::Status SendFrame(wire::MessageType type, std::string_view payload);
  util::Result<wire::Frame> ReadFrame();
  // Maps RetryLater/Error envelope frames to Status; returns the frame
  // unchanged if it matches `expected`.
  util::Result<wire::Frame> ExpectType(wire::Frame frame,
                                       wire::MessageType expected);

  ClientConfig config_;
  Socket socket_;
};

}  // namespace graphsig::net

#endif  // GRAPHSIG_NET_CLIENT_H_
