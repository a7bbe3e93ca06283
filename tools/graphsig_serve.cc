// graphsig_serve: the GraphSig query daemon. Loads a model artifact,
// then serves Query/ApproxQuery/Stats/Health RPCs over the binary wire
// protocol (src/net/wire.h) from a non-blocking epoll loop, dispatching
// each decoded query onto the shared thread pool as one task.
//
//   graphsig_serve --model=model.gsig [--host=127.0.0.1] [--port=7117]
//                  [--max-inflight=64] [--max-frame-mb=16] [--drain-timeout=5]
//                  [--stats-log-period=0 (seconds; 0 = off)]
//                  [--reload-period=0 (seconds; 0 = SIGHUP only)]
//                  [--metrics-out=FILE (dumped after drain)]
//
// --port=0 binds an ephemeral port; the actual port is printed on the
// "listening on" line (stdout, flushed) so scripts can scrape it.
// --port must lie in [0, 65535], --max-inflight must be >= 1,
// --max-frame-mb in [1, 4095], and --drain-timeout, --stats-log-period
// and --reload-period in [0, 86400] seconds; anything else (including a
// value that does not parse) exits 1 naming the flag.
//
// The catalog is held behind a serve::CatalogHandle, so a running
// server can hot-swap to a newer artifact generation (the streaming
// pipeline rewrites the model file after each ingest) without dropping
// in-flight queries. SIGHUP reloads immediately; --reload-period=N
// additionally polls the model file's mtime every N seconds. A reload
// whose artifact fails to load leaves the served catalog untouched.
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
// in-flight requests, flush every reply and the log sink, then exit 0.
// Clients mid-request see their replies; idle clients see EOF.

#include <sys/stat.h>

#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "net/server.h"
#include "serve/catalog_handle.h"
#include "serve/pattern_catalog.h"
#include "tools/tool_util.h"
#include "util/timer.h"

namespace {

std::atomic<graphsig::net::Server*> g_server{nullptr};
// Signal-handler flag; registry lookups are not async-signal-safe.
std::atomic<bool> g_reload_requested{false};

void HandleDrainSignal(int /*sig*/) {
  // RequestShutdown is async-signal-safe (atomic store + eventfd write).
  graphsig::net::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

void HandleReloadSignal(int /*sig*/) {
  g_reload_requested.store(true, std::memory_order_release);
}

// Model file mtime (nanosecond resolution), 0 if unreadable.
int64_t FileMtimeNs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         st.st_mtim.tv_nsec;
}

// Loads the artifact at `path` and swaps it into `handle` as the next
// generation. On failure the old catalog keeps serving.
void TryReload(const std::string& path,
               graphsig::serve::CatalogHandle* handle) {
  using namespace graphsig;
  util::WallTimer timer;
  auto reloaded = serve::PatternCatalog::LoadFromFile(path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload failed (still serving previous): %s\n",
                 reloaded.status().ToString().c_str());
    return;
  }
  auto next = std::make_shared<const serve::PatternCatalog>(
      std::move(reloaded).value());
  const uint64_t generation = next->generation();
  const size_t patterns = next->num_patterns();
  handle->Swap(std::move(next));
  std::fprintf(stderr,
               "reloaded %s in %.2fs: generation %llu, %zu patterns\n",
               path.c_str(), timer.ElapsedSeconds(),
               static_cast<unsigned long long>(generation), patterns);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphsig;
  tools::Flags flags(argc, argv);
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr,
                 "usage: graphsig_serve --model=FILE [--host=ADDR] "
                 "[--port=N (0 = ephemeral)] [--max-inflight=N] "
                 "[--max-frame-mb=N] [--drain-timeout=SECONDS] "
                 "[--stats-log-period=SECONDS] [--reload-period=SECONDS] "
                 "[--metrics-out=FILE]\n");
    return 1;
  }
  net::ServerConfig config;
  const std::optional<int64_t> port =
      tools::FlagInRange<int64_t>(flags, "port", 7117, 0, 65535);
  const std::optional<int64_t> max_inflight = tools::FlagInRange<int64_t>(
      flags, "max-inflight",
      static_cast<int64_t>(config.max_inflight_requests), 1,
      std::numeric_limits<int64_t>::max());
  // The frame header's u32 payload length cannot announce 4 GiB, so a
  // larger cap would never bind.
  const std::optional<int64_t> max_frame_mb =
      tools::FlagInRange<int64_t>(flags, "max-frame-mb", 16, 1, 4095);
  // A day at most: the serve loop wakes every half stats period, in
  // whole milliseconds held in an int.
  constexpr double kMaxPeriodSeconds = 86400.0;
  const std::optional<double> drain_timeout = tools::FlagInRange(
      flags, "drain-timeout", config.drain_timeout_seconds, 0.0,
      kMaxPeriodSeconds);
  const std::optional<double> stats_log_period = tools::FlagInRange(
      flags, "stats-log-period", config.stats_log_period_seconds, 0.0,
      kMaxPeriodSeconds);
  const std::optional<double> reload_period = tools::FlagInRange(
      flags, "reload-period", 0.0, 0.0, kMaxPeriodSeconds);
  if (!port || !max_inflight || !max_frame_mb || !drain_timeout ||
      !stats_log_period || !reload_period) {
    return 1;
  }

  util::WallTimer load_timer;
  auto loaded = serve::PatternCatalog::LoadFromFile(model_path);
  if (!loaded.ok()) tools::Fail(loaded.status());
  auto initial = std::make_shared<const serve::PatternCatalog>(
      std::move(loaded).value());
  std::fprintf(stderr,
               "loaded %s in %.2fs: %zu graphs indexed, %zu significant "
               "patterns, generation %llu, classifier: %s\n",
               model_path.c_str(), load_timer.ElapsedSeconds(),
               initial->artifact().database.size(), initial->num_patterns(),
               static_cast<unsigned long long>(initial->generation()),
               initial->has_classifier() ? "yes" : "no");
  serve::CatalogHandle handle(std::move(initial));

  config.host = flags.GetString("host", config.host);
  config.port = static_cast<uint16_t>(*port);
  config.max_inflight_requests = static_cast<size_t>(*max_inflight);
  config.max_frame_bytes = static_cast<size_t>(*max_frame_mb) << 20;
  config.drain_timeout_seconds = *drain_timeout;
  config.stats_log_period_seconds = *stats_log_period;

  net::Server server(&handle, config);
  util::Status started = server.Start();
  if (!started.ok()) tools::Fail(started);

  // The drain handler replaces the default die-on-signal disposition:
  // a server wants stop-accepting + finish-in-flight, not an abrupt
  // exit with replies half-written.
  g_server.store(&server, std::memory_order_release);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  std::signal(SIGHUP, HandleReloadSignal);

  std::printf("listening on %s:%u\n", config.host.c_str(), server.port());
  std::fflush(stdout);

  // Reload watcher: swaps in a fresh catalog on SIGHUP, and (when
  // --reload-period > 0) whenever the model file's mtime changes. Runs
  // until the event loop drains.
  std::atomic<bool> stop_reloader{false};
  std::thread reloader([&] {
    int64_t last_mtime = FileMtimeNs(model_path);
    double since_poll = 0.0;
    while (!stop_reloader.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      since_poll += 0.1;
      bool want_reload =
          g_reload_requested.exchange(false, std::memory_order_acq_rel);
      if (*reload_period > 0 && since_poll >= *reload_period) {
        since_poll = 0.0;
        const int64_t mtime = FileMtimeNs(model_path);
        if (mtime != 0 && mtime != last_mtime) {
          last_mtime = mtime;
          want_reload = true;
        }
      }
      if (want_reload) TryReload(model_path, &handle);
    }
  });

  util::Status served = server.Serve();
  g_server.store(nullptr, std::memory_order_release);
  stop_reloader.store(true, std::memory_order_release);
  reloader.join();
  if (!served.ok()) tools::Fail(served);

  const net::ServerCounters counters = server.counters();
  const serve::ServingStats stats = handle.Current()->Snapshot();
  std::fprintf(stderr,
               "drained: %llu connections, %llu frames, %llu requests "
               "served, %llu protocol errors, %llu retries\n",
               static_cast<unsigned long long>(
                   counters.connections_accepted),
               static_cast<unsigned long long>(counters.frames_received),
               static_cast<unsigned long long>(counters.requests_served),
               static_cast<unsigned long long>(counters.protocol_errors),
               static_cast<unsigned long long>(counters.retries_sent));
  std::fprintf(stderr,
               "serving counters: %lld queries | mean latency %.3fms | "
               "max %.3fms | %lld pattern matches\n",
               static_cast<long long>(stats.queries),
               stats.mean_latency_ms(), stats.max_latency_ms,
               static_cast<long long>(stats.pattern_matches));

  // After the drain every in-flight request has flushed its counters,
  // so the dump is the complete server-side view of the workload.
  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
    std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
