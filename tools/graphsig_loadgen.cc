// graphsig_loadgen: open-loop load generator for graphsig_serve. Replays
// a seeded, reproducible query workload drawn from a database file at a
// fixed offered rate (open loop: send times come from the schedule, not
// from reply arrival, so a slow server accrues queueing delay instead of
// silently lowering the measured rate), spread across N connections each
// driven by its own thread and Client.
//
//   graphsig_loadgen --port=N --input=FILE [--host=127.0.0.1]
//                    [--format=smiles|sdf|gspan] [--qps=200]
//                    [--duration=2] [--connections=1] [--seed=1]
//                    [--count=0 (override qps*duration)] [--no-matches]
//                    [--no-score] [--mix=0.0] [--approx-samples=32]
//                    [--json=FILE] [--verify-model=FILE]
//                    [--metrics-out=FILE]
//
// --mix=F sends fraction F of the schedule as ApproxQuery requests (the
// sampling tier's second query class) instead of exact Query requests;
// which slots go approx — and each approx request's estimator seed — is
// part of the seeded schedule, so the blended request stream replays
// exactly. Latency accounting is kept per query class: the JSON
// reports separate exact/approx histograms, never a blended one.
//
// --verify-model loads the same artifact the server serves and checks
// every reply byte-for-byte against an in-process PatternCatalog — the
// wire protocol's determinism guarantee, enforced end to end for both
// query classes.
//
// The numeric flags are range-checked before any input is read:
// --port in [1, 65535], --qps and --duration > 0, --connections >= 1,
// --count and --seed >= 0, --mix in [0, 1] and --approx-samples in
// [1, serve::kMaxApproxSamplesPerQuery]. A bad value, or one that does
// not parse, exits 1 naming the flag.
//
// Exit status is 0 only if every request got a well-formed reply (server
// RETRY_LATER backpressure is counted separately and tolerated) and no
// verification mismatches occurred.

#include <cmath>
#include <cstdio>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "approx/estimators.h"
#include "net/client.h"
#include "net/wire.h"
#include "serve/pattern_catalog.h"
#include "tools/tool_util.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace graphsig;

// Latency histogram over power-of-two microsecond buckets: bucket k
// counts latencies in (2^(k-1), 2^k] microseconds, so the JSON stays a
// fixed ~26 lines regardless of sample count.
constexpr int kHistogramBuckets = 26;  // up to ~33.5s, then overflow

struct Sample {
  double latency_ms = 0.0;
  enum class Outcome : uint8_t { kOk, kRetryLater, kError } outcome;
  bool is_approx = false;
  bool mismatch = false;
};

struct WorkerResult {
  std::vector<Sample> samples;
  bool connect_failed = false;
  std::string first_error;  // first non-retry failure, for the summary
};

int HistogramBucket(double latency_ms) {
  const double us = latency_ms * 1000.0;
  int bucket = 0;
  while (bucket < kHistogramBuckets - 1 && us > static_cast<double>(1u << bucket)) {
    ++bucket;
  }
  return bucket;
}

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

// Per-query-class (exact vs approx) reply accounting. Latency shapes of
// the two classes differ wildly, so blending them into one histogram
// hides both; every class keeps its own.
struct ClassTally {
  int64_t ok = 0;
  std::vector<double> latencies;  // sorted before reporting
  std::vector<int64_t> histogram = std::vector<int64_t>(kHistogramBuckets, 0);

  void Record(double latency_ms) {
    ++ok;
    latencies.push_back(latency_ms);
    ++histogram[static_cast<size_t>(HistogramBucket(latency_ms))];
  }
};

std::string LatencySummaryJson(const std::vector<double>& sorted) {
  double mean = 0.0;
  for (double l : sorted) mean += l;
  if (!sorted.empty()) mean /= static_cast<double>(sorted.size());
  return graphsig::util::StrPrintf(
      "{\"mean\": %.4f, \"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, "
      "\"max\": %.4f}",
      mean, NearestRank(sorted, 50.0), NearestRank(sorted, 95.0),
      NearestRank(sorted, 99.0), sorted.empty() ? 0.0 : sorted.back());
}

std::string HistogramJson(const std::vector<int64_t>& histogram,
                          const char* indent) {
  std::string json = "[\n";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    json += graphsig::util::StrPrintf(
        "%s  {\"le_us\": %llu, \"count\": %lld}%s\n", indent,
        static_cast<unsigned long long>(1ull << b),
        static_cast<long long>(histogram[static_cast<size_t>(b)]),
        b + 1 < kHistogramBuckets ? "," : "");
  }
  json += indent;
  json += "]";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphsig;
  namespace wire = graphsig::net::wire;
  tools::Flags flags(argc, argv);
  const std::string input = flags.GetString("input", "");
  if (input.empty() || !flags.Has("port")) {
    std::fprintf(stderr,
                 "usage: graphsig_loadgen --port=N --input=FILE "
                 "[--host=ADDR] [--format=smiles|sdf|gspan] [--qps=200] "
                 "[--duration=SECONDS] [--connections=N] [--seed=N] "
                 "[--count=N (override qps*duration)] [--no-matches] "
                 "[--no-score] [--mix=F (approx fraction)] "
                 "[--approx-samples=N] [--json=FILE] [--verify-model=FILE] "
                 "[--metrics-out=FILE]\n");
    return 1;
  }
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  const auto port = tools::FlagInRange<int64_t>(flags, "port", 0, 1, 65535);
  const auto qps = tools::FlagInRange(flags, "qps", 200.0, 0.0, kDoubleMax,
                                      /*lo_open=*/true);
  const auto duration = tools::FlagInRange(flags, "duration", 2.0, 0.0,
                                           kDoubleMax, /*lo_open=*/true);
  const auto connections = tools::FlagInRange<int64_t>(
      flags, "connections", 1, 1, std::numeric_limits<int>::max());
  const auto count =
      tools::FlagInRange<int64_t>(flags, "count", 0, 0, kInt64Max);
  const auto seed = tools::FlagInRange<int64_t>(flags, "seed", 1, 0, kInt64Max);
  const auto mix = tools::FlagInRange(flags, "mix", 0.0, 0.0, 1.0);
  const auto approx_samples = tools::FlagInRange<int64_t>(
      flags, "approx-samples", 32, 1, serve::kMaxApproxSamplesPerQuery);
  if (!port || !qps || !duration || !connections || !count || !seed ||
      !mix || !approx_samples) {
    return 1;
  }
  // --count=0 sends qps x duration requests.
  const double scheduled = std::ceil(*qps * *duration);
  if (*count == 0 && !(scheduled < static_cast<double>(kInt64Max))) {
    std::fprintf(stderr, "error: --qps x --duration is too many requests\n");
    return 1;
  }
  const int64_t total =
      *count > 0 ? *count : static_cast<int64_t>(scheduled);

  auto loaded = tools::LoadDatabase(input, flags.GetString("format", "smiles"));
  if (!loaded.ok()) tools::Fail(loaded.status());
  const graph::GraphDatabase db = std::move(loaded).value();
  if (db.empty()) {
    std::fprintf(stderr, "error: no graphs in workload input\n");
    return 1;
  }

  wire::QueryOptions options;
  options.compute_matches = !flags.GetBool("no-matches");
  options.compute_score = !flags.GetBool("no-score");

  // The whole workload — which graph each request sends, which class it
  // belongs to, each approx request's estimator seed, and when it goes
  // out — is a pure function of (--seed, --qps, --count, --mix),
  // independent of thread interleaving, so two runs offer the server
  // the same request stream. Every slot draws the same THREE values
  // whether or not it ends up approx, so changing --mix never shifts a
  // later request's pick.
  util::Rng rng(static_cast<uint64_t>(*seed));
  std::vector<size_t> picks(static_cast<size_t>(total));
  std::vector<uint8_t> approx_slot(static_cast<size_t>(total), 0);
  std::vector<uint64_t> approx_seeds(static_cast<size_t>(total), 0);
  for (size_t i = 0; i < picks.size(); ++i) {
    picks[i] = static_cast<size_t>(rng.NextBounded(db.size()));
    approx_slot[i] = rng.NextBernoulli(*mix) ? 1 : 0;
    approx_seeds[i] = rng.NextU64();
  }

  const auto approx_request_for = [&](size_t i) {
    wire::ApproxRequest request;
    request.mode = static_cast<uint8_t>(approx::ApproxMode::kSupport);
    request.seed = approx_seeds[i];
    request.samples = static_cast<uint32_t>(*approx_samples);
    request.confidence = 0.95;
    request.pattern = db.graph(picks[i]);
    return request;
  };

  // Expected reply bytes, computed in-process from the same artifact
  // the server loaded. Exact replies are a function of the graph, so
  // they are encoded lazily per distinct graph actually picked (a big
  // database with a short run would waste startup time otherwise);
  // approx replies also depend on the per-request seed, so those are
  // encoded per approx slot.
  std::vector<std::string> expected;
  std::vector<std::string> expected_approx;
  bool verify = false;
  const std::string verify_model = flags.GetString("verify-model", "");
  if (!verify_model.empty()) {
    auto catalog = serve::PatternCatalog::LoadFromFile(verify_model);
    if (!catalog.ok()) tools::Fail(catalog.status());
    serve::CatalogQueryConfig qconfig;
    qconfig.num_threads = 1;
    qconfig.compute_matches = options.compute_matches;
    qconfig.compute_score = options.compute_score;
    expected.resize(db.size());
    std::vector<bool> needed(db.size(), false);
    for (size_t i = 0; i < picks.size(); ++i) {
      if (!approx_slot[i]) needed[picks[i]] = true;
    }
    for (size_t g = 0; g < db.size(); ++g) {
      if (!needed[g]) continue;
      expected[g] = wire::EncodeQueryReply(
          wire::ReplyFromResult(catalog.value().Query(db.graph(g), qconfig)));
    }
    expected_approx.resize(picks.size());
    for (size_t i = 0; i < picks.size(); ++i) {
      if (!approx_slot[i]) continue;
      const wire::ApproxRequest request = approx_request_for(i);
      serve::ApproxQueryConfig aconfig;
      aconfig.mode = static_cast<approx::ApproxMode>(request.mode);
      aconfig.seed = request.seed;
      aconfig.samples = static_cast<int32_t>(request.samples);
      aconfig.confidence = request.confidence;
      aconfig.num_threads = 1;
      auto result = catalog.value().ApproxQuery(request.pattern, aconfig);
      if (!result.ok()) tools::Fail(result.status());
      expected_approx[i] =
          wire::EncodeApproxReply(wire::ReplyFromApprox(result.value()));
    }
    verify = true;
  }

  net::ClientConfig client_config;
  client_config.host = flags.GetString("host", "127.0.0.1");
  client_config.port = static_cast<uint16_t>(*port);

  // Request i goes out at i/qps seconds on connection i % connections.
  // One shared wall timer anchors every thread's schedule.
  std::vector<WorkerResult> results(static_cast<size_t>(*connections));
  util::WallTimer clock;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(*connections));
  for (int64_t c = 0; c < *connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerResult& out = results[static_cast<size_t>(c)];
      net::Client client(client_config);
      util::Status connected = client.Connect();
      if (!connected.ok()) {
        out.connect_failed = true;
        out.first_error = connected.ToString();
        return;
      }
      for (int64_t i = c; i < total; i += *connections) {
        const double send_at = static_cast<double>(i) / *qps;
        const double wait = send_at - clock.ElapsedSeconds();
        if (wait > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const size_t pick = picks[static_cast<size_t>(i)];
        Sample sample;
        sample.is_approx = approx_slot[static_cast<size_t>(i)] != 0;
        util::Status failure = util::Status::Ok();
        util::WallTimer rpc_timer;
        if (sample.is_approx) {
          auto reply =
              client.Approx(approx_request_for(static_cast<size_t>(i)));
          sample.latency_ms = rpc_timer.ElapsedSeconds() * 1000.0;
          if (reply.ok()) {
            sample.outcome = Sample::Outcome::kOk;
            if (verify && wire::EncodeApproxReply(reply.value()) !=
                              expected_approx[static_cast<size_t>(i)]) {
              sample.mismatch = true;
            }
          } else {
            failure = reply.status();
          }
        } else {
          auto reply = client.Query(db.graph(pick), options);
          sample.latency_ms = rpc_timer.ElapsedSeconds() * 1000.0;
          if (reply.ok()) {
            sample.outcome = Sample::Outcome::kOk;
            if (verify &&
                wire::EncodeQueryReply(reply.value()) != expected[pick]) {
              sample.mismatch = true;
            }
          } else {
            failure = reply.status();
          }
        }
        if (!failure.ok()) {
          if (failure.code() == util::StatusCode::kUnavailable) {
            // Backpressure (RETRY_LATER or drain): the offered load
            // stays open-loop, so we drop rather than resend.
            sample.outcome = Sample::Outcome::kRetryLater;
          } else {
            sample.outcome = Sample::Outcome::kError;
            if (out.first_error.empty()) {
              out.first_error = failure.ToString();
            }
          }
        }
        out.samples.push_back(sample);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall_seconds = clock.ElapsedSeconds();

  // Merge the per-connection tallies, keeping each query class's
  // latency accounting separate.
  int64_t ok = 0, retries = 0, errors = 0, mismatches = 0, failed_connects = 0;
  std::string first_error;
  ClassTally exact_tally;
  ClassTally approx_tally;
  for (const WorkerResult& r : results) {
    if (r.connect_failed) ++failed_connects;
    if (first_error.empty()) first_error = r.first_error;
    for (const Sample& s : r.samples) {
      switch (s.outcome) {
        case Sample::Outcome::kOk:
          ++ok;
          (s.is_approx ? approx_tally : exact_tally).Record(s.latency_ms);
          break;
        case Sample::Outcome::kRetryLater:
          ++retries;
          break;
        case Sample::Outcome::kError:
          ++errors;
          break;
      }
      if (s.mismatch) ++mismatches;
    }
  }
  std::sort(exact_tally.latencies.begin(), exact_tally.latencies.end());
  std::sort(approx_tally.latencies.begin(), approx_tally.latencies.end());

  // One Stats RPC after the run: the server's own view of the workload
  // (its protocol_errors counter is what CI asserts to be zero). The
  // server's named work counters ride along; the smoke test
  // cross-checks them against the client-side totals above.
  wire::StatsReply server_stats;
  bool have_stats = false;
  {
    net::Client client(client_config);
    if (client.Connect().ok()) {
      auto stats = client.Stats();
      if (stats.ok()) {
        server_stats = std::move(stats).value();
        have_stats = true;
      }
    }
  }
  const uint64_t server_protocol_errors = server_stats.protocol_errors;
  const uint64_t server_requests = server_stats.requests_served;

  std::fprintf(stderr,
               "offered %lld requests at %.0f QPS over %lld connections in "
               "%.2fs: %lld ok (%lld exact, %lld approx), %lld "
               "retry-later, %lld errors, %lld verify mismatches\n",
               static_cast<long long>(total), *qps,
               static_cast<long long>(*connections), wall_seconds,
               static_cast<long long>(ok),
               static_cast<long long>(exact_tally.ok),
               static_cast<long long>(approx_tally.ok),
               static_cast<long long>(retries),
               static_cast<long long>(errors),
               static_cast<long long>(mismatches));
  const auto print_latency_line = [](const char* label,
                                     const std::vector<double>& sorted) {
    if (sorted.empty()) return;
    double mean = 0.0;
    for (double l : sorted) mean += l;
    mean /= static_cast<double>(sorted.size());
    std::fprintf(
        stderr, "%s latency ms: mean %.3f p50 %.3f p95 %.3f p99 %.3f max %.3f\n",
        label, mean, NearestRank(sorted, 50.0), NearestRank(sorted, 95.0),
        NearestRank(sorted, 99.0), sorted.back());
  };
  print_latency_line("exact", exact_tally.latencies);
  print_latency_line("approx", approx_tally.latencies);
  if (have_stats) {
    std::fprintf(stderr,
                 "server stats: %llu requests served, %llu protocol errors, "
                 "generation %llu\n",
                 static_cast<unsigned long long>(server_requests),
                 static_cast<unsigned long long>(server_protocol_errors),
                 static_cast<unsigned long long>(server_stats.generation));
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", first_error.c_str());
  }

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    std::string json = "{\n";
    json += util::StrPrintf(
        "  \"config\": {\"qps\": %.1f, \"duration_s\": %.2f, "
        "\"connections\": %lld, \"seed\": %llu, \"count\": %lld, "
        "\"mix\": %.3f, \"approx_samples\": %lld, \"verify\": %s},\n",
        *qps, *duration, static_cast<long long>(*connections),
        static_cast<unsigned long long>(*seed), static_cast<long long>(total),
        *mix, static_cast<long long>(*approx_samples),
        verify ? "true" : "false");
    json += util::StrPrintf(
        "  \"totals\": {\"ok\": %lld, \"ok_exact\": %lld, \"ok_approx\": "
        "%lld, \"retry_later\": %lld, \"errors\": %lld, "
        "\"verify_mismatches\": %lld, \"failed_connects\": %lld, "
        "\"wall_seconds\": %.3f},\n",
        static_cast<long long>(ok), static_cast<long long>(exact_tally.ok),
        static_cast<long long>(approx_tally.ok),
        static_cast<long long>(retries), static_cast<long long>(errors),
        static_cast<long long>(mismatches),
        static_cast<long long>(failed_connects), wall_seconds);
    // Latency is reported per query class only — a blended histogram
    // of two different latency populations describes neither.
    json += "  \"latency_ms\": {\"exact\": ";
    json += LatencySummaryJson(exact_tally.latencies);
    json += ", \"approx\": ";
    json += LatencySummaryJson(approx_tally.latencies);
    json += "},\n";
    if (have_stats) {
      json += util::StrPrintf(
          "  \"server\": {\"requests_served\": %llu, \"protocol_errors\": "
          "%llu, \"frames_received\": %llu, \"retries_sent\": %llu, "
          "\"connections_accepted\": %llu, \"generation\": %llu, "
          "\"work_counters\": {",
          static_cast<unsigned long long>(server_requests),
          static_cast<unsigned long long>(server_protocol_errors),
          static_cast<unsigned long long>(server_stats.frames_received),
          static_cast<unsigned long long>(server_stats.retries_sent),
          static_cast<unsigned long long>(server_stats.connections_accepted),
          static_cast<unsigned long long>(server_stats.generation));
      for (size_t i = 0; i < server_stats.work_counters.size(); ++i) {
        const auto& [name, value] = server_stats.work_counters[i];
        json += util::StrPrintf(
            "%s\"%s\": %llu", i == 0 ? "" : ", ", name.c_str(),
            static_cast<unsigned long long>(value));
      }
      json += "}},\n";
    }
    json += "  \"histogram_us\": {\n    \"exact\": ";
    json += HistogramJson(exact_tally.histogram, "    ");
    json += ",\n    \"approx\": ";
    json += HistogramJson(approx_tally.histogram, "    ");
    json += "\n  }\n}\n";
    util::Status written = tools::WriteFile(json_path, json);
    if (!written.ok()) tools::Fail(written);
    std::fprintf(stderr, "histogram written to %s\n", json_path.c_str());
  }

  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    // The loadgen's OWN registry: client-side serve/* counters when
    // --verify-model ran queries in-process, empty otherwise. The
    // server-side counters travel in the --json "server" section.
    util::Status written = tools::WriteMetricsJson(metrics_path);
    if (!written.ok()) tools::Fail(written);
    std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
  }

  const bool clean = errors == 0 && mismatches == 0 && failed_connects == 0 &&
                     (!have_stats || server_protocol_errors == 0);
  return clean ? 0 : 1;
}
