// serve_mix: a loopback net::Server over an artifact indexed from the
// seeded screen, driven with held-out molecules: three in four requests
// are exact Query calls, one in four an ApproxQuery support estimate.
// Phase 1 is an open loop at a fixed offered rate, timed from each
// request's due time; phase 2 a closed loop at one connection per
// hardware thread, which gives the capacity. Every reply is compared
// byte for byte with the in-process PatternCatalog answer the fixture
// recorded.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "data/datasets.h"
#include "features/rwr.h"
#include "model/artifact.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "serve/catalog_handle.h"
#include "serve/pattern_catalog.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {
namespace {

namespace wire = graphsig::net::wire;
namespace serve = graphsig::serve;
using graphsig::util::StrPrintf;

// Set-up, artifact load to first reply: the catalog is built and the
// server started on an ephemeral loopback port, served on its own
// thread until Stop().
class LoopbackServer {
 public:
  explicit LoopbackServer(const fs::path& artifact) {
    const double t0 = NowS();
    auto catalog = serve::PatternCatalog::LoadFromFile(artifact.string());
    Check(catalog.status(), "load " + artifact.string());
    handle_ = std::make_unique<serve::CatalogHandle>(
        std::make_shared<const serve::PatternCatalog>(
            std::move(catalog).value()));
    load_ms_ = (NowS() - t0) * 1e3;
    server_ = std::make_unique<graphsig::net::Server>(
        handle_.get(), graphsig::net::ServerConfig{});
    Check(server_->Start(), "server start");
    thread_ = std::thread([this] { served_ = server_->Serve(); });
  }
  ~LoopbackServer() {
    if (thread_.joinable()) Check(Stop(), "server");
  }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  // Drains the server and returns what Serve() returned.
  graphsig::util::Status Stop() {
    server_->RequestShutdown();
    thread_.join();
    return served_;
  }

  uint16_t port() const { return server_->port(); }
  double load_ms() const { return load_ms_; }
  graphsig::net::ServerCounters counters() const {
    return server_->counters();
  }

 private:
  std::unique_ptr<serve::CatalogHandle> handle_;
  std::unique_ptr<graphsig::net::Server> server_;
  graphsig::util::Status served_ = graphsig::util::Status::Ok();
  double load_ms_ = 0.0;
  std::thread thread_;  // last: joined before the members it uses go
};

graphsig::net::Client Connected(uint16_t port) {
  graphsig::net::ClientConfig config;
  config.port = port;
  graphsig::net::Client client(config);
  Check(client.Connect(), "connect");
  return client;
}

// The fixture keeps the approx pool and the expected replies as files of
// records: each record is its length as a native-endian u32, then its
// bytes. Fixtures live in the build directory, so the machine that
// writes one is the machine that reads it.
void WriteRecords(const fs::path& path,
                  const std::vector<std::string>& records) {
  std::string bytes;
  for (const std::string& record : records) {
    const uint32_t size = static_cast<uint32_t>(record.size());
    bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    bytes += record;
  }
  WriteBytes(path, bytes);
}

std::vector<std::string> ReadRecords(const fs::path& path) {
  const std::string bytes = ReadBytes(path);
  std::vector<std::string> records;
  for (size_t at = 0; at < bytes.size();) {
    uint32_t size = 0;
    if (bytes.size() - at < sizeof(size)) Die("truncated " + path.string());
    std::memcpy(&size, bytes.data() + at, sizeof(size));
    at += sizeof(size);
    if (bytes.size() - at < size) Die("truncated " + path.string());
    records.push_back(bytes.substr(at, size));
    at += size;
  }
  return records;
}

// Held-out queries: the screen recipe under a seed no fixture mines.
std::vector<graphsig::graph::Graph> HeldOutQueries(const Sizes& sizes) {
  graphsig::data::DatasetOptions options;
  options.size = sizes.query_pool;
  options.seed = sizes.held_out_seed;
  return graphsig::data::MakeCancerScreen("MCF-7", options).graphs();
}

serve::ApproxQueryConfig ApproxConfig(const wire::ApproxRequest& request) {
  serve::ApproxQueryConfig config;
  config.seed = request.seed;
  config.samples = static_cast<int32_t>(request.samples);
  config.confidence = request.confidence;
  return config;
}

struct Request {
  bool approx = false;
  size_t pick = 0;  // index into the query or approx pool
};

// The inputs a run sends and the replies it must get back. The pools are
// the same for every --seed, which picks only the request stream.
struct Traffic {
  uint64_t seed = 0;
  std::vector<graphsig::graph::Graph> queries;
  std::vector<wire::ApproxRequest> approx;
  std::vector<std::string> expected_query;   // encoded QueryReply
  std::vector<std::string> expected_approx;  // encoded ApproxReply

  // Request i of the stream: a pure function of (seed, i), so a thread
  // can walk its own slice without shared state.
  Request At(uint64_t i) const {
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    Request r;
    r.approx = (z & 3) == 0;
    r.pick = static_cast<size_t>((z >> 2) %
                                 (r.approx ? approx.size() : queries.size()));
    return r;
  }
};

Traffic LoadTraffic(const Sizes& sizes, uint64_t seed, const fs::path& dir) {
  Traffic t;
  t.seed = seed;
  t.queries = HeldOutQueries(sizes);
  for (const std::string& bytes : ReadRecords(dir / "approx_requests.bin")) {
    auto request = wire::DecodeApproxRequest(bytes);
    Check(request.status(), "decode an approx request");
    t.approx.push_back(std::move(request).value());
  }
  t.expected_query = ReadRecords(dir / "expected_query.bin");
  t.expected_approx = ReadRecords(dir / "expected_approx.bin");
  if (t.approx.empty() || t.expected_query.size() != t.queries.size() ||
      t.expected_approx.size() != t.approx.size()) {
    Die("the serve_mix fixture does not match the request pools");
  }
  return t;
}

enum class Outcome { kOk, kRetryLater, kError, kMismatch };

Outcome Send(graphsig::net::Client* client, const Traffic& traffic,
             const Request& r) {
  auto classify = [](const graphsig::util::Status& status) {
    return status.code() == graphsig::util::StatusCode::kUnavailable
               ? Outcome::kRetryLater
               : Outcome::kError;
  };
  if (r.approx) {
    auto reply = client->Approx(traffic.approx[r.pick]);
    if (!reply.ok()) return classify(reply.status());
    return wire::EncodeApproxReply(reply.value()) ==
                   traffic.expected_approx[r.pick]
               ? Outcome::kOk
               : Outcome::kMismatch;
  }
  auto reply = client->Query(traffic.queries[r.pick]);
  if (!reply.ok()) return classify(reply.status());
  return wire::EncodeQueryReply(reply.value()) ==
                 traffic.expected_query[r.pick]
             ? Outcome::kOk
             : Outcome::kMismatch;
}

struct Sample {
  DueTimes times;
  bool approx = false;
  Outcome outcome = Outcome::kOk;
};

struct Tally {
  int64_t attempted = 0;
  int64_t retry_later = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  int64_t failed() const { return retry_later + errors + mismatches; }
  void Add(Outcome outcome) {
    ++attempted;
    if (outcome == Outcome::kRetryLater) ++retry_later;
    if (outcome == Outcome::kError) ++errors;
    if (outcome == Outcome::kMismatch) ++mismatches;
  }
};

// Phase 1: request i is due at start + i / rate and goes out on
// connection i % connections as soon as that connection is free.
std::vector<Sample> OpenLoop(uint16_t port, const Traffic& traffic,
                             double rate, size_t count, int connections) {
  std::vector<std::vector<Sample>> per_conn(connections);
  std::vector<graphsig::net::Client> clients;
  for (int c = 0; c < connections; ++c) clients.push_back(Connected(port));
  const double start = NowS() + 0.02;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < count; i += connections) {
        Sample s;
        s.times.due = start + static_cast<double>(i) / rate;
        const double wait = s.times.due - NowS();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const Request r = traffic.At(i);
        s.approx = r.approx;
        s.times.sent = NowS();
        s.outcome = Send(&clients[c], traffic, r);
        s.times.done = NowS();
        per_conn[c].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> samples;
  for (auto& conn : per_conn) {
    samples.insert(samples.end(), conn.begin(), conn.end());
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.times.due < b.times.due;
            });
  return samples;
}

struct ClosedLoopResult {
  Tally tally;
  int64_t ok = 0;
  double wall_s = 0.0;
};

// Phase 2: every connection sends its next request as soon as the
// previous reply arrives, until the deadline.
ClosedLoopResult ClosedLoop(uint16_t port, const Traffic& traffic,
                            double seconds, int connections,
                            uint64_t first_index) {
  std::vector<graphsig::net::Client> clients;
  for (int c = 0; c < connections; ++c) clients.push_back(Connected(port));
  std::vector<Tally> tallies(connections);
  const double start = NowS() + 0.02;
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const double wait = start - NowS();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      for (uint64_t i = first_index + c; NowS() < deadline;
           i += connections) {
        tallies[c].Add(Send(&clients[c], traffic, traffic.At(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult out;
  out.wall_s = NowS() - start;
  for (const Tally& t : tallies) {
    out.tally.attempted += t.attempted;
    out.tally.retry_later += t.retry_later;
    out.tally.errors += t.errors;
    out.tally.mismatches += t.mismatches;
  }
  out.ok = out.tally.attempted - out.tally.failed();
  return out;
}

struct OpenLoopSummary {
  Tally tally;
  std::vector<double> exact_ms;   // due time to reply, ok exact requests
  std::vector<double> approx_ms;  // same for approx requests
  std::vector<double> lateness_ms;
  bool backlog_grew = false;
};

OpenLoopSummary Summarize(const std::vector<Sample>& samples,
                          Report* report) {
  OpenLoopSummary s;
  for (const Sample& sample : samples) {
    s.tally.Add(sample.outcome);
    s.lateness_ms.push_back(LatenessMs(sample.times));
    if (sample.outcome != Outcome::kOk) continue;
    if (!sample.approx) {
      report->ops.emplace_back(sample.times.due - report->start_s,
                               LatencyFromDueMs(sample.times));
    }
    (sample.approx ? s.approx_ms : s.exact_ms)
        .push_back(LatencyFromDueMs(sample.times));
  }
  // Lateness that grows by more than 5 ms (half a connection's gap
  // between sends at 800 requests/s over 8 connections) from the first
  // quarter of the schedule to the last is the generator falling behind,
  // not jitter.
  s.backlog_grew = BacklogGrew(s.lateness_ms, 5.0);
  return s;
}

void AddServeFailures(const Tally& tally, const char* phase,
                      Report* report) {
  report->attempted += tally.attempted;
  report->failed += tally.failed();
  if (tally.mismatches > 0) {
    report->Fail(StrPrintf("%s: %lld replies differ from the in-process "
                           "answer",
                           phase, static_cast<long long>(tally.mismatches)));
  }
  if (tally.errors > 0) {
    report->Fail(StrPrintf("%s: %lld requests failed", phase,
                           static_cast<long long>(tally.errors)));
  }
  if (tally.retry_later > 0) {
    report->notes.push_back(StrPrintf(
        "%s: %lld requests refused with RETRY_LATER", phase,
        static_cast<long long>(tally.retry_later)));
  }
}

void ReportOpenLoop(const OpenLoopSummary& s, Report* report) {
  report->Detail("open_loop_requests", static_cast<double>(s.tally.attempted),
                 "count");
  report->Detail("exact_samples", static_cast<double>(s.exact_ms.size()),
                 "count");
  report->Detail("approx_samples", static_cast<double>(s.approx_ms.size()),
                 "count");
  report->Detail("p50_ms", Median(s.exact_ms), "ms");
  if (auto p99 = TailPercentile(s.exact_ms, 99.0)) {
    report->Detail("p99_ms", *p99, "ms");
  } else {
    report->notes.push_back("p99_ms not reported: fewer than 10 samples "
                            "beyond it");
  }
  report->Detail("approx_p50_ms", Median(s.approx_ms), "ms");
  report->Detail("generator_lateness_p50_ms", Median(s.lateness_ms), "ms");
  report->Detail("generator_lateness_max_ms",
                 NearestRank(s.lateness_ms, 100.0), "ms");
  report->Detail("generator_backlog_grew", s.backlog_grew ? 1 : 0, "bool");
  if (s.backlog_grew) {
    report->notes.push_back(
        "GENERATOR FELL BEHIND: the open-loop backlog grew, so this run's "
        "latencies are above capacity and must not be compared");
  }
}

}  // namespace

void ServeMixFixture(const Sizes& sizes, const fs::path& dir) {
  // graphsig_index's recipe: mine the catalog from the actives, train
  // the classifier on the whole screen.
  const graphsig::graph::GraphDatabase db = Screen(sizes);
  graphsig::core::GraphSigConfig config;
  config.cutoff_radius = sizes.serve_radius;
  config.num_threads = graphsig::util::HardwareThreads();
  graphsig::core::GraphSigResult mined =
      graphsig::core::GraphSig(config).Mine(db.FilterByTag(1));
  graphsig::model::ModelArtifact artifact;
  artifact.database = db;
  artifact.feature_space = std::move(mined.feature_space);
  artifact.catalog = std::move(mined.subgraphs);
  graphsig::classify::SigKnnConfig knn;
  knn.mining = config;
  graphsig::classify::GraphSigClassifier classifier(knn);
  classifier.Train(artifact.database);
  artifact.classifier = classifier.ExportModel();
  if (artifact.catalog.empty()) Die("serve_mix fixture mined no patterns");
  const fs::path path = dir / "index.gsig";
  Check(graphsig::model::SaveArtifact(artifact, path.string()),
        "save the serve_mix artifact");

  // The approx pool, and every reply a run must get back, computed by a
  // catalog loaded from the saved file, the way graphsig_loadgen
  // --verify-model does. A run reads them as bytes, so its memory and
  // threads are the server's and its clients' alone.
  auto loaded = serve::PatternCatalog::LoadFromFile(path.string());
  Check(loaded.status(), "load the serve_mix artifact");
  const serve::PatternCatalog verifier = std::move(loaded).value();
  const std::vector<graphsig::graph::Graph> queries = HeldOutQueries(sizes);
  std::vector<wire::ApproxRequest> approx(sizes.approx_pool);
  graphsig::util::Rng rng(sizes.held_out_seed);
  for (wire::ApproxRequest& request : approx) {
    request.mode = static_cast<uint8_t>(graphsig::approx::ApproxMode::kSupport);
    request.seed = rng.NextU64();
    request.samples = sizes.approx_samples;
    request.confidence = 0.95;
    request.pattern =
        verifier.catalog()[rng.NextBounded(verifier.num_patterns())].subgraph;
  }
  std::vector<std::string> expected_query(queries.size());
  std::vector<std::string> expected_approx(approx.size());
  const int threads = graphsig::util::HardwareThreads();
  graphsig::util::ParallelFor(threads, queries.size(), [&](size_t i) {
    serve::CatalogQueryConfig query_config;
    query_config.num_threads = 1;
    expected_query[i] = wire::EncodeQueryReply(
        wire::ReplyFromResult(verifier.Query(queries[i], query_config)));
  });
  graphsig::util::ParallelFor(threads, approx.size(), [&](size_t i) {
    auto result =
        verifier.ApproxQuery(approx[i].pattern, ApproxConfig(approx[i]));
    Check(result.status(), "in-process approx query");
    expected_approx[i] =
        wire::EncodeApproxReply(wire::ReplyFromApprox(result.value()));
  });
  std::vector<std::string> requests;
  for (const wire::ApproxRequest& request : approx) {
    requests.push_back(wire::EncodeApproxRequest(request));
  }
  WriteRecords(dir / "approx_requests.bin", requests);
  WriteRecords(dir / "expected_query.bin", expected_query);
  WriteRecords(dir / "expected_approx.bin", expected_approx);
}

void RunServeMix(const Args& args, const Sizes& sizes, Report* report) {
  const fs::path artifact = args.fixture_dir / "index.gsig";
  const Traffic traffic = LoadTraffic(sizes, args.seed, args.fixture_dir);

  // Set-up: artifact load, catalog build and server start, up to the
  // first reply. One takes milliseconds, so set-ups repeat for a tenth of
  // the run (a twentieth when traced) before each load phase and the
  // fastest is reported, the rule mine and ingest op times use; the last
  // server of a batch serves the phase.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  // Hundreds of servers start and drain in one run; their INFO lines
  // would bury the report.
  graphsig::util::SetLogLevel(graphsig::util::LogLevel::kWarning);
  std::unique_ptr<LoopbackServer> server;
  auto stop = [&] {
    if (!server) return;
    if (server->counters().protocol_errors != 0) {
      report->Fail("the server counted protocol errors");
    }
    Check(server->Stop(), "server");
    server.reset();
  };
  const double setup_budget = args.seconds * (args.trace ? 0.05 : 0.1);
  auto start = [&] {
    const double batch_start = NowS();
    size_t reps = 0;
    double last_s = 0.0;
    while (KeepGoing(reps, sizes.serve_setup_min_reps, batch_start,
                     setup_budget, last_s)) {
      const double rep_start = NowS();
      stop();
      const double t0 = NowS();
      server = std::make_unique<LoopbackServer>(artifact);
      graphsig::net::Client client = Connected(server->port());
      Check(client.Health().status(), "health");
      setup_s.push_back(NowS() - t0);
      load_ms.push_back(server->load_ms());
      ++reps;
      last_s = NowS() - rep_start;
    }
  };
  start();

  const double open_s = args.seconds * (args.trace ? 0.4 : 0.5);
  const size_t open_count =
      std::max<size_t>(1, static_cast<size_t>(sizes.offered_rate * open_s));
  const OpenLoopSummary open = Summarize(OpenLoop(
      server->port(), traffic, sizes.offered_rate, open_count,
      sizes.open_loop_connections), report);
  AddServeFailures(open.tally, "open loop", report);
  ReportOpenLoop(open, report);
  const double open_p50 = Median(open.exact_ms);

  start();
  report->Detail("setup_reps", static_cast<double>(setup_s.size()), "count");

  if (!args.trace) {
    const int closed_connections =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const ClosedLoopResult closed =
        ClosedLoop(server->port(), traffic, args.seconds * 0.3,
                   closed_connections, open_count);
    AddServeFailures(closed.tally, "closed loop", report);
    stop();
    SetEndToEnd({{"setup_s", Fastest(setup_s)},
                 {"op_ms", open_p50},
                 {"work_per_s", Ratio(static_cast<double>(closed.ok),
                                      closed.wall_s)},
                 {"peak_rss_mb", PeakRssMb()}},
                report);
    report->Detail("setup_p50_s", Median(setup_s), "s");
    report->Detail("closed_loop_connections", closed_connections, "count");
    report->Detail("closed_loop_replies", static_cast<double>(closed.ok),
                   "count");
    report->Detail("offered_rate", sizes.offered_rate, "1/s");
    report->Detail("fail_share", FailShare(report->failed, report->attempted),
                   "ratio");
    return;
  }

  // Traced passes over every distinct request, in-process, then one
  // unloaded single-client loopback pass. The in-process calls need a
  // catalog of their own.
  auto loaded = serve::PatternCatalog::LoadFromFile(artifact.string());
  Check(loaded.status(), "load the in-process catalog");
  const serve::PatternCatalog verifier = std::move(loaded).value();
  Tracer tracer;
  const graphsig::classify::SigKnnModel& model =
      verifier.artifact().classifier;
  serve::CatalogQueryConfig query_config;
  query_config.num_threads = 1;
  double exact_ops = 0, approx_ops = 0, iso_calls = 0, matched = 0,
         pruned = 0, vf2 = 0, csr = 0, rwr_iterations = 0, approx_iso = 0;
  graphsig::net::Client client = Connected(server->port());
  Tally unloaded;
  const double traced_start = NowS();
  int64_t request = 0;
  double last_s = 0.0;
  while (KeepGoing(static_cast<size_t>(exact_ops), 1, traced_start,
                   args.seconds / 2, last_s)) {
    const double pass_start = NowS();
    auto before = WorkValues();
    for (size_t q = 0; q < traffic.queries.size(); ++q, ++request) {
      const graphsig::graph::Graph& query = traffic.queries[q];
      serve::QueryResult composed;
      {
        Tracer::Scope root(&tracer, "serve.exact", request);
        serve::PatternCatalog::QueryProfile profile;
        {
          Tracer::Scope span(&tracer, "serve.profile", request);
          profile = serve::PatternCatalog::BuildProfile(query);
        }
        serve::PatternCatalog::AnchorMatches matches;
        {
          Tracer::Scope span(&tracer, "serve.match", request);
          matches = verifier.MatchAnchors(query, profile,
                                          verifier.patterns_by_anchor());
        }
        {
          Tracer::Scope span(&tracer, "classify.score", request);
          composed.score = verifier.ClassifierScore(query);
        }
        composed.has_score = true;
        composed.matched_patterns = std::move(matches.matched_patterns);
        std::sort(composed.matched_patterns.begin(),
                  composed.matched_patterns.end());
        composed.iso_calls = matches.iso_calls;
        composed.pruned = static_cast<int32_t>(verifier.num_patterns()) -
                          matches.iso_calls;
      }
      ++exact_ops;
      ++report->attempted;
      iso_calls += composed.iso_calls;
      pruned += composed.pruned;
      matched += static_cast<double>(composed.matched_patterns.size());
      if (wire::EncodeQueryReply(wire::ReplyFromResult(composed)) !=
          traffic.expected_query[q]) {
        ++report->failed;
        report->Fail("traced composition differs from Query");
      }
    }
    auto after = WorkValues();
    vf2 += CounterDelta(before, after, "graph/vf2_feasibility_checks");
    csr += CounterDelta(before, after, "graph/csr_builds");

    before = WorkValues();
    for (size_t q = 0; q < traffic.queries.size(); ++q) {
      Tracer::Scope span(&tracer, "features.query_rwr", static_cast<int64_t>(q));
      graphsig::features::GraphToVectors(traffic.queries[q], -1, model.space,
                                         model.rwr);
    }
    after = WorkValues();
    rwr_iterations += CounterDelta(before, after, "rwr/power_iterations");

    for (size_t q = 0; q < traffic.queries.size(); ++q) {
      Tracer::Scope span(&tracer, "serve.query", static_cast<int64_t>(q));
      verifier.Query(traffic.queries[q], query_config);
    }

    before = WorkValues();
    for (size_t a = 0; a < traffic.approx.size(); ++a) {
      Tracer::Scope span(&tracer, "approx.support", static_cast<int64_t>(a));
      Check(verifier
                .ApproxQuery(traffic.approx[a].pattern,
                             ApproxConfig(traffic.approx[a]))
                .status(),
            "approx query");
      ++approx_ops;
    }
    after = WorkValues();
    approx_iso += CounterDelta(before, after, "approx/iso_tests");

    for (size_t q = 0; q < traffic.queries.size(); ++q) {
      Request r;
      r.pick = q;
      Outcome outcome;
      {
        Tracer::Scope span(&tracer, "net.rpc", static_cast<int64_t>(q));
        outcome = Send(&client, traffic, r);
      }
      unloaded.Add(outcome);
    }
    for (size_t a = 0; a < traffic.approx.size(); ++a) {
      Request r;
      r.approx = true;
      r.pick = a;
      Outcome outcome;
      {
        Tracer::Scope span(&tracer, "net.rpc_approx", static_cast<int64_t>(a));
        outcome = Send(&client, traffic, r);
      }
      unloaded.Add(outcome);
    }
    last_s = NowS() - pass_start;
  }
  AddServeFailures(unloaded, "unloaded pass", report);
  stop();

  const auto totals = tracer.Totals();
  auto self = [&](const char* name, double ops) {
    return SelfMsPerOp(totals, name, ops);
  };
  const double score_ms = self("classify.score", exact_ops);
  const double query_rwr_ms = self("features.query_rwr", exact_ops);
  const double rpc_p50 = Median(tracer.DurationsMs("net.rpc"));
  const double query_p50 = Median(tracer.DurationsMs("serve.query"));
  const double traced_p50 = Median(tracer.DurationsMs("serve.exact"));
  SetPerLayer(
      {
          {"features.rwr_iterations", rwr_iterations / exact_ops},
          {"features.query_rwr_ms", query_rwr_ms},
          {"graph.vf2_checks", vf2 / exact_ops},
          {"graph.csr_builds", csr / exact_ops},
          {"serve.load_ms", Median(load_ms)},
          {"serve.profile_ms", self("serve.profile", exact_ops)},
          {"serve.match_ms", self("serve.match", exact_ops)},
          {"serve.iso_calls", iso_calls / exact_ops},
          {"serve.match_yield", Ratio(matched, iso_calls)},
          {"serve.pruned_share",
           Ratio(pruned, exact_ops * static_cast<double>(
                                         verifier.num_patterns()))},
          {"classify.score_ms", score_ms},
          {"classify.knn_ms", score_ms - query_rwr_ms},
          {"approx.support_ms", self("approx.support", approx_ops)},
          {"approx.iso_tests", approx_iso / approx_ops},
          {"net.rpc_ms", rpc_p50},
          {"net.overhead_ms", rpc_p50 - query_p50},
          {"net.queue_ms", open_p50 - rpc_p50},
          {"net.retry_later", static_cast<double>(open.tally.retry_later)},
          {"model.artifact_bytes",
           static_cast<double>(fs::file_size(artifact))},
          {"serve.unattributed_ms", self("serve.exact", exact_ops)},
          {"trace.overhead_ms", traced_p50 - query_p50},
          {"trace.unattributed_share",
           Ratio(self("serve.exact", exact_ops),
                 Mean(tracer.DurationsMs("serve.exact")))},
      },
      report);
  report->Detail("traced_exact_requests", exact_ops, "count");
  report->Detail("traced_approx_requests", approx_ops, "count");
  report->Detail("in_process_query_p50_ms", query_p50, "ms");
  report->Detail("traced_exact_p50_ms", traced_p50, "ms");
  report->Detail("unloaded_approx_rpc_p50_ms",
                 Median(tracer.DurationsMs("net.rpc_approx")), "ms");
  report->trace_json = TraceJson(tracer);
}

}  // namespace perfbench
