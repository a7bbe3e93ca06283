#include "obs/metrics.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace graphsig::obs {
namespace {

// Minimal JSON string escaping; metric names are code literals, but the
// dump must stay valid JSON even if one ever carries a quote.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Emits `"name": value` lines for a sorted {name -> scalar} section.
template <typename Map, typename ValueFn>
void AppendScalarSection(const Map& map, const char* indent, ValueFn value,
                         std::string* out) {
  bool first = true;
  for (const auto& [name, metric] : map) {
    if (!first) *out += ",\n";
    first = false;
    *out += indent;
    *out += "\"" + JsonEscape(name) + "\": " + std::to_string(value(*metric));
  }
  if (!map.empty()) *out += "\n";
}

template <typename T>
T* FindOrNull(const std::map<std::string, std::unique_ptr<T>, std::less<>>& m,
              std::string_view name) {
  auto it = m.find(name);
  return it == m.end() ? nullptr : it->second.get();
}

}  // namespace

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  GS_CHECK(!bounds_.empty());
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    GS_CHECK_LT(bounds_[i], bounds_[i + 1]);
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

uint64_t Histogram::total_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::ResetValue() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry;
  return *instance;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  util::MutexLock lock(&mu_);
  GS_CHECK(FindOrNull(advisory_counters_, name) == nullptr);
  if (Counter* existing = FindOrNull(counters_, name)) return existing;
  auto [it, inserted] = counters_.emplace(
      std::string(name), std::unique_ptr<Counter>(new Counter));
  return it->second.get();
}

Counter* MetricsRegistry::GetAdvisoryCounter(std::string_view name) {
  util::MutexLock lock(&mu_);
  GS_CHECK(FindOrNull(counters_, name) == nullptr);
  if (Counter* existing = FindOrNull(advisory_counters_, name)) {
    return existing;
  }
  auto [it, inserted] = advisory_counters_.emplace(
      std::string(name), std::unique_ptr<Counter>(new Counter));
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  util::MutexLock lock(&mu_);
  if (Gauge* existing = FindOrNull(gauges_, name)) return existing;
  auto [it, inserted] =
      gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge));
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<uint64_t> bounds) {
  util::MutexLock lock(&mu_);
  if (Histogram* existing = FindOrNull(histograms_, name)) {
    GS_CHECK(existing->bounds() == bounds);
    return existing;
  }
  auto [it, inserted] = histograms_.emplace(
      std::string(name),
      std::unique_ptr<Histogram>(new Histogram(std::move(bounds))));
  return it->second.get();
}

SpanStats* MetricsRegistry::GetSpan(std::string_view path) {
  util::MutexLock lock(&mu_);
  if (SpanStats* existing = FindOrNull(spans_, path)) return existing;
  auto [it, inserted] = spans_.emplace(
      std::string(path), std::unique_ptr<SpanStats>(new SpanStats));
  return it->second.get();
}

std::string MetricsRegistry::DumpJson(const DumpOptions& options) const {
  util::MutexLock lock(&mu_);
  std::string out = "{\n";

  out += "  \"counters\": {\n";
  AppendScalarSection(
      counters_, "    ", [](const Counter& c) { return c.value(); }, &out);
  out += "  },\n";

  out += "  \"spans\": {\n";
  {
    bool first = true;
    for (const auto& [path, span] : spans_) {
      if (!first) out += ",\n";
      first = false;
      out += "    \"" + JsonEscape(path) +
             "\": {\"calls\": " + std::to_string(span->calls()) +
             ", \"work\": " + std::to_string(span->work()) + "}";
    }
    if (!spans_.empty()) out += "\n";
  }
  out += options.include_advisory ? "  },\n" : "  }\n";

  if (options.include_advisory) {
    out += "  \"advisory\": {\n";
    out += "    \"counters\": {\n";
    AppendScalarSection(
        advisory_counters_, "      ",
        [](const Counter& c) { return c.value(); }, &out);
    out += "    },\n";

    out += "    \"gauges\": {\n";
    AppendScalarSection(
        gauges_, "      ", [](const Gauge& g) { return g.value(); }, &out);
    out += "    },\n";

    out += "    \"histograms\": {\n";
    {
      bool first = true;
      for (const auto& [name, hist] : histograms_) {
        if (!first) out += ",\n";
        first = false;
        out += "      \"" + JsonEscape(name) + "\": {\"bounds\": [";
        for (size_t i = 0; i < hist->bounds().size(); ++i) {
          if (i > 0) out += ", ";
          out += std::to_string(hist->bounds()[i]);
        }
        out += "], \"counts\": [";
        for (size_t i = 0; i <= hist->bounds().size(); ++i) {
          if (i > 0) out += ", ";
          out += std::to_string(hist->bucket_count(i));
        }
        out += "], \"sum\": " + std::to_string(hist->sum()) + "}";
      }
      if (!histograms_.empty()) out += "\n";
    }
    out += "    },\n";

    out += "    \"span_wall_ns\": {\n";
    AppendScalarSection(
        spans_, "      ", [](const SpanStats& s) { return s.wall_ns(); },
        &out);
    out += "    }\n";
    out += "  }\n";
  }

  out += "}\n";
  return out;
}

std::map<std::string, uint64_t> MetricsRegistry::WorkValues() const {
  util::MutexLock lock(&mu_);
  std::map<std::string, uint64_t> values;
  for (const auto& [name, counter] : counters_) {
    values[name] = counter->value();
  }
  for (const auto& [path, span] : spans_) {
    values["span/" + path + "/calls"] = span->calls();
    values["span/" + path + "/work"] = span->work();
  }
  return values;
}

void MetricsRegistry::Reset() {
  util::MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->ResetValue();
  for (auto& [name, c] : advisory_counters_) c->ResetValue();
  for (auto& [name, g] : gauges_) g->ResetValue();
  for (auto& [name, h] : histograms_) h->ResetValue();
  for (auto& [name, s] : spans_) s->ResetValue();
}

}  // namespace graphsig::obs
