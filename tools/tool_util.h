#ifndef GRAPHSIG_TOOLS_TOOL_UTIL_H_
#define GRAPHSIG_TOOLS_TOOL_UTIL_H_

// Shared flag parsing and dataset I/O for the command-line tools.

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/graphsig.h"
#include "data/molfile.h"
#include "data/smiles.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "util/durable_file.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/strings.h"

namespace graphsig::tools {

// "--name=value" flags plus bare "--name" booleans ("true").
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!util::StartsWith(arg, "--")) continue;
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg)] = "true";
      } else {
        values_[std::string(arg.substr(0, eq))] =
            std::string(arg.substr(eq + 1));
      }
    }
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  bool GetBool(const std::string& name) const {
    return GetString(name, "") == "true";
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

// Shared interpretation of --threads across every tool: 0 means "auto"
// (one worker per hardware thread); any positive value is taken as-is.
inline int ResolveThreads(int64_t flag_value) {
  if (flag_value <= 0) return util::HardwareThreads();
  return static_cast<int>(flag_value);
}

// Reads flag --`name` as a T (int64_t or double) in [lo, hi], with the
// bound left out when `lo_open` or `hi_open`; `fallback` when the flag
// is absent. Any other value, including one that does not parse, prints
// a message naming the flag and returns nullopt. This is the tools' one
// numeric flag reader.
template <typename T>
std::optional<T> FlagInRange(const Flags& flags, const std::string& name,
                             T fallback, T lo, T hi, bool lo_open = false,
                             bool hi_open = false) {
  if (!flags.Has(name)) return fallback;
  const std::string raw = flags.GetString(name, "");
  const util::Result<T> value = [&] {
    if constexpr (std::is_integral_v<T>) {
      return util::ParseInt(raw);
    } else {
      return util::ParseDouble(raw);
    }
  }();
  if (value.ok() && (lo_open ? value.value() > lo : value.value() >= lo) &&
      (hi_open ? value.value() < hi : value.value() <= hi)) {
    return value.value();
  }
  const char* kind = std::is_integral_v<T> ? "an integer" : "a number";
  if (hi == std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "--%s must be %s %s %.15g, got '%s'\n",
                 name.c_str(), kind, lo_open ? ">" : ">=",
                 static_cast<double>(lo), raw.c_str());
  } else {
    std::fprintf(stderr, "--%s must be %s in %c%.15g, %.15g%c, got '%s'\n",
                 name.c_str(), kind, lo_open ? '(' : '[',
                 static_cast<double>(lo), static_cast<double>(hi),
                 hi_open ? ')' : ']', raw.c_str());
  }
  return std::nullopt;
}

// The mining flags: --max-pvalue in (0, 1], --min-freq in [0, 100],
// --radius >= 0, --fsg-freq in (0, 100], --threads >= 0 (0 = auto) and
// --no-frequency. Nullopt, after a message naming each bad flag, when
// any value is out of range or does not parse.
inline std::optional<core::GraphSigConfig> MiningConfigFromFlags(
    const Flags& flags) {
  core::GraphSigConfig config;
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  const auto max_pvalue =
      FlagInRange(flags, "max-pvalue", config.max_pvalue, 0.0, 1.0, true);
  const auto min_freq =
      FlagInRange(flags, "min-freq", config.min_freq_percent, 0.0, 100.0);
  const auto radius = FlagInRange<int64_t>(flags, "radius",
                                           config.cutoff_radius, 0, kIntMax);
  const auto fsg_freq = FlagInRange(flags, "fsg-freq",
                                    config.fsg_freq_percent, 0.0, 100.0, true);
  const auto threads = FlagInRange<int64_t>(flags, "threads",
                                            config.num_threads, 0, kIntMax);
  if (!max_pvalue || !min_freq || !radius || !fsg_freq || !threads) {
    return std::nullopt;
  }
  config.max_pvalue = *max_pvalue;
  config.min_freq_percent = *min_freq;
  config.cutoff_radius = static_cast<int>(*radius);
  config.fsg_freq_percent = *fsg_freq;
  config.num_threads = ResolveThreads(*threads);
  config.compute_db_frequency = !flags.GetBool("no-frequency");
  return config;
}

inline util::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every tool output goes through here: `<path>.tmp` is written, fsynced
// and renamed over `path`, so a Ctrl-C, a SIGKILL or a power cut leaves
// the old file or the whole new one, never a truncated one.
inline util::Status WriteFile(const std::string& path,
                              std::string_view content) {
  return util::WriteFileAtomically(path, content);
}

// Dumps the process-wide metrics registry (src/obs) as JSON — the
// --metrics-out payload scripts/check_counters.py compares in CI. The
// "counters"/"spans" sections are deterministic for a fixed seed; the
// "advisory" section (timing, queue depths, histograms) is not.
inline util::Status WriteMetricsJson(const std::string& path) {
  return WriteFile(path, obs::MetricsRegistry::Global().DumpJson());
}

// Loads a graph database in "smiles", "sdf", or "gspan" format.
inline util::Result<graph::GraphDatabase> LoadDatabase(
    const std::string& path, const std::string& format) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  if (format == "smiles") return data::ParseSmilesLines(text.value());
  if (format == "sdf") return data::ParseSdf(text.value());
  if (format == "gspan") {
    return graph::ParseGSpanText(text.value(), nullptr, nullptr);
  }
  return util::Status::InvalidArgument("unknown format: " + format +
                                       " (want smiles|sdf|gspan)");
}

// Serializes a database in one of the same formats.
inline util::Result<std::string> SerializeDatabase(
    const graph::GraphDatabase& db, const std::string& format) {
  if (format == "smiles") return data::WriteSmilesLines(db);
  if (format == "sdf") return data::WriteSdf(db);
  if (format == "gspan") {
    std::ostringstream os;
    graph::WriteGSpanText(db, os);
    return os.str();
  }
  return util::Status::InvalidArgument("unknown format: " + format +
                                       " (want smiles|sdf|gspan)");
}

[[noreturn]] inline void Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace graphsig::tools

#endif  // GRAPHSIG_TOOLS_TOOL_UTIL_H_
