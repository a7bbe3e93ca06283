#ifndef GRAPHSIG_PERFBENCH_TRACE_H_
#define GRAPHSIG_PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its own calls into the
// library's public functions. One Tracer serves one thread: spans nest
// by scope, so a span's parent is whichever span was open when it began.
// Spans stay in memory until the run ends and writes them out.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index into Tracer::spans(), -1 for a root
  int64_t request = -1;  // op or request the span belongs to
};

// Per span name: calls, summed duration and summed self time.
struct SpanTotals {
  int64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  // A span open for the lifetime of the scope. A null tracer makes the
  // scope a no-op, so one code path serves traced and untraced runs.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t request)
        : tracer_(tracer),
          index_(tracer ? tracer->Begin(std::move(name), request) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* const tracer_;
    const int32_t index_;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // A span's self time is its duration minus the part its children
  // cover. Children of one span never overlap (one thread, nested
  // scopes), so the covered part is the sum of their durations.
  std::map<std::string, SpanTotals> Totals() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    std::map<std::string, SpanTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      SpanTotals& t = totals[spans_[i].name];
      ++t.calls;
      t.total_ms += static_cast<double>(duration) * 1e-6;
      t.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
    }
    return totals;
  }

  // Durations (ms) of every span called `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                      1e-6);
      }
    }
    return out;
  }

 private:
  int32_t Begin(std::string name, int64_t request) {
    Span span;
    span.name = std::move(name);
    span.parent = open_;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }

  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_ = spans_[index].parent;
  }

  const std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

}  // namespace perfbench

#endif  // GRAPHSIG_PERFBENCH_TRACE_H_
