#include "obs/work_capture.h"

#include <utility>

namespace graphsig::obs {

namespace internal {

// Append-only write log. Entries are merged by *name* at Take(), so
// the pointer order in which writes arrived never escapes.
struct CaptureFrame {
  std::vector<std::pair<Counter*, uint64_t>> counter_writes;
  std::vector<std::pair<SpanStats*, SpanDelta>> span_writes;
};

constinit thread_local CaptureFrame* tls_capture_frame = nullptr;

void CaptureCounterWrite(Counter* counter, uint64_t n) {
  tls_capture_frame->counter_writes.emplace_back(counter, n);
}

void CaptureSpanWrite(SpanStats* span, uint64_t calls, uint64_t work) {
  tls_capture_frame->span_writes.emplace_back(span,
                                              SpanDelta{calls, work});
}

}  // namespace internal

WorkCapture::WorkCapture()
    : frame_(new internal::CaptureFrame),
      previous_(internal::tls_capture_frame) {
  internal::tls_capture_frame = frame_;
}

WorkCapture::~WorkCapture() {
  internal::tls_capture_frame = previous_;
  delete frame_;
}

WorkDelta WorkCapture::Take() {
  // Detach before resolving: CounterName takes the registry lock, and
  // resolution itself must not record into the frame.
  internal::tls_capture_frame = previous_;
  WorkDelta delta;
  auto& registry = MetricsRegistry::Global();
  // Resolve each distinct pointer once; advisory counters (and metrics
  // from a non-global registry) resolve to "" and are dropped.
  std::map<const void*, std::string> names;
  for (const auto& [counter, n] : frame_->counter_writes) {
    auto it = names.find(counter);
    if (it == names.end()) {
      it = names.emplace(counter, registry.CounterName(counter)).first;
    }
    if (it->second.empty()) continue;
    delta.counters[it->second] += n;
  }
  names.clear();
  for (const auto& [span, d] : frame_->span_writes) {
    auto it = names.find(span);
    if (it == names.end()) {
      it = names.emplace(span, registry.SpanPath(span)).first;
    }
    if (it->second.empty()) continue;
    SpanDelta& merged = delta.spans[it->second];
    merged.calls += d.calls;
    merged.work += d.work;
  }
  frame_->counter_writes.clear();
  frame_->span_writes.clear();
  internal::tls_capture_frame = frame_;
  return delta;
}

void ReplayWorkDelta(const WorkDelta& delta) {
  auto& registry = MetricsRegistry::Global();
  for (const auto& [name, n] : delta.counters) {
    // Names originate from literal-named capture sites; replay restores
    // them verbatim, it never mints new ones.
    registry.GetCounter(name)->Add(n);
  }
  for (const auto& [path, d] : delta.spans) {
    registry.GetSpan(path)->AddReplay(d.calls, d.work);
  }
}

void MergeWorkDelta(const WorkDelta& from, WorkDelta* into) {
  for (const auto& [name, n] : from.counters) into->counters[name] += n;
  for (const auto& [path, d] : from.spans) {
    SpanDelta& merged = into->spans[path];
    merged.calls += d.calls;
    merged.work += d.work;
  }
}

}  // namespace graphsig::obs
