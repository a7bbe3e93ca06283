#ifndef GRAPHSIG_UTIL_TIMER_H_
#define GRAPHSIG_UTIL_TIMER_H_

#include <chrono>

namespace graphsig::util {

// Monotonic wall-clock timer used by benches and by GraphSig's stage
// profiler (Fig. 10 reproduction).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_TIMER_H_
