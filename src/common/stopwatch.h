// Wall-clock stopwatch on the steady clock.
#ifndef SAC_COMMON_STOPWATCH_H_
#define SAC_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace sac {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sac

#endif  // SAC_COMMON_STOPWATCH_H_
