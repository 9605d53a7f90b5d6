//===- experiments/SweepRunner.cpp - Parallel grid-point executor ---------===//

#include "experiments/SweepRunner.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

using namespace ddm;

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

} // namespace

unsigned SweepRunner::defaultJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

SweepRunner::SweepRunner(unsigned Jobs)
    : JobCount(Jobs ? Jobs : defaultJobs()) {}

void SweepRunner::dispatch(size_t Count,
                           const std::function<void(size_t)> &RunOne) {
  TotalMs = 0;
  if (Count == 0)
    return;
  Clock::time_point SweepStart = Clock::now();

  unsigned Workers = JobCount < Count ? JobCount : static_cast<unsigned>(Count);
  if (Workers <= 1) {
    // Inline: the plain sequential loop, with no thread hop and natural
    // exception propagation.
    for (size_t I = 0; I < Count; ++I)
      RunOne(I);
  } else {
    std::atomic<size_t> NextIndex{0};
    std::atomic<bool> Abort{false};
    std::mutex Mutex; ///< Guards FirstError.
    std::exception_ptr FirstError;

    auto Worker = [&] {
      while (!Abort.load(std::memory_order_relaxed)) {
        size_t I = NextIndex.fetch_add(1, std::memory_order_relaxed);
        if (I >= Count)
          return;
        try {
          RunOne(I);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(Mutex);
          if (!FirstError)
            FirstError = std::current_exception();
          Abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    std::vector<std::thread> Threads;
    Threads.reserve(Workers);
    for (unsigned T = 0; T < Workers; ++T)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
    if (FirstError)
      std::rethrow_exception(FirstError);
  }

  TotalMs = millisSince(SweepStart);
}
