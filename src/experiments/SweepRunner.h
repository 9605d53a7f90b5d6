//===- experiments/SweepRunner.h - Parallel grid-point executor -*- C++ -*-===//
///
/// \file
/// SweepRunner executes the independent points of an experiment grid
/// (workload x allocator x platform x cores) on a pool of std::threads.
///
/// Determinism contract: every task must be self-contained — it builds its
/// own TransactionRuntime and SimSink, shares no mutable state with other
/// tasks, and derives all randomness from its own seed. Points in this
/// codebase satisfy that by construction, and SimSink's canonical address
/// translation makes their counters independent of where the OS places
/// each point's heap. Under that contract the results are a pure function
/// of the submitted task list: run() stores them by submission index, so
/// the output is identical for any worker count — `--jobs 8` produces
/// byte-identical reports to `--jobs 1`.
///
/// Execution order across points is NOT deterministic (workers race for
/// indices); only the result order is.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_EXPERIMENTS_SWEEPRUNNER_H
#define DDM_EXPERIMENTS_SWEEPRUNNER_H

#include <cstddef>
#include <functional>
#include <vector>

namespace ddm {

/// A worker pool running independent sweep points with submission-ordered
/// results and whole-sweep wall-clock timing.
class SweepRunner {
public:
  /// \p Jobs worker threads; 0 means hardware_concurrency. A single job
  /// (or a single task) runs inline on the calling thread.
  explicit SweepRunner(unsigned Jobs = 0);

  /// hardware_concurrency, with a floor of 1.
  static unsigned defaultJobs();

  unsigned jobs() const { return JobCount; }

  /// Runs all \p Tasks and returns their results in submission order.
  /// The result type must be default-constructible and movable. If a task
  /// throws, the sweep stops picking up new points and the first exception
  /// is rethrown on the calling thread after the workers drain.
  template <typename Fn>
  auto run(const std::vector<Fn> &Tasks)
      -> std::vector<decltype(Tasks[size_t(0)]())> {
    using Result = decltype(Tasks[size_t(0)]());
    std::vector<Result> Results(Tasks.size());
    dispatch(Tasks.size(), [&](size_t I) { Results[I] = Tasks[I](); });
    return Results;
  }

  /// Wall-clock milliseconds of the whole last run().
  double totalMillis() const { return TotalMs; }

private:
  void dispatch(size_t Count, const std::function<void(size_t)> &RunOne);

  unsigned JobCount;
  double TotalMs = 0;
};

} // namespace ddm

#endif // DDM_EXPERIMENTS_SWEEPRUNNER_H
