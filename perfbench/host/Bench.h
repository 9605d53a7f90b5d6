//===- perfbench/host/Bench.h - Host-time benchmark vocabulary -*- C++ -*-===//
///
/// \file
/// Shared pieces of the host-time benchmark: the clock, the order
/// statistics every metric is reported with, the result a workload
/// returns, the in-memory span log of a traced run, and the small sinks and
/// executors the benchmark puts in front of the program's layers. Nothing
/// here reaches into the program: every layer is timed from outside, by
/// wrapping calls into its public functions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Percentile.h"

#include "core/AccessSink.h"
#include "workload/TraceGenerator.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Workload scale of every job (1.0 = the paper's full per-transaction
/// call counts). Small enough for well over 1000 measured transactions in
/// a run of sim-sweep, the slowest job.
constexpr double WorkloadScale = 0.03;

/// What the command line asked for.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory for generated traces and the span dump (inside the build
  /// tree, so the checkout stays clean).
  std::string OutDir;
  /// Self-test hook: "digest" corrupts the pinned digest, "counter" one
  /// replayed counter. Either must surface as a failed check.
  std::string Tamper;
  /// The pinned sim-sweep digest file.
  std::string DigestFile;
};

/// One reported metric: its headline value plus the samples behind it.
struct Metric {
  std::string Unit;
  double Value = 0.0;
  Summary Stats;
};

/// What a workload run hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::map<std::string, Metric> Metrics;
  /// Extra facts worth printing (sample counts, check outcomes).
  std::map<std::string, double> Notes;
  /// Hash of the generated inputs: differs between seeds.
  std::string InputDigest;

  /// Counts one checked operation; a false \p Ok is a failure described
  /// by \p What (only the first few descriptions are kept).
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(What);
  }
  void set(const std::string &Name, const char *Unit, double Value,
           std::vector<double> Samples = {}) {
    if (Samples.empty())
      Samples.push_back(Value);
    Metrics[Name] = Metric{Unit, Value, summarize(std::move(Samples))};
  }
};

/// Spans of a traced run, kept in memory and written out at the end. A
/// span covers one call into a layer; the many short drains of the access
/// sink are folded into one span per transaction (first start, last end,
/// summed busy time, call count) so a run's log stays small.
class SpanLog {
public:
  struct Span {
    const char *Name;
    int64_t Start;
    int64_t End;
    int32_t Parent;
    uint64_t Tx;
    int64_t BusyNs; ///< Covered time; -1 means End - Start.
    uint64_t Calls;
  };

  int32_t begin(const char *Name, uint64_t Tx, int32_t Parent = -1) {
    Spans.push_back({Name, nowNs(), 0, Parent, Tx, -1, 1});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t Id) { Spans[Id].End = nowNs(); }
  void folded(const char *Name, uint64_t Tx, int32_t Parent, int64_t Start,
              int64_t End, int64_t Busy, uint64_t Calls) {
    Spans.push_back({Name, Start, End, Parent, Tx, Busy, Calls});
  }

  /// Self time (ns) summed per span name: a span's covered time minus the
  /// time its children cover.
  std::map<std::string, double> selfNsByName() const;
  /// Number of spans per name.
  std::map<std::string, uint64_t> countByName() const;

  /// Writes one JSON object per span; false on an I/O error.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// A tee in front of the machine model (or the sampler): forwards every
/// event and region call unchanged, counts the drained batches, and when
/// timing is on measures each downstream accesses() call.
class TimedSink final : public ddm::AccessSink {
public:
  explicit TimedSink(ddm::AccessSink &Downstream) : Down(Downstream) {}

  void load(uintptr_t A, uint32_t B) override { Down.load(A, B); }
  void store(uintptr_t A, uint32_t B) override { Down.store(A, B); }
  void instructions(uint64_t N) override { Down.instructions(N); }
  void setDomain(ddm::CostDomain D) override { Down.setDomain(D); }
  void mapRegion(const void *Base, size_t Size) override {
    Down.mapRegion(Base, Size);
  }
  void unmapRegion(const void *Base) override { Down.unmapRegion(Base); }
  void accesses(const ddm::AccessBatch &Batch) override {
    if (!Timing) {
      Down.accesses(Batch);
      return;
    }
    int64_t T0 = nowNs();
    Down.accesses(Batch);
    int64_t T1 = nowNs();
    if (W.Calls == 0)
      W.First = T0;
    W.Last = T1;
    W.Busy += T1 - T0;
    ++W.Calls;
    W.Events += Batch.Count;
  }

  /// Downstream time of the batches drained since the last take().
  struct Window {
    int64_t First = 0, Last = 0, Busy = 0;
    uint64_t Calls = 0, Events = 0;
  };
  Window take() {
    Window Out = W;
    W = Window();
    return Out;
  }
  void setTiming(bool On) { Timing = On; }

private:
  ddm::AccessSink &Down;
  bool Timing = false;
  Window W;
};

/// An access sink that drops everything: the "+sink batching" cut-off.
class NullSink final : public ddm::AccessSink {
public:
  void load(uintptr_t, uint32_t) override {}
  void store(uintptr_t, uint32_t) override {}
  void instructions(uint64_t) override {}
  void accesses(const ddm::AccessBatch &) override {}
};

/// A transaction executor that does nothing: the "generate only" cut-off.
class NullExecutor final : public ddm::TxExecutor {
public:
  void onAlloc(uint32_t, size_t) override {}
  void onFree(uint32_t) override {}
  void onRealloc(uint32_t, size_t, size_t) override {}
  void onTouch(uint32_t, bool) override {}
  void onWork(uint64_t) override {}
  void onStateTouch(uint64_t, bool) override {}
};

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Milliseconds in a nanosecond count.
inline double ms(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
