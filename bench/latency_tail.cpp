//===- bench/latency_tail.cpp - Allocator x offered-load tail sweep -------===//
///
/// \file
/// The serving layer's headline experiment: sweep offered load toward
/// saturation on both platforms and report the latency tail (p50/p90/p99/
/// p999), drop rate, and goodput for the three PHP-study allocators.
///
/// The offered-load grid is expressed as fractions of the *DDmalloc*
/// model's saturation capacity, so every allocator sees the same absolute
/// request rates. Expected shape: on the 8-core Xeon-like platform the
/// region allocator's bus saturation caps its capacity below the grid's
/// upper points — its queue grows, requests drop, and p99 blows up at
/// offered loads DDmalloc still absorbs (the paper's Figure 7 crossover,
/// expressed as tail latency instead of throughput).
///
/// Both stages parallelize across --jobs workers: the service-time model
/// builds (one simulation per platform x allocator) and the serving
/// points (one queueing run per platform x allocator x load).
///
///   ./build/bench/bench_latency_tail
///   ./build/bench/bench_latency_tail --json > BENCH_latency_tail.json
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "server/ServingSimulator.h"
#include "support/Json.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

using namespace ddm;

namespace {

/// Parses a comma-separated list of doubles; exits on malformed input.
std::vector<double> parseLoadList(const std::string &Text) {
  std::vector<double> Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Item = Text.substr(Pos, Comma - Pos);
    char *End = nullptr;
    double V = std::strtod(Item.c_str(), &End);
    if (!End || *End != '\0' || V <= 0) {
      std::fprintf(stderr, "bad load fraction '%s'\n", Item.c_str());
      std::exit(1);
    }
    Out.push_back(V);
    Pos = Comma + 1;
  }
  if (Out.empty()) {
    std::fprintf(stderr, "--loads needs at least one fraction\n");
    std::exit(1);
  }
  return Out;
}

struct PointResult {
  double LoadFraction;
  ServingMetrics Metrics;
};

void emitPointJson(JsonWriter &J, const PointResult &P) {
  J.beginObject()
      .field("load_fraction", P.LoadFraction)
      .field("offered_rps", P.Metrics.OfferedRps)
      .field("goodput_rps", P.Metrics.GoodputRps)
      .field("p50_ms", P.Metrics.p50Ms())
      .field("p90_ms", P.Metrics.p90Ms())
      .field("p99_ms", P.Metrics.p99Ms())
      .field("p999_ms", P.Metrics.p999Ms())
      .field("mean_ms", P.Metrics.meanLatencyMs())
      .field("mean_wait_ms", P.Metrics.meanWaitMs())
      .field("drop_rate", P.Metrics.dropRate())
      .field("mean_queue_depth", P.Metrics.QueueDepthAtArrival.mean())
      .field("utilization", P.Metrics.Utilization)
      .endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.2;
  std::string WorkloadName = "mediawiki-read";
  std::string PlatformName; // empty = both
  std::string PolicyName = "fifo";
  std::string ArrivalName = "poisson";
  std::string LoadList = "0.5,0.7,0.85,0.95,1.05";
  unsigned Cores = 0; // 0 = all of the platform's cores
  uint64_t DurationTx = 3000;
  uint64_t QueueCap = 512;
  unsigned Samples = 12;
  unsigned Warmup = 1;
  ArgParser Parser(
      "Sweeps offered load toward saturation and reports tail latency, "
      "drops, and goodput per allocator (the serving-layer view of the "
      "paper's bus-saturation result).");
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Parser.addFlag("platform", &PlatformName, "xeon, niagara, or empty = both");
  Parser.addFlag("cores", &Cores, "active cores (0 = all)");
  Parser.addFlag("policy", &PolicyName, "queue policy: fifo or sjf");
  Parser.addFlag("arrival", &ArrivalName, "arrival process: poisson or bursty");
  Parser.addFlag("loads", &LoadList,
                 "offered-load fractions of DDmalloc capacity");
  Parser.addFlag("duration-tx", &DurationTx, "requests offered per point");
  Parser.addFlag("queue-cap", &QueueCap, "admission queue bound");
  Parser.addFlag("samples", &Samples, "profiled transactions per workload");
  Parser.addFlag("warmup", &Warmup, "warm-up transactions");
  Parser.addFlag("scale", &Cli.Scale, "workload scale");
  Parser.addFlag("seed", &Cli.Seed, "random seed");
  Cli.addOutputFlags(Parser, /*WithCsv=*/false);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;
  if (Samples == 0) {
    std::fprintf(stderr, "error: --samples must be at least 1\n");
    return 1;
  }

  const WorkloadSpec *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }
  auto Policy = queuePolicyFromName(PolicyName);
  if (!Policy) {
    std::fprintf(stderr, "unknown policy '%s' (fifo or sjf)\n",
                 PolicyName.c_str());
    return 1;
  }
  auto Arrival = arrivalProcessFromName(ArrivalName);
  if (!Arrival || *Arrival == ArrivalProcess::ClosedLoop) {
    std::fprintf(stderr, "arrival must be poisson or bursty for the sweep\n");
    return 1;
  }
  std::vector<double> Loads = parseLoadList(LoadList);

  std::vector<Platform> Platforms;
  if (PlatformName.empty()) {
    Platforms = {xeonLike(), niagaraLike()};
  } else {
    auto P = platformByName(PlatformName);
    if (!P) {
      std::fprintf(stderr, "unknown platform '%s' (xeon or niagara)\n",
                   PlatformName.c_str());
      return 1;
    }
    Platforms = {*P};
  }

  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region,
                                 AllocatorKind::DDmalloc};
  constexpr size_t NumKinds = sizeof(Kinds) / sizeof(Kinds[0]);

  SimulationOptions Options;
  Options.Scale = Cli.Scale;
  Options.WarmupTx = Warmup;
  Options.MeasureTx = Samples;
  Options.Seed = Cli.Seed;

  std::vector<unsigned> ActiveCoresPerPlatform;
  for (const Platform &P : Platforms) {
    unsigned ActiveCores = Cores ? Cores : P.Cores;
    std::string Error;
    if (!validateActiveCores(P, ActiveCores, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    ActiveCoresPerPlatform.push_back(ActiveCores);
  }

  SweepRunner Runner = Cli.makeRunner();

  // Stage 1: one service-time model per platform x allocator.
  std::vector<std::function<ServiceTimeModel()>> ModelTasks;
  for (size_t PIdx = 0; PIdx < Platforms.size(); ++PIdx) {
    const Platform &P = Platforms[PIdx];
    unsigned ActiveCores = ActiveCoresPerPlatform[PIdx];
    for (AllocatorKind Kind : Kinds)
      ModelTasks.push_back([W, Kind, P, ActiveCores, Options] {
        return buildServiceTimeModel({*W}, Kind, P, ActiveCores, Options);
      });
  }
  std::vector<ServiceTimeModel> Models = Runner.run(ModelTasks);

  // Stage 2: one queueing run per platform x allocator x load. The
  // DDmalloc model's saturation capacity anchors the shared grid.
  std::vector<std::function<ServingMetrics()>> PointTasks;
  for (size_t PIdx = 0; PIdx < Platforms.size(); ++PIdx) {
    double RefCapacity = Models[PIdx * NumKinds + NumKinds - 1].capacityRps();
    for (size_t KindIdx = 0; KindIdx < NumKinds; ++KindIdx) {
      const ServiceTimeModel &Model = Models[PIdx * NumKinds + KindIdx];
      for (double F : Loads) {
        ServingConfig Config;
        Config.Load.Process = *Arrival;
        Config.Load.RatePerSec = F * RefCapacity;
        Config.Load.Seed = Cli.Seed + static_cast<uint64_t>(F * 1000);
        Config.Policy = *Policy;
        Config.QueueCapacity = QueueCap;
        Config.DurationTx = DurationTx;
        PointTasks.push_back(
            [Model, Config] { return runServing(Model, Config); });
      }
    }
  }
  std::vector<ServingMetrics> AllMetrics = Runner.run(PointTasks);

  JsonWriter J;
  if (Cli.Json)
    J.beginObject()
        .field("bench", "latency_tail")
        .field("workload", W->Name)
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .field("duration_tx", DurationTx)
        .field("queue_capacity", QueueCap)
        .field("policy", queuePolicyName(*Policy))
        .field("arrival", arrivalProcessName(*Arrival))
        .key("platforms")
        .beginArray();
  else
    std::printf("Tail latency vs offered load: %s, %s arrivals, %s queue\n\n",
                W->Name.c_str(), arrivalProcessName(*Arrival),
                queuePolicyName(*Policy));

  size_t MetricIdx = 0;
  for (size_t PIdx = 0; PIdx < Platforms.size(); ++PIdx) {
    const Platform &P = Platforms[PIdx];
    unsigned ActiveCores = ActiveCoresPerPlatform[PIdx];
    double RefCapacity = Models[PIdx * NumKinds + NumKinds - 1].capacityRps();

    if (Cli.Json)
      J.beginObject()
          .field("platform", P.Name)
          .field("cores", ActiveCores)
          .field("workers", Models[PIdx * NumKinds + NumKinds - 1].Workers)
          .field("reference_capacity_rps", RefCapacity)
          .key("series")
          .beginArray();
    else
      std::printf("--- platform: %s-like, %u cores (DDmalloc capacity "
                  "%.1f rq/s) ---\n",
                  P.Name.c_str(), ActiveCores, RefCapacity);

    for (size_t KindIdx = 0; KindIdx < NumKinds; ++KindIdx) {
      const ServiceTimeModel &Model = Models[PIdx * NumKinds + KindIdx];
      std::vector<PointResult> Points;
      for (double F : Loads)
        Points.push_back({F, AllMetrics[MetricIdx++]});

      if (Cli.Json) {
        J.beginObject()
            .field("allocator", allocatorKindName(Model.Kind))
            .field("capacity_rps", Model.capacityRps())
            .key("points")
            .beginArray();
        for (const PointResult &Pt : Points)
          emitPointJson(J, Pt);
        J.endArray().endObject();
      } else {
        std::printf("allocator: %s (capacity %.1f rq/s)\n",
                    allocatorKindName(Model.Kind), Model.capacityRps());
        Table Out({"load", "offered rq/s", "goodput", "p50 ms", "p90 ms",
                   "p99 ms", "p999 ms", "drop %", "queue", "util %"});
        for (const PointResult &Pt : Points)
          Out.row()
              .cell(Pt.LoadFraction, 2)
              .cell(Pt.Metrics.OfferedRps, 1)
              .cell(Pt.Metrics.GoodputRps, 1)
              .cell(Pt.Metrics.p50Ms(), 2)
              .cell(Pt.Metrics.p90Ms(), 2)
              .cell(Pt.Metrics.p99Ms(), 2)
              .cell(Pt.Metrics.p999Ms(), 2)
              .cell(100.0 * Pt.Metrics.dropRate(), 1)
              .cell(Pt.Metrics.QueueDepthAtArrival.mean(), 1)
              .cell(100.0 * Pt.Metrics.Utilization, 1);
        std::fputs(Out.renderAscii().c_str(), stdout);
        std::printf("\n");
      }
    }

    if (Cli.Json)
      J.endArray().endObject();
  }

  if (Cli.Json) {
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Expected shape: as offered load approaches DDmalloc's "
                "capacity, the region allocator's p99 and drop rate blow "
                "up first on the Xeon-like platform - bus saturation as "
                "tail latency.\n");
  }
  return 0;
}
