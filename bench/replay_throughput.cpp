//===- bench/replay_throughput.cpp - Fleet replay throughput --------------===//
///
/// \file
/// Measures the trace replay pipeline end to end, in four tiers:
///
///  1. the pinned seed baseline: a verbatim copy of the pre-mmap
///     streaming reader (FILE* + per-frame payload copy + bytewise
///     table CRC-32 + per-event next()), frozen in this file so the
///     speedup denominator cannot silently improve as the in-tree
///     streaming reader gets faster,
///  2. per-event decode through today's reader on its read() source
///     (TraceReader::next — slice-by-8/PCLMUL CRC, no redundant payload
///     copy, and a cursor over the shared threaded block decoder),
///  3. batched decode from the read() source (TraceReader::nextBatch),
///  4. batched decode from the mmap source (TraceReaderKind::Mapped) —
///     the source replay actually uses for regular files,
///
/// Tiers 2-4 all decode through the reader's one block decoder; they
/// differ only in byte source and consumption API.
///
/// then replays the inputs as shards on a SweepRunner pool (--jobs) and
/// reports fleet replay throughput in events/min. `--check` turns the
/// run into a gate: mmap decode must beat the pinned seed baseline by
/// --min-speedup (default 3.5x; ~4.2x measured on the fleet corpus —
/// the default leaves headroom for noisy shared CI hosts), fleet
/// replay must clear --floor events/min (default 10^9), and the merged
/// metrics of `--jobs 1` and `--jobs N` must be byte-identical (exit 2
/// on a determinism violation, 1 on a missed performance gate).
/// `--metrics-out` writes the canonical merged-metrics JSON so CI can
/// byte-compare runs across processes.
///
///   ./build/bench/bench_replay_throughput --check --jobs 4 --json
///       traces/synth/fleet.*.ddmtrc > BENCH_replay_throughput.json
///
//===----------------------------------------------------------------------===//

#include "experiments/ReplaySweep.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Table.h"
#include "trace/TraceCodec.h"
#include "trace/TraceFormat.h"
#include "trace/TraceReader.h"

#include <array>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ddm;

/// The pinned seed baseline: the trace reader exactly as it stood before
/// the mmap work (commit 9f2fda1) — single-table bytewise CRC-32, FILE*
/// frame reads into an owned buffer, and a per-event next() through the
/// shared varint decoder. Copied, not referenced: the in-tree streaming
/// reader keeps improving (vectorized CRC, copy elision), and a baseline
/// that improves with it would understate every speedup it anchors.
namespace seed {

constexpr uint32_t Polynomial = 0xEDB88320u;

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> Table{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int Bit = 0; Bit < 8; ++Bit)
      C = (C & 1) ? (C >> 1) ^ Polynomial : C >> 1;
    Table[I] = C;
  }
  return Table;
}

constexpr std::array<uint32_t, 256> Table = makeTable();

uint32_t crc32(const void *Data, size_t Length, uint32_t Seed = 0) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t C = ~Seed;
  for (size_t I = 0; I < Length; ++I)
    C = Table[(C ^ Bytes[I]) & 0xFF] ^ (C >> 8);
  return ~C;
}

class TraceReader {
public:
  enum class Next { Event, End, Error };

  ~TraceReader() {
    if (File)
      std::fclose(File);
  }

  TraceStatus open(const std::string &Path) {
    if (File)
      return TraceStatus::error("trace reader is already open");
    File = std::fopen(Path.c_str(), "rb");
    if (!File)
      return TraceStatus::error("cannot open '" + Path +
                                "': " + std::strerror(errno));
    Status = TraceStatus::success();

    char Header[sizeof(TraceMagic) + 4];
    if (std::fread(Header, 1, sizeof(Header), File) != sizeof(Header))
      return fail("file too short for trace header");
    if (std::memcmp(Header, TraceMagic, sizeof(TraceMagic)) != 0)
      return fail("bad magic: not a ddm trace file");
    size_t Pos = sizeof(TraceMagic);
    readU32(Header, sizeof(Header), Pos, Version);
    if (Version < TraceVersionMin || Version > TraceVersion)
      return fail("unsupported trace version " + std::to_string(Version));
    Decoder = TraceEventDecoder(Version);
    FileOffset = sizeof(Header);

    if (loadBlock() != Load::Block)
      return Status.ok() ? fail("missing metadata frame") : Status;
    if (BlockLeft != 0)
      return fail("first frame is not a metadata frame");
    std::string Error;
    if (!decodeTraceMeta(Block.data(), Block.size(), Meta, Error))
      return fail("bad metadata frame: " + Error);
    Block.clear();
    BlockPos = 0;
    return Status;
  }

  Next next(TraceEvent &E) {
    if (Done)
      return Status.ok() ? Next::End : Next::Error;
    while (BlockLeft == 0) {
      if (BlockPos != Block.size()) {
        fail("frame payload has trailing bytes");
        return Next::Error;
      }
      switch (loadBlock()) {
      case Load::End:
        Done = true;
        return Next::End;
      case Load::Error:
        return Next::Error;
      case Load::Block:
        break;
      }
    }
    if (!Decoder.decode(Block.data(), Block.size(), BlockPos, E)) {
      fail(Decoder.errorMessage());
      return Next::Error;
    }
    --BlockLeft;
    ++EventIdx;
    return Next::Event;
  }

  uint64_t byteOffset() const { return FileOffset; }
  const TraceStatus &status() const { return Status; }

private:
  enum class Load { Block, End, Error };

  TraceStatus fail(std::string Message) {
    Status = TraceStatus::error(std::move(Message), BlockOffset, EventIdx);
    Done = true;
    return Status;
  }

  Load loadBlock() {
    BlockOffset = FileOffset;
    char Header[12];
    size_t Got = std::fread(Header, 1, sizeof(Header), File);
    if (Got == 0 && std::feof(File))
      return Load::End;
    if (Got != sizeof(Header)) {
      fail("truncated frame header");
      return Load::Error;
    }
    size_t Pos = 0;
    uint32_t PayloadLen, EventCount, Crc;
    readU32(Header, sizeof(Header), Pos, PayloadLen);
    readU32(Header, sizeof(Header), Pos, EventCount);
    readU32(Header, sizeof(Header), Pos, Crc);
    if (PayloadLen > TraceMaxBlockBytes) {
      fail("oversized frame");
      return Load::Error;
    }
    Block.resize(PayloadLen);
    if (PayloadLen &&
        std::fread(&Block[0], 1, PayloadLen, File) != PayloadLen) {
      fail("truncated frame payload");
      return Load::Error;
    }
    if (crc32(Block.data(), Block.size()) != Crc) {
      fail("CRC-32 mismatch");
      return Load::Error;
    }
    FileOffset += sizeof(Header) + PayloadLen;
    BlockPos = 0;
    BlockLeft = EventCount;
    return Load::Block;
  }

  std::FILE *File = nullptr;
  TraceMeta Meta;
  uint32_t Version = TraceVersion;
  TraceEventDecoder Decoder;
  TraceStatus Status;
  bool Done = false;
  std::string Block;
  size_t BlockPos = 0;
  uint32_t BlockLeft = 0;
  uint64_t EventIdx = 0;
  uint64_t FileOffset = 0;
  uint64_t BlockOffset = 0;
};

} // namespace seed

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Decode-tier measurement over the whole input set.
struct DecodeRun {
  double BestMs = 0;
  uint64_t Events = 0;
  uint64_t Bytes = 0;
  uint64_t Checksum = 0; ///< Op/size mix — defeats dead-code elimination.

  double eventsPerSec() const {
    return BestMs > 0 ? static_cast<double>(Events) / (BestMs / 1e3) : 0;
  }
  double mbPerSec() const {
    return BestMs > 0 ? static_cast<double>(Bytes) / 1e6 / (BestMs / 1e3) : 0;
  }
  double eventsPerMin() const { return eventsPerSec() * 60.0; }
};

uint64_t foldEvent(uint64_t Sum, const TraceEvent &E) {
  return Sum + static_cast<uint64_t>(E.Op) + E.Id + E.Size;
}

/// One pass of the pinned seed reader (the speedup denominator).
bool passSeed(const std::vector<std::string> &Paths, DecodeRun &Run,
              std::string &Error) {
  Run.Events = 0;
  Run.Bytes = 0;
  Run.Checksum = 0;
  for (const std::string &Path : Paths) {
    seed::TraceReader Reader;
    if (TraceStatus S = Reader.open(Path); !S) {
      Error = Path + ": " + S.describe();
      return false;
    }
    TraceEvent E;
    for (;;) {
      seed::TraceReader::Next R = Reader.next(E);
      if (R == seed::TraceReader::Next::Event) {
        Run.Checksum = foldEvent(Run.Checksum, E);
        ++Run.Events;
        continue;
      }
      if (R == seed::TraceReader::Next::End)
        break;
      Error = Path + ": " + Reader.status().describe();
      return false;
    }
    Run.Bytes += Reader.byteOffset();
  }
  return true;
}

/// One pass of per-event streaming decode through today's reader.
bool passPerEvent(const std::vector<std::string> &Paths, DecodeRun &Run,
                  std::string &Error) {
  Run.Events = 0;
  Run.Bytes = 0;
  Run.Checksum = 0;
  for (const std::string &Path : Paths) {
    TraceReader Reader;
    if (TraceStatus S = Reader.open(Path); !S) {
      Error = Path + ": " + S.describe();
      return false;
    }
    TraceEvent E;
    for (;;) {
      TraceReader::Next R = Reader.next(E);
      if (R == TraceReader::Next::Event) {
        Run.Checksum = foldEvent(Run.Checksum, E);
        ++Run.Events;
        continue;
      }
      if (R == TraceReader::Next::End)
        break;
      Error = Path + ": " + Reader.status().describe();
      return false;
    }
    Run.Bytes += Reader.byteOffset();
  }
  return true;
}

/// One pass of batched decode through the reader's \p Kind byte source.
bool passBatched(const std::vector<std::string> &Paths, TraceReaderKind Kind,
                 DecodeRun &Run, std::string &Error) {
  Run.Events = 0;
  Run.Bytes = 0;
  Run.Checksum = 0;
  for (const std::string &Path : Paths) {
    TraceReader Reader;
    if (TraceStatus S = Reader.open(Path, Kind); !S) {
      Error = Path + ": " + S.describe();
      return false;
    }
    TraceEventSpan Span;
    for (;;) {
      TraceReader::Next R = Reader.nextBatch(Span);
      if (R == TraceReader::Next::Event) {
        for (const TraceEvent &E : Span)
          Run.Checksum = foldEvent(Run.Checksum, E);
        Run.Events += Span.Size;
        continue;
      }
      if (R == TraceReader::Next::End)
        break;
      Error = Path + ": " + Reader.status().describe();
      return false;
    }
    Run.Bytes += Reader.byteOffset();
  }
  return true;
}

/// Best-of-\p Passes timing of one decode tier.
template <typename PassFn>
bool measure(uint64_t Passes, PassFn Pass, DecodeRun &Run,
             std::string &Error) {
  Run.BestMs = 0;
  for (uint64_t I = 0; I < Passes; ++I) {
    double T0 = nowMs();
    if (!Pass(Run, Error))
      return false;
    double Ms = nowMs() - T0;
    if (Run.BestMs == 0 || Ms < Run.BestMs)
      Run.BestMs = Ms;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 0;
  uint64_t Passes = 3;
  bool Check = false;
  double MinSpeedup = 3.5;
  double Floor = 1e9;
  bool Json = false;
  std::string MetricsOut;
  ArgParser Parser(
      "Fleet replay throughput: per-event streaming vs batched streaming "
      "vs mmap zero-copy decode, sharded parallel replay on --jobs "
      "workers. Positional arguments are trace shards. --check gates on "
      "--min-speedup, --floor, and jobs-count determinism.");
  Parser.addFlag("jobs", &Jobs,
                 "sharded replay workers (0 = all hardware threads)");
  Parser.addFlag("passes", &Passes, "timing passes per tier (best-of)");
  Parser.addFlag("check", &Check,
                 "enforce the speedup/floor/determinism gates");
  Parser.addFlag("min-speedup", &MinSpeedup,
                 "--check: minimum mmap speedup over the pinned seed reader");
  Parser.addFlag("floor", &Floor,
                 "--check: minimum fleet replay events/min (mmap decode)");
  Parser.addFlag("metrics-out", &MetricsOut,
                 "write canonical merged replay metrics JSON to this path");
  Parser.addFlag("json", &Json, "emit machine-readable JSON");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const std::vector<std::string> &Inputs = Parser.positional();
  if (Inputs.empty()) {
    std::fprintf(stderr,
                 "bench_replay_throughput: no input traces (synthesize some "
                 "with tracesynth, or pass traces/*.ddmtrc)\n");
    return 1;
  }
  if (Passes == 0)
    Passes = 1;

  std::string Error;
  DecodeRun Seed, PerEvent, StreamBatch, MmapBatch;
  if (!measure(
          Passes,
          [&](DecodeRun &R, std::string &E) { return passSeed(Inputs, R, E); },
          Seed, Error) ||
      !measure(
          Passes,
          [&](DecodeRun &R, std::string &E) {
            return passPerEvent(Inputs, R, E);
          },
          PerEvent, Error) ||
      !measure(
          Passes,
          [&](DecodeRun &R, std::string &E) {
            return passBatched(Inputs, TraceReaderKind::Streaming, R, E);
          },
          StreamBatch, Error) ||
      !measure(
          Passes,
          [&](DecodeRun &R, std::string &E) {
            return passBatched(Inputs, TraceReaderKind::Mapped, R, E);
          },
          MmapBatch, Error)) {
    std::fprintf(stderr, "bench_replay_throughput: %s\n", Error.c_str());
    return 1;
  }
  if (Seed.Checksum != PerEvent.Checksum || Seed.Events != PerEvent.Events ||
      PerEvent.Checksum != StreamBatch.Checksum ||
      PerEvent.Checksum != MmapBatch.Checksum ||
      PerEvent.Events != MmapBatch.Events) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: readers disagree on the decoded "
                 "event stream (seed %llu/%llx, per-event %llu/%llx, "
                 "stream-batch %llu/%llx, mmap %llu/%llx)\n",
                 static_cast<unsigned long long>(Seed.Events),
                 static_cast<unsigned long long>(Seed.Checksum),
                 static_cast<unsigned long long>(PerEvent.Events),
                 static_cast<unsigned long long>(PerEvent.Checksum),
                 static_cast<unsigned long long>(StreamBatch.Events),
                 static_cast<unsigned long long>(StreamBatch.Checksum),
                 static_cast<unsigned long long>(MmapBatch.Events),
                 static_cast<unsigned long long>(MmapBatch.Checksum));
    return 2;
  }

  // Sharded parallel replay: jobs=1 vs jobs=N must merge identically.
  ReplaySweepResult Serial = replayShardsParallel(Inputs, 1);
  ReplaySweepResult Sharded =
      replayShardsParallel(Inputs, Jobs);
  if (!Serial.ok() || !Sharded.ok()) {
    std::fprintf(stderr, "bench_replay_throughput: %s\n",
                 (!Serial.ok() ? Serial : Sharded).firstError().c_str());
    return 1;
  }
  bool Deterministic =
      Serial.mergedMetricsJson() == Sharded.mergedMetricsJson();
  if (!Deterministic && Check) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: merged metrics differ between "
                 "--jobs 1 and --jobs %llu\n",
                 static_cast<unsigned long long>(Jobs));
    return 2;
  }
  double ShardedEventsPerMin =
      Sharded.Millis > 0 ? static_cast<double>(Sharded.Events) /
                               (Sharded.Millis / 1e3) * 60.0
                         : 0;

  if (!MetricsOut.empty()) {
    std::FILE *F = std::fopen(MetricsOut.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "bench_replay_throughput: cannot write '%s'\n",
                   MetricsOut.c_str());
      return 1;
    }
    std::fprintf(F, "%s\n", Sharded.mergedMetricsJson().c_str());
    std::fclose(F);
  }

  double Speedup = Seed.eventsPerSec() > 0
                       ? MmapBatch.eventsPerSec() / Seed.eventsPerSec()
                       : 0;
  double SpeedupVsStream =
      PerEvent.eventsPerSec() > 0
          ? MmapBatch.eventsPerSec() / PerEvent.eventsPerSec()
          : 0;
  bool SpeedupOk = Speedup >= MinSpeedup;
  bool FloorOk = MmapBatch.eventsPerMin() >= Floor;

  // The JSON keys each tier's row by its name instead of listing the rows.
  const char *TierKeys[] = {"seed_baseline", "stream_per_event",
                            "stream_batch", "mmap_batch"};
  Table Out({"tier", "ms", "events/sec", "MB/s", "events/min"},
            {"", "ms", "events_per_sec", "mb_per_sec", "events_per_min"});
  auto Row = [&](const char *Name, const DecodeRun &R) {
    Out.row()
        .cell(Name)
        .cell(R.BestMs, 1)
        .cell(R.eventsPerSec(), 0)
        .cell(R.mbPerSec(), 1)
        .cell(R.eventsPerMin(), 0);
  };
  Row("seed baseline", Seed);
  Row("stream per-event", PerEvent);
  Row("stream batch", StreamBatch);
  Row("mmap batch", MmapBatch);

  if (Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "replay_throughput")
        .field("traces", static_cast<uint64_t>(Inputs.size()))
        .field("events", PerEvent.Events)
        .field("bytes", MmapBatch.Bytes)
        .field("passes", Passes)
        .key("decode")
        .beginObject();
    for (size_t I = 0; I < std::size(TierKeys); ++I) {
      J.key(TierKeys[I]);
      Out.writeJsonRow(J, I);
    }
    J.endObject()
        .field("mmap_speedup_vs_seed", Speedup)
        .field("mmap_speedup_vs_per_event", SpeedupVsStream)
        .key("sharded_replay")
        .beginObject()
        .field("jobs", static_cast<uint64_t>(Sharded.Shards.size() ? Jobs : 0))
        .field("shards", static_cast<uint64_t>(Inputs.size()))
        .field("ms_jobs1", Serial.Millis)
        .field("ms_jobsN", Sharded.Millis)
        .field("events_per_min", ShardedEventsPerMin)
        .field("transactions", Sharded.Transactions)
        .field("deterministic", Deterministic)
        .endObject();
    J.key("check")
        .beginObject()
        .field("enabled", Check)
        .field("min_speedup", MinSpeedup)
        .field("floor_events_per_min", Floor)
        .field("speedup_ok", SpeedupOk)
        .field("floor_ok", FloorOk)
        .field("deterministic", Deterministic)
        .field("passed", SpeedupOk && FloorOk && Deterministic)
        .endObject()
        .endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::fputs(Out.renderAscii().c_str(), stdout);
    std::printf("\nmmap speedup: %.2fx over the pinned seed reader, %.2fx "
                "over today's per-event streaming\n",
                Speedup, SpeedupVsStream);
    std::printf("sharded replay: %zu shards, --jobs %llu: %.1f ms "
                "(%.3g events/min), --jobs 1: %.1f ms, merged metrics %s\n",
                Inputs.size(), static_cast<unsigned long long>(Jobs),
                Sharded.Millis, ShardedEventsPerMin, Serial.Millis,
                Deterministic ? "identical" : "DIFFER");
    if (Check)
      std::printf("check: speedup %s (%.2fx >= %.2fx), floor %s "
                  "(%.3g >= %.3g events/min)\n",
                  SpeedupOk ? "ok" : "FAIL", Speedup, MinSpeedup,
                  FloorOk ? "ok" : "FAIL", MmapBatch.eventsPerMin(), Floor);
  }

  if (Check && !(SpeedupOk && FloorOk))
    return 1;
  return 0;
}
