//===- exec/ThreadHeapRegistry.cpp - Per-thread heap construction --------===//

#include "exec/ThreadHeapRegistry.h"
#include "support/Error.h"

using namespace ddm;

ThreadHeapRegistry::ThreadHeapRegistry(const Config &C) {
  std::string Error;
  if (!init(C, Error))
    fatal("thread heap registry: " + Error);
}

std::unique_ptr<ThreadHeapRegistry>
ThreadHeapRegistry::tryCreate(const Config &C, std::string *ErrorOut) {
  std::unique_ptr<ThreadHeapRegistry> R(new ThreadHeapRegistry());
  std::string Error;
  if (!R->init(C, Error)) {
    if (ErrorOut)
      *ErrorOut = Error;
    return nullptr;
  }
  return R;
}

bool ThreadHeapRegistry::init(const Config &C, std::string &Error) {
  Cfg = C;
  if (Cfg.Threads == 0)
    Cfg.Threads = 1;
  const AllocatorTraits &T = allocatorTraits(Cfg.Kind);
  if (T.BuildShared) {
    Shared = T.BuildShared(Cfg.Options, Cfg.Threads, Error);
    return Shared != nullptr;
  }
  // Private per-thread heaps; each createHeap() reserves its own. Probe
  // one thread's worth so obvious misconfiguration fails up front.
  return probeHeapReservation(Cfg.Kind, Cfg.Options, Error);
}

AllocatorOptions ThreadHeapRegistry::optionsFor(unsigned Thread) const {
  AllocatorOptions Options = Cfg.Options;
  Options.ProcessId = Cfg.Options.ProcessId + Thread;
  Options.ShardId = Thread;
  Options.Shared = Shared;
  return Options;
}

std::unique_ptr<TxAllocator>
ThreadHeapRegistry::createHeap(unsigned Thread) const {
  if (Thread >= Cfg.Threads)
    fatal("thread heap registry: thread index out of range");
  return createAllocator(Cfg.Kind, optionsFor(Thread));
}
