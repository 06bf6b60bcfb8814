// Copyright 2026 MixQ-GNN Authors
// In-memory span recorder for the benchmark's traced run. Spans are
// recorded in the benchmark's own code around each call into a layer of the
// program (name, start, end, parent span, request id), kept in per-thread
// buffers while the run goes, and merged and written out when it ends.
//
// When tracing is off, AddWithId and ScopedSpan return immediately, so the
// untraced runs that give the end-to-end metrics pay one branch per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;       ///< unique, never 0
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< spans of one request share it; 0 = none
  std::string name;      ///< "<layer>.<call>", e.g. "net.MixqClient.Predict"
  int64_t start_ns = 0;  ///< steady-clock nanoseconds
  int64_t end_ns = 0;
};

/// Nanoseconds on the steady clock (the span time base).
int64_t NowNs();
int64_t ToNs(Clock::time_point t);

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span whose interval is only known later (a
  /// parent recorded after its children, an open-loop request recorded
  /// when its reply arrives). 0 when disabled.
  uint64_t NewId();
  /// Records a span under an id from NewId().
  void AddWithId(uint64_t id, const std::string& name, int64_t start_ns,
                 int64_t end_ns, uint64_t parent = 0, uint64_t request = 0);

  /// Every span recorded so far, ordered by start. Call only once every
  /// recording thread has finished.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const bool enabled_;
  /// Distinguishes tracers in the per-thread buffer cache, so a thread never
  /// reuses a buffer of a destroyed tracer allocated at the same address.
  const uint64_t serial_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span around one call: records [construction, destruction). A null
/// or disabled tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t request_;
  int64_t start_ns_ = 0;
};

/// Per-name totals: how many spans, their summed duration, and their summed
/// self time — duration minus the part of the span's interval covered by
/// its children (overlapping children are counted once; children reaching
/// outside their parent are clipped to it).
struct SelfTime {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Durations in milliseconds of every span called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Writes spans as a JSON array of {id, parent, request, name, start_ns,
/// end_ns}; false when the file cannot be written.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
