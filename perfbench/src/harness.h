// Copyright 2026 MixQ-GNN Authors
// Measurement arithmetic of the serving benchmark, kept apart from the code
// that drives the engine so perfbench_selftest can check it on its own:
// percentiles and the sample count a percentile needs, open-loop due-time
// accounting, and ratios that always carry their base.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Tail percentiles the benchmark may report, highest first.
extern const std::vector<double> kTailPercentiles;

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `values` (p in (0, 1]): the ceil(p*n)-th
/// smallest value. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
int64_t SamplesBeyond(int64_t n, double p);

/// Smallest sample count with at least kMinSamplesBeyond samples beyond p.
int64_t MinSamplesFor(double p);

/// The highest of kTailPercentiles with at least kMinSamplesBeyond samples
/// beyond it in n samples; 0 when even the lowest has too few.
double HighestSupportedPercentile(int64_t n);

/// "p99", "p99.9", "p90".
std::string PercentileLabel(double p);

/// A ratio that names its base: `part` out of `base` events.
struct Share {
  int64_t part = 0;
  int64_t base = 0;
  /// part / base; 0 when base is 0. Fails (returns -1) if part > base,
  /// which would mean the two counts were taken over different events.
  double value() const;
};

/// Open-loop schedule: request k of the whole generator is due at
/// start + k / rate. With `lanes` sender threads, lane j owns requests
/// j, j + lanes, j + 2*lanes, ... so the aggregate stream stays uniform.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s, int lanes);
  /// Due time of the lane's i-th request.
  Clock::time_point Due(int lane, int64_t i) const;

 private:
  Clock::time_point start_;
  double period_ns_;
  int lanes_;
};

/// Timing of one open-loop request. Latency is measured from when the
/// request was DUE, not when it was sent, so a stalled sender charges the
/// stall to every request queued behind it.
struct OpenLoopTiming {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  double latency_ms() const;  ///< done - due
  double late_ms() const;     ///< sent - due (how late the generator ran)
};

double MillisBetween(Clock::time_point from, Clock::time_point to);

}  // namespace perfbench
