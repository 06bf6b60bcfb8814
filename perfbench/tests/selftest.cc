// Copyright 2026 MixQ-GNN Authors
// Self-tests for the benchmark's own arithmetic: which tail percentile a
// sample supports, due-time latency accounting in the open loop, span self
// time with overlapping children, and ratio bases. perfbench/run.py runs
// this before every measurement and refuses to report if it fails.
//
//   .bench_build/perfbench/perfbench_selftest   (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9, what + ": got " + std::to_string(got) +
                                            ", want " + std::to_string(want));
}

using perfbench::Clock;

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // Nearest rank: p50 of 1..100 is the 50th value, p99 the 99th.
  ExpectNear(perfbench::Percentile(v, 0.5), 50.0, "p50 of 1..100");
  ExpectNear(perfbench::Percentile(v, 0.99), 99.0, "p99 of 1..100");
  ExpectNear(perfbench::Percentile(v, 1.0), 100.0, "p100 of 1..100");
  ExpectNear(perfbench::Percentile({7.0}, 0.99), 7.0, "p99 of one sample");
  ExpectNear(perfbench::Median({3.0, 1.0, 2.0}), 2.0, "median of 3 unsorted");

  // Samples beyond: p99 of 100 has exactly one sample above it.
  Expect(perfbench::SamplesBeyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  Expect(perfbench::SamplesBeyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
  Expect(perfbench::SamplesBeyond(999, 0.99) == 9, "9 beyond p99 of 999");
  Expect(perfbench::MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Expect(perfbench::MinSamplesFor(0.9) == 100, "p90 needs 100 samples");
  Expect(perfbench::MinSamplesFor(0.999) == 10000, "p99.9 needs 10000 samples");

  // The highest percentile with >= 10 samples beyond it.
  ExpectNear(perfbench::HighestSupportedPercentile(10000), 0.999, "10000 -> p99.9");
  ExpectNear(perfbench::HighestSupportedPercentile(9999), 0.99, "9999 -> p99");
  ExpectNear(perfbench::HighestSupportedPercentile(1000), 0.99, "1000 -> p99");
  ExpectNear(perfbench::HighestSupportedPercentile(999), 0.95, "999 -> p95");
  ExpectNear(perfbench::HighestSupportedPercentile(100), 0.9, "100 -> p90");
  ExpectNear(perfbench::HighestSupportedPercentile(99), 0.0, "99 -> none");
  Expect(perfbench::PercentileLabel(0.99) == "p99", "label p99");
  Expect(perfbench::PercentileLabel(0.999) == "p99.9", "label p99.9");
}

void TestDueTimeAccounting() {
  const Clock::time_point t0 = Clock::time_point(std::chrono::seconds(100));
  // 1000 req/s over 2 lanes: lane 0 owns slots 0, 2, 4, ...; lane 1 owns 1, 3.
  const perfbench::OpenLoopSchedule schedule(t0, 1000.0, 2);
  Expect(schedule.Due(0, 0) == t0, "first due time is the start");
  Expect(schedule.Due(1, 0) == t0 + std::chrono::milliseconds(1), "lane 1 slot 0");
  Expect(schedule.Due(0, 1) == t0 + std::chrono::milliseconds(2), "lane 0 slot 1");
  Expect(schedule.Due(1, 2) == t0 + std::chrono::milliseconds(5), "lane 1 slot 2");

  // A sender stalled 10 ms sends its next three requests late. Each is
  // charged from its due time: the stall counts against every one of them,
  // even though each round trip itself took 1 ms.
  std::vector<double> latency, late;
  for (int i = 0; i < 3; ++i) {
    perfbench::OpenLoopTiming t;
    t.due = t0 + std::chrono::milliseconds(i);
    t.sent = t0 + std::chrono::milliseconds(10);
    t.done = t.sent + std::chrono::milliseconds(1);
    latency.push_back(t.latency_ms());
    late.push_back(t.late_ms());
  }
  ExpectNear(latency[0], 11.0, "stalled request 0 latency from due");
  ExpectNear(latency[2], 9.0, "stalled request 2 latency from due");
  ExpectNear(late[0], 10.0, "request 0 sent 10 ms late");
  ExpectNear(late[2], 8.0, "request 2 sent 8 ms late");
  perfbench::OpenLoopTiming on_time;
  on_time.due = on_time.sent = t0;
  on_time.done = t0 + std::chrono::microseconds(250);
  ExpectNear(on_time.latency_ms(), 0.25, "on-time latency equals rtt");
  ExpectNear(on_time.late_ms(), 0.0, "on-time request is not late");
}

void TestSelfTime() {
  using perfbench::Span;
  // Parent [0, 100). Children [10, 40) and [30, 60) overlap: they cover
  // [10, 60) = 50, not 60. A third child [90, 120) reaches past the parent
  // and is clipped to [90, 100) = 10. Self time = 100 - 60 = 40.
  std::vector<Span> spans = {
      {1, 0, 7, "parent", 0, 100},
      {2, 1, 7, "child", 10, 40},
      {3, 1, 7, "child", 30, 60},
      {4, 1, 7, "child", 90, 120},
      // A grandchild counts against its own parent only.
      {5, 2, 7, "grandchild", 15, 25},
  };
  const auto self = perfbench::SelfTimes(spans);
  ExpectNear(self.at("parent").self_ms, 40e-6, "parent self time, overlapping children");
  ExpectNear(self.at("parent").total_ms, 100e-6, "parent total");
  // Children: 30 - 10 (grandchild) + 30 + 30 = 80 self, 90 total.
  ExpectNear(self.at("child").self_ms, 80e-6, "child self time");
  ExpectNear(self.at("child").total_ms, 90e-6, "child total");
  Expect(self.at("child").count == 3, "three child spans");
  ExpectNear(self.at("grandchild").self_ms, 10e-6, "leaf self time = duration");

  // A child nested inside another child of the same parent adds nothing.
  std::vector<Span> nested = {
      {1, 0, 0, "p", 0, 50}, {2, 1, 0, "c", 5, 45}, {3, 1, 0, "c", 10, 20}};
  ExpectNear(perfbench::SelfTimes(nested).at("p").self_ms, 10e-6, "contained child");

  // Recorded spans: disabled tracer records nothing, enabled one keeps ids.
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan s(&off, "x"); }
  Expect(off.Collect().empty(), "disabled tracer records nothing");
  perfbench::Tracer on(true);
  uint64_t parent_id = 0;
  {
    perfbench::ScopedSpan parent(&on, "outer");
    parent_id = parent.id();
    perfbench::ScopedSpan child(&on, "inner", parent.id(), 42);
  }
  const std::vector<Span> got = on.Collect();
  Expect(got.size() == 2, "two spans recorded");
  bool linked = false;
  for (const Span& s : got) {
    if (s.name == "inner") linked = s.parent == parent_id && s.request == 42;
  }
  Expect(linked, "child span carries parent id and request id");
  Expect(perfbench::DurationsMs(got, "outer").size() == 1, "durations by name");
}

void TestShares() {
  // Route shares are taken over replies: they partition the base.
  const perfbench::Share hits{60, 100}, pruned{30, 100}, full{10, 100};
  ExpectNear(hits.value() + pruned.value() + full.value(), 1.0, "route shares sum to 1");
  ExpectNear(perfbench::Share{3, 4}.value(), 0.75, "3 of 4");
  ExpectNear(perfbench::Share{0, 0}.value(), 0.0, "empty base gives 0");
  // A part larger than its base means the two were counted over different
  // events; it is flagged, not silently reported above 1.
  ExpectNear(perfbench::Share{5, 4}.value(), -1.0, "part > base is flagged");
}

}  // namespace

int main() {
  TestPercentiles();
  TestDueTimeAccounting();
  TestSelfTime();
  TestShares();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all passed\n");
  return 0;
}
