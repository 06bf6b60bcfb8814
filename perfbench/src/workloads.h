// Copyright 2026 MixQ-GNN Authors
// The benchmark's workloads and the run that measures one of them.
//
// Every workload serves the same trained qat8 GCN (Table-3 citation
// analogue) from a model bundle, over the TCP front door on loopback, with
// the result cache on and single-node requests. They differ in graph size
// and precision so that each layer of the serving stack does most of the
// work in one workload and little in another; the comment above Workloads()
// in workloads.cc gives the reason for each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/batcher.h"

namespace perfbench {

/// Fixed per-workload constants. They are never recomputed from a run: a
/// later change is measured against exactly these rates and limits.
struct WorkloadSpec {
  const char* name;
  /// 100k-node power-law graph generated from the seed (else the 1k-node
  /// Table-3 graph the model was trained on).
  bool powerlaw;
  mixq::engine::Precision precision;
  /// Open-loop arrival rate of the loaded phase (requests/s, all lanes).
  double open_rate_rps;
  /// Latency limit a reply must meet to count toward goodput_rps.
  double limit_ms;
  /// Writer cadence: one ReplaceGraph + probe every this many ms.
  int writer_period_ms;
  /// Set-ups in each round of a run; setup_s is the median of all of them.
  int setup_reps_per_round;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Requests (and writes) one phase attempted, how many came back non-OK,
/// and how many came back OK but with wrong logits.
struct PhaseCount {
  std::string phase;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Holds the prepared model/graph bundles and the trace output.
  std::string work_dir;
};

struct RunOutcome {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  std::vector<PhaseCount> phases;
  /// False on any logit mismatch or an unusable measurement.
  bool correct = true;
  std::vector<std::string> errors;
};

RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench
