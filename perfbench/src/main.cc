// Copyright 2026 MixQ-GNN Authors
// perfbench — the serving benchmark's binary (perfbench/run.py builds and
// runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints the host fingerprint, per-phase request counts and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The same line, with the fingerprint, is appended to
// <work-dir>/results.jsonl. Exits 1 when any reply differs from the
// reference, 2 on a usage error or when fault injection is armed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "common/fault_injection.h"
#include "common/parallel.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Claims made with this benchmark must also hold on this seed, which is
/// kept out of tuning.
constexpr uint64_t kHoldoutSeed = 1009;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string Fingerprint() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_isa\": " << JsonString(mixq::KernelIsaName(mixq::ActiveKernelIsa()))
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"mixq_threads\": " << mixq::NumThreads()
      << ", \"mixq_threads_env\": " << JsonString(EnvOr("MIXQ_THREADS", "unset"))
      << ", \"mixq_reorder_env\": " << JsonString(EnvOr("MIXQ_REORDER", "unset (rcm)"))
      << ", \"mixq_kernel_env\": " << JsonString(EnvOr("MIXQ_KERNEL", "unset"))
      << ", \"holdout_seed\": " << kHoldoutSeed << "}";
  return out.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\nworkloads:",
               why);
  for (const perfbench::WorkloadSpec& spec : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_seed || !have_seconds || !have_trace || work_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  // Injected faults would surface as failed requests and skew every metric.
  if (!EnvOr("MIXQ_FAULTS", "").empty() || mixq::fault::FaultInjector::Armed()) {
    std::fprintf(stderr, "perfbench: MIXQ_FAULTS is set; refusing to measure\n");
    return 2;
  }
  options.work_dir = work_dir;

  const std::string host = Fingerprint();
  std::printf("# workload %s, seed %llu, %.3g s, trace %d\n# host: %s\n", spec->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, host.c_str());
  std::fflush(stdout);

  const perfbench::RunOutcome outcome = perfbench::RunWorkload(*spec, options);

  int64_t attempted = 0, failed = 0;
  for (const perfbench::PhaseCount& phase : outcome.phases) {
    std::printf("# phase %-20s attempted %-9lld failed %-6lld mismatched %lld\n",
                phase.phase.c_str(), static_cast<long long>(phase.attempted),
                static_cast<long long>(phase.failed),
                static_cast<long long>(phase.mismatched));
    attempted += phase.attempted;
    failed += phase.failed;
  }
  for (const std::string& error : outcome.errors) {
    std::printf("# error: %s\n", error.c_str());
  }
  std::ostringstream result;
  result << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    result << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
           << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  result << "}}";
  std::ofstream log(work_dir + "/results.jsonl", std::ios::app);
  log << "{\"workload\": " << JsonString(spec->name) << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"host\": " << host
      << ", \"result\": " << result.str() << "}\n";
  std::printf("%s\n", result.str().c_str());
  return outcome.correct ? 0 : 1;
}
