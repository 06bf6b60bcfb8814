// Copyright 2026 MixQ-GNN Authors
// Dynamic micro-batching for the serving engine, and the request/response
// vocabulary of the asynchronous API.
//
// The serving observation behind this file: a GNN forward computes logits
// for *every* node of the graph, so N concurrent requests for single nodes
// of the same (model, graph, precision) are N copies of the same work. The
// Batcher turns them into one: requests are admitted into a bounded queue
// (immediate kResourceExhausted on overflow — overload degrades into cheap
// rejections, not latency collapse), a dispatcher thread drains whatever has
// accumulated while the previous forward ran, coalesces the drained set by
// (model, graph, resolved precision), runs one lowered forward per group on
// the persistent thread pool, gathers each requester's rows, and fulfills
// the futures. Requests whose deadline passed while queued are expired with
// kDeadlineExceeded instead of wasting a forward.
//
// Full logits of each batch forward are cached per (model, graph, precision)
// keyed by the model/graph *versions* — ReplaceModel/ReplaceGraph bump the
// version, so a stale entry can never be served. On a static graph a repeat
// query is therefore a row gather, no forward at all.
//
// Groups that ask for a FEW rows of a LARGE graph skip the full forward
// entirely: the dispatcher unions the group's node ids, expands their L-hop
// receptive field against the pinned GraphContext (engine/frontier_plan.h),
// and — when the frontier is a small fraction of the graph — runs a pruned
// forward that computes only those rows (bitwise identical to the full
// fp32 forward for the same rows). Pruned forwards produce no full logits,
// so they never populate the result cache; a valid cache entry always wins
// over pruning, and groups whose receptive field covers most of the graph
// (or that ask for all rows) take the cached/full path as before.
//
// The Batcher talks to the engine through a narrow Backend interface
// (lookup by name, a failure tick) so it has no dependency on
// InferenceEngine itself and can be driven standalone in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/latency_histogram.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/compiled_model.h"
#include "engine/plan_analysis.h"

namespace mixq {
namespace engine {

/// Clock used for deadlines and latency metadata.
using ServingClock = std::chrono::steady_clock;

/// Numeric path a request is served on. kAuto resolves to the cheapest mode
/// the model supports for the target graph: int8 when the model carries the
/// all-integer lowering (and the operator fits its accumulators), exact fp32
/// otherwise. Responses always report the resolved value.
enum class Precision { kAuto = 0, kFp32, kInt8 };

const char* PrecisionName(Precision p);

/// How RegisterGraph orders the pinned adjacency/features for SpMM locality
/// (sparse/reorder.h). kAuto defers to the MIXQ_REORDER env var
/// ("none" | "degree" | "rcm"; unset means rcm). The chosen order is a
/// GraphContext-internal detail — requests, responses, caches and bundles
/// all speak original node ids, and served values are bitwise identical
/// across modes.
enum class GraphReorder { kAuto = 0, kNone, kDegree, kRcm };

/// A named, immutable, engine-pinned graph: requests reference it by name
/// instead of shipping tensors. `version` comes from the engine's global
/// monotonic counter (never reused, even across Unregister + Register of
/// the same name) and is part of the result-cache key.
struct GraphContext {
  std::string name;
  Tensor features;        ///< [n, in_features] node features (internal order)
  SparseOperatorPtr op;   ///< matching normalized operator (internal order)
  uint64_t version = 0;
  /// Graph-side facts for the per-plan pairing check (max row nnz, adjacency
  /// value range — engine/plan_analysis.h), precomputed once at registration
  /// so precision resolution checks the model's range certificate in O(steps)
  /// per request instead of rescanning the operator.
  GraphRangeBounds range_bounds;
  /// Locality reorder applied at registration: when non-empty, `features`
  /// and `op` live in an INTERNAL row order chosen for SpMM cache locality,
  /// and these maps translate node ids (new_of_old[original] = internal row;
  /// old_of_new is the inverse). Empty = identity, graph served exactly as
  /// registered. The invariant the batcher maintains: the reorder is
  /// invisible outside the GraphContext — every id crossing the API is an
  /// original id, and logits come back in original row order.
  std::vector<int64_t> new_of_old;
  std::vector<int64_t> old_of_new;
  bool reordered() const { return !new_of_old.empty(); }
  /// Original node id -> row of `features` / `op`. `id` must be in range.
  int64_t ToInternal(int64_t id) const {
    return new_of_old.empty() ? id : new_of_old[static_cast<size_t>(id)];
  }
  /// Graph-sized scratch for receptive-field expansion / induced slicing,
  /// allocated once at registration so pruned routing never pays an O(N)
  /// allocation per request. NOT thread-safe: touched only by the
  /// batcher's single dispatcher thread.
  std::shared_ptr<FrontierWorkspace> frontier_ws;
};
using GraphContextPtr = std::shared_ptr<const GraphContext>;

/// One prediction request against registered names. `node_ids` selects which
/// logit rows come back; empty means all nodes. `deadline` is absolute;
/// requests still queued past it are expired, never served late.
struct PredictRequest {
  std::string model;
  std::string graph;
  std::vector<int64_t> node_ids;
  Precision precision = Precision::kAuto;
  ServingClock::time_point deadline = ServingClock::time_point::max();
};

/// The requested rows plus enough metadata to reason about tail latency.
struct PredictResponse {
  Tensor rows;                     ///< [node_ids.size() (or n), out_dim]
  std::vector<int64_t> node_ids;   ///< echo of the request (empty = all)
  Precision precision = Precision::kFp32;  ///< resolved serving mode
  int64_t batch_size = 0;   ///< requests coalesced into the same forward
  bool cache_hit = false;   ///< served from cached logits (no forward)
  bool pruned = false;      ///< receptive-field-pruned forward (no cache fill)
  /// Activation rows the pruned forward computed across all layers (0 when
  /// !pruned) — the receptive-field size the group actually paid for.
  int64_t frontier_rows = 0;
  double queue_us = 0.0;    ///< admission -> dispatch
  double forward_us = 0.0;  ///< the shared forward (0 on cache hit)
  double total_us = 0.0;    ///< admission -> fulfillment
};

/// Per-model monitoring counters, shared between the engine and in-flight
/// batches so a just-unregistered model's requests still have somewhere to
/// count. All fields are hot-path-safe (atomics / lock-free histogram).
struct ModelCounters {
  std::atomic<int64_t> successes{0};
  std::atomic<int64_t> failures{0};
  LatencyHistogram latency;
  /// Shared-forward wall time split by the precision the forward actually
  /// ran at — recorded once per forward (full or pruned), never on cache
  /// hits, so the two histograms compare kernel paths, not queueing.
  LatencyHistogram forward_fp32;
  LatencyHistogram forward_int8;
};
using ModelCountersPtr = std::shared_ptr<ModelCounters>;

/// Snapshot of one registered model as the batcher needs it: the immutable
/// compiled model, its registry version (bumped by ReplaceModel; part of the
/// cache key), and its counters.
struct ModelHandle {
  CompiledModelPtr model;
  uint64_t version = 0;
  ModelCountersPtr counters;
};

struct BatcherOptions {
  /// Admission queue bound; TryPush past it is a kResourceExhausted reject.
  size_t queue_capacity = 1024;
  /// Cache full batch logits per (model, graph, precision) version.
  bool enable_cache = true;
  /// Route small-receptive-field groups through the pruned forward
  /// (lowered models only; a valid cache entry still wins).
  bool enable_pruning = true;
  /// Graphs below this node count always take the full forward: on small
  /// graphs the forward is already cheap and the full logits feed the
  /// result cache.
  int64_t pruned_min_graph_nodes = 1024;
  /// Prune only while the frontier's total step-row count stays under this
  /// fraction of the full forward's (steps x N). Bench-calibrated: pruned
  /// wall time tracks ~2x the full forward's per step-row across graph
  /// sizes and target counts (per-request analysis + poor small-n parallel
  /// efficiency), so 0.2 routes pruned only when it is >= ~2.4x faster.
  double pruned_max_cost_fraction = 0.2;
  /// Row order RegisterGraph pins graphs in (see GraphReorder). Consumed by
  /// the engine's graph registry, not the batcher itself.
  GraphReorder graph_reorder = GraphReorder::kAuto;

  // --- Overload degradation ladder -----------------------------------------
  // kAuto already serves the cheapest correct mode when healthy: cache hit,
  // else pruned, else int8, else full fp32. These two ABSOLUTE drained-batch
  // thresholds add the overload rungs. At `degrade_batch_threshold` the
  // pruned router's cost gate relaxes to `degraded_max_cost_fraction`, so
  // more groups take the partial forward; at `shed_batch_threshold` kAuto
  // groups that would still need a full fp32 forward (no cache entry, no
  // pruned program, no int8 lowering) are shed with kUnavailable instead of
  // collapsing latency for everyone behind them. Explicitly-requested
  // precisions are never degraded or shed — the ladder only bends kAuto,
  // which asked the engine to choose.
  /// Drained-batch size at which the pruned cost gate relaxes. 0 disables.
  int64_t degrade_batch_threshold = 256;
  /// Relaxed pruned_max_cost_fraction while degraded (see above).
  double degraded_max_cost_fraction = 0.5;
  /// Drained-batch size at which unpayable kAuto fp32 groups shed. 0 disables.
  int64_t shed_batch_threshold = 1024;

  // --- Per-(model, graph) circuit breaker (InferenceEngine) ----------------
  // Lives here so one options struct configures the whole serving stack; the
  // batcher itself only sees the Backend breaker callbacks.
  /// Consecutive forward failures that trip the breaker open; 0 disables.
  int breaker_failure_threshold = 3;
  /// How long a tripped breaker fast-fails (kUnavailable) before letting a
  /// single half-open probe forward through.
  std::chrono::milliseconds breaker_open_duration{250};

  // --- Stalled-forward watchdog --------------------------------------------
  /// Watchdog poll period; zero disables the watchdog thread entirely.
  std::chrono::milliseconds watchdog_poll{20};
  /// Once the dispatcher has been inside one forward for longer than this,
  /// the watchdog starts expiring queued past-deadline requests on its
  /// behalf (they would otherwise only be expired at the next drain, which
  /// a wedged forward delays indefinitely).
  std::chrono::milliseconds max_forward_stall{500};
};

/// Resolves the requested precision against what `model` can serve over
/// `graph`'s operator (see Precision). kNotImplemented when int8 is asked of
/// a model without the integer lowering.
Result<Precision> ResolvePrecision(const CompiledModel& model,
                                   const GraphContext& graph,
                                   Precision requested);

/// One full-graph forward at an already-resolved precision — the unit of
/// work the batcher amortizes, also used by the synchronous Predict wrapper.
Result<Tensor> ForwardFullGraph(const CompiledModel& model,
                                const GraphContext& graph, Precision resolved,
                                PredictScratch* scratch);

class Batcher {
 public:
  /// How the batcher reaches the registries that own names. Lookups happen
  /// at dispatch time, so a ReplaceModel between admission and dispatch is
  /// honoured. `count_failure` ticks the engine-wide failure counter.
  struct Backend {
    std::function<Result<ModelHandle>(const std::string&)> lookup_model;
    std::function<Result<GraphContextPtr>(const std::string&)> lookup_graph;
    std::function<void()> count_failure;
    /// Circuit-breaker gate, consulted immediately before a group forward
    /// (cache hits never ask). Non-OK (kUnavailable while the breaker is
    /// open) fails the whole group without running the forward. Null = no
    /// breaker.
    std::function<Status(const std::string& model, const std::string& graph)>
        breaker_admit;
    /// Outcome report paired with every granted breaker_admit. Null = no
    /// breaker.
    std::function<void(const std::string& model, const std::string& graph,
                       bool ok)>
        breaker_report;
  };

  /// Monitoring counters; `queue_depth`/`in_dispatch` are racy snapshots.
  struct Stats {
    int64_t submitted = 0;   ///< requests admitted into the queue
    int64_t rejected = 0;    ///< kResourceExhausted at admission
    int64_t expired = 0;     ///< kDeadlineExceeded (queued past deadline)
    int64_t forwards = 0;    ///< coalesced forwards actually run (both kinds)
    int64_t pruned_forwards = 0;  ///< ... of which receptive-field-pruned
    int64_t full_forwards = 0;    ///< ... of which full-graph
    int64_t cache_hits = 0;  ///< requests served from cached logits
    int64_t shed = 0;        ///< kUnavailable load sheds (degradation ladder)
    int64_t contained_faults = 0;  ///< forwards that failed with kInternal
    int64_t watchdog_expired = 0;  ///< queued requests the watchdog expired
    int64_t queue_depth = 0;     ///< requests currently queued
    int64_t in_dispatch = 0;     ///< requests currently being dispatched
  };

  /// Starts the dispatcher thread immediately.
  Batcher(Backend backend, BatcherOptions options);

  /// Closes admission, serves every already-admitted request, joins.
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admits one request. Always returns a valid future; overflow, a closed
  /// batcher, and an already-expired deadline come back as ready error
  /// futures (kResourceExhausted / kDeadlineExceeded).
  std::future<Result<PredictResponse>> Submit(PredictRequest request);

  Stats GetStats() const;

 private:
  struct Pending {
    PredictRequest request;
    std::promise<Result<PredictResponse>> promise;
    ServingClock::time_point admitted;
  };

  /// Cached full logits of one (model, graph, precision) group; valid only
  /// while both versions still match the registries. Names are kept so the
  /// periodic sweep can drop entries whose registrations are gone.
  struct CacheEntry {
    std::string model_name;
    std::string graph_name;
    uint64_t model_version = 0;
    uint64_t graph_version = 0;
    Tensor logits;
  };

  void DispatcherLoop();
  void WatchdogLoop();
  void Dispatch(std::vector<Pending> batch) MIXQ_REQUIRES(dispatcher_role_);
  void Fail(Pending* pending, Status status, const ModelCountersPtr& counters);
  /// Evicts cache entries whose model/graph was unregistered or replaced,
  /// so transient names don't pin full logits tensors forever.
  void SweepCache() MIXQ_REQUIRES(dispatcher_role_);

  const Backend backend_;
  const BatcherOptions options_;
  BoundedQueue<Pending> queue_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> expired_{0};
  std::atomic<int64_t> forwards_{0};
  std::atomic<int64_t> pruned_forwards_{0};
  std::atomic<int64_t> full_forwards_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> contained_faults_{0};
  std::atomic<int64_t> watchdog_expired_{0};
  std::atomic<int64_t> in_dispatch_{0};

  /// ServingClock tick count when the dispatcher entered its current group
  /// forward; 0 = not in a forward. Written by the dispatcher around each
  /// forward, read by the watchdog to detect a stall.
  std::atomic<int64_t> forward_start_ticks_{0};

  /// Watchdog shutdown handshake. Plain std::mutex (not the annotated
  /// wrapper): the only guarded state is the stop flag, and the condvar
  /// needs the std type.
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  /// Dispatcher-thread-private state (single consumer): the result cache and
  /// the reusable forward scratch. No lock — nothing else touches them; the
  /// confinement is machine-checked as a fake capability the dispatcher
  /// thread holds for its whole loop (common/thread_annotations.h).
  ThreadRole dispatcher_role_;
  std::map<std::string, CacheEntry> cache_ MIXQ_GUARDED_BY(dispatcher_role_);
  PredictScratch scratch_ MIXQ_GUARDED_BY(dispatcher_role_);
  int64_t cycles_since_sweep_ MIXQ_GUARDED_BY(dispatcher_role_) = 0;

  std::thread watchdog_;    ///< empty when options.watchdog_poll is zero
  std::thread dispatcher_;  ///< last member: started once state is ready
};

}  // namespace engine
}  // namespace mixq
