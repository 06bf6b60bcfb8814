// Copyright 2026 MixQ-GNN Authors
#include "engine/batcher.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "common/fault_injection.h"

namespace mixq {
namespace engine {

namespace {

double MicrosBetween(ServingClock::time_point from, ServingClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Copies the requested logit rows into a fresh tensor (cached logits must
/// never share storage with a caller-visible tensor). Empty ids = all rows,
/// in ORIGINAL node order; duplicate ids each get their own row, in request
/// order. `logits` lives in the graph's internal row order — this gather is
/// the single point where the locality reorder is undone for callers.
Result<Tensor> GatherLogitRows(const Tensor& logits, const std::vector<int64_t>& ids,
                               const GraphContext& graph) {
  const int64_t n = logits.rows();
  const int64_t d = logits.cols();
  if (ids.empty()) {
    if (!graph.reordered()) {
      return Tensor::FromVector(logits.shape(), logits.data());
    }
    Tensor rows = Tensor::Zeros(logits.shape());
    float* dst = rows.data().data();
    const float* src = logits.data().data();
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(dst + static_cast<size_t>(i) * static_cast<size_t>(d),
                  src + static_cast<size_t>(graph.ToInternal(i)) *
                            static_cast<size_t>(d),
                  static_cast<size_t>(d) * sizeof(float));
    }
    return rows;
  }
  Tensor rows = Tensor::Zeros(Shape(static_cast<int64_t>(ids.size()), d));
  float* dst = rows.data().data();
  const float* src = logits.data().data();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    if (id < 0 || id >= n) {
      return Status::InvalidArgument("node id " + std::to_string(id) +
                                     " out of range for graph with " +
                                     std::to_string(n) + " nodes");
    }
    std::memcpy(dst + static_cast<size_t>(i) * static_cast<size_t>(d),
                src + static_cast<size_t>(graph.ToInternal(id)) *
                          static_cast<size_t>(d),
                static_cast<size_t>(d) * sizeof(float));
  }
  return rows;
}

/// Gather against a PRUNED forward's output, whose row i holds INTERNAL node
/// targets[i] (sorted unique): each requested id — duplicates included,
/// order preserved — is translated to its internal row and located by binary
/// search. Ids were range-checked at coalescing time and their translations
/// unioned into targets, so lookups cannot miss.
Tensor GatherPrunedRows(const Tensor& pruned, const std::vector<int64_t>& targets,
                        const std::vector<int64_t>& ids,
                        const GraphContext& graph) {
  const int64_t d = pruned.cols();
  Tensor rows = Tensor::Zeros(Shape(static_cast<int64_t>(ids.size()), d));
  float* dst = rows.data().data();
  const float* src = pruned.data().data();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t internal = graph.ToInternal(ids[i]);
    const auto it = std::lower_bound(targets.begin(), targets.end(), internal);
    MIXQ_CHECK(it != targets.end() && *it == internal);
    const size_t row = static_cast<size_t>(it - targets.begin());
    std::memcpy(dst + i * static_cast<size_t>(d),
                src + row * static_cast<size_t>(d),
                static_cast<size_t>(d) * sizeof(float));
  }
  return rows;
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kAuto: return "auto";
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
  }
  return "unknown";
}

Result<Precision> ResolvePrecision(const CompiledModel& model,
                                   const GraphContext& graph,
                                   Precision requested) {
  // Per-plan pairing: the model's range certificate (per-step symbolic SpMM
  // depth budget, engine/plan_analysis.h) against the graph's precomputed
  // bounds, so a plan with narrow codes can serve hub-heavy graphs.
  const PlanRangeCertificate* cert = model.range_certificate();
  switch (requested) {
    case Precision::kFp32:
      return Precision::kFp32;
    case Precision::kInt8: {
      if (!model.info().lowered_int8) {
        return Status::NotImplemented("model '" + model.info().scheme_label +
                                      "' has no all-integer lowering");
      }
      if (cert == nullptr) {
        return Status::InvalidArgument(
            "model '" + model.info().scheme_label +
            "' has no value-range certificate (range analysis did not accept "
            "its plan); request fp32");
      }
      Status paired = CheckGraphAgainstCertificate(*cert, graph.range_bounds);
      if (!paired.ok()) {
        return Status::InvalidArgument("graph '" + graph.name +
                                       "' fails the int8 pairing check: " +
                                       paired.message());
      }
      return Precision::kInt8;
    }
    case Precision::kAuto:
      return model.info().lowered_int8 && cert != nullptr &&
                     CheckGraphAgainstCertificate(*cert, graph.range_bounds).ok()
                 ? Precision::kInt8
                 : Precision::kFp32;
  }
  return Status::InvalidArgument("unknown precision");
}

Result<Tensor> ForwardFullGraph(const CompiledModel& model,
                                const GraphContext& graph, Precision resolved,
                                PredictScratch* scratch) {
  if (resolved == Precision::kInt8) {
    return model.PredictQuantized(graph.features, graph.op, scratch);
  }
  return model.Predict(graph.features, graph.op, scratch);
}

Batcher::Batcher(Backend backend, BatcherOptions options)
    : backend_(std::move(backend)),
      options_(options),
      queue_(options.queue_capacity),
      watchdog_(options.watchdog_poll.count() > 0
                    ? std::thread([this] { WatchdogLoop(); })
                    : std::thread()),
      dispatcher_([this] { DispatcherLoop(); }) {}

Batcher::~Batcher() {
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<Result<PredictResponse>> Batcher::Submit(PredictRequest request) {
  Pending pending;
  pending.admitted = ServingClock::now();
  std::future<Result<PredictResponse>> future = pending.promise.get_future();
  if (pending.admitted > request.deadline) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    backend_.count_failure();
    pending.promise.set_value(
        Status::DeadlineExceeded("request deadline passed before admission"));
    return future;
  }
  // Chaos hook: an admission-path failure (e.g. the queue's allocator).
  // Typed and fulfilled exactly like every other admission rejection.
  if (fault::ShouldFail("batcher.admit")) {
    backend_.count_failure();
    pending.promise.set_value(
        Status::Internal("injected fault at 'batcher.admit'"));
    return future;
  }
  pending.request = std::move(request);
  if (!queue_.TryPush(std::move(pending))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    backend_.count_failure();
    pending.promise.set_value(Status::ResourceExhausted(
        "serving queue full (capacity " +
        std::to_string(queue_.capacity()) + ") or shut down"));
    return future;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void Batcher::DispatcherLoop() {
  // The dispatcher thread owns the confined state (cache_, scratch_) for its
  // whole life; acquiring the role here is what lets Dispatch/SweepCache
  // declare MIXQ_REQUIRES(dispatcher_role_).
  ThreadRoleHolder role(&dispatcher_role_);
  for (;;) {
    std::vector<Pending> batch = queue_.WaitDrain();
    if (batch.empty()) return;  // closed and fully drained
    Dispatch(std::move(batch));
  }
}

void Batcher::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, options_.watchdog_poll,
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const int64_t start = forward_start_ticks_.load(std::memory_order_acquire);
    if (start == 0) continue;  // dispatcher is not inside a forward
    const ServingClock::time_point now = ServingClock::now();
    const ServingClock::duration stalled =
        now - ServingClock::time_point(ServingClock::duration(start));
    if (stalled < options_.max_forward_stall) continue;
    // The dispatcher has been wedged inside one forward past the stall
    // budget: expire queued requests whose deadline already passed so their
    // callers unblock now, not when (if) the forward returns. RemoveIf and
    // the dispatcher's drain serialize on the queue mutex, so each request
    // is fulfilled by exactly one of them.
    std::vector<Pending> dead = queue_.RemoveIf(
        [&](const Pending& pending) { return now > pending.request.deadline; });
    for (Pending& pending : dead) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      watchdog_expired_.fetch_add(1, std::memory_order_relaxed);
      Fail(&pending,
           Status::DeadlineExceeded("request expired while the dispatcher "
                                    "stalled in a forward (watchdog)"),
           nullptr);
    }
  }
}

void Batcher::Fail(Pending* pending, Status status,
                   const ModelCountersPtr& counters) {
  backend_.count_failure();
  if (counters != nullptr) {
    counters->failures.fetch_add(1, std::memory_order_relaxed);
  }
  pending->promise.set_value(std::move(status));
}

void Batcher::Dispatch(std::vector<Pending> batch) {
  in_dispatch_.fetch_add(static_cast<int64_t>(batch.size()),
                         std::memory_order_relaxed);
  const ServingClock::time_point dispatch_start = ServingClock::now();

  // Coalesce: group the drained requests by (model, graph, resolved
  // precision). Registry lookups happen here — once per distinct name, not
  // per request — so hot swaps between admission and dispatch are honoured.
  struct Group {
    ModelHandle handle;
    GraphContextPtr graph;
    Precision resolved = Precision::kFp32;
    bool all_auto = true;  ///< every member asked kAuto (ladder-eligible)
    std::vector<Pending> members;
  };

  // Overload rungs, decided once per drained batch: the drained size is the
  // backlog one forward's latency accumulated, i.e. the live load signal.
  // Thresholds are absolute request counts (not capacity fractions) so
  // small-queue tests and deployments keep exact admission semantics.
  const int64_t drained = static_cast<int64_t>(batch.size());
  const bool degraded = options_.degrade_batch_threshold > 0 &&
                        drained >= options_.degrade_batch_threshold;
  const bool shedding = options_.shed_batch_threshold > 0 &&
                        drained >= options_.shed_batch_threshold;
  const double max_cost_fraction = degraded
                                       ? options_.degraded_max_cost_fraction
                                       : options_.pruned_max_cost_fraction;
  std::map<std::string, Group> groups;
  std::map<std::string, Result<ModelHandle>> model_lookups;
  std::map<std::string, Result<GraphContextPtr>> graph_lookups;

  for (Pending& pending : batch) {
    auto model_it = model_lookups.find(pending.request.model);
    if (model_it == model_lookups.end()) {
      model_it = model_lookups
                     .emplace(pending.request.model,
                              backend_.lookup_model(pending.request.model))
                     .first;
    }
    ModelCountersPtr counters = model_it->second.ok()
                                    ? model_it->second.ValueOrDie().counters
                                    : nullptr;
    if (dispatch_start > pending.request.deadline) {
      expired_.fetch_add(1, std::memory_order_relaxed);
      Fail(&pending, Status::DeadlineExceeded("request expired in queue"), counters);
      continue;
    }
    if (!model_it->second.ok()) {
      Fail(&pending, model_it->second.status(), nullptr);
      continue;
    }
    auto graph_it = graph_lookups.find(pending.request.graph);
    if (graph_it == graph_lookups.end()) {
      graph_it = graph_lookups
                     .emplace(pending.request.graph,
                              backend_.lookup_graph(pending.request.graph))
                     .first;
    }
    if (!graph_it->second.ok()) {
      Fail(&pending, graph_it->second.status(), counters);
      continue;
    }
    const ModelHandle& handle = model_it->second.ValueOrDie();
    const GraphContextPtr& graph = graph_it->second.ValueOrDie();
    Result<Precision> resolved =
        ResolvePrecision(*handle.model, *graph, pending.request.precision);
    if (!resolved.ok()) {
      Fail(&pending, resolved.status(), counters);
      continue;
    }
    // Range-check node ids now, while the graph is resolved: a bad request
    // must not cost (or trigger) the group's shared forward.
    const int64_t num_nodes = graph->features.rows();
    bool ids_ok = true;
    for (int64_t id : pending.request.node_ids) {
      if (id < 0 || id >= num_nodes) {
        Fail(&pending,
             Status::InvalidArgument("node id " + std::to_string(id) +
                                     " out of range for graph '" +
                                     pending.request.graph + "' with " +
                                     std::to_string(num_nodes) + " nodes"),
             counters);
        ids_ok = false;
        break;
      }
    }
    if (!ids_ok) continue;
    std::string key = pending.request.model + '\x1f' + pending.request.graph +
                      '\x1f' + PrecisionName(resolved.ValueOrDie());
    Group& group = groups[key];
    if (group.members.empty()) {
      group.handle = handle;
      group.graph = graph;
      group.resolved = resolved.ValueOrDie();
    }
    group.all_auto =
        group.all_auto && pending.request.precision == Precision::kAuto;
    group.members.push_back(std::move(pending));
  }

  // One forward (or cache gather) per group.
  for (auto& [key, group] : groups) {
    // Deadlines are re-checked per group: an earlier group's forward may
    // have consumed another group's remaining budget.
    const ServingClock::time_point group_start = ServingClock::now();
    std::vector<Pending> live;
    live.reserve(group.members.size());
    for (Pending& pending : group.members) {
      if (group_start > pending.request.deadline) {
        expired_.fetch_add(1, std::memory_order_relaxed);
        Fail(&pending, Status::DeadlineExceeded("request expired in queue"),
             group.handle.counters);
      } else {
        live.push_back(std::move(pending));
      }
    }
    if (live.empty()) continue;

    Tensor logits;
    bool cache_hit = false;
    double forward_us = 0.0;
    // Routing, cheapest first: a valid cache entry is a pure row gather;
    // then a receptive-field-pruned forward when the group asks for few
    // rows of a large graph; the full forward otherwise (and only the full
    // forward's logits are cacheable — a pruned result never fills the
    // cache, it does not cover the graph).
    std::unique_ptr<FrontierProgram> program;
    auto cached = cache_.find(key);
    if (options_.enable_cache && cached != cache_.end() &&
        cached->second.model_version == group.handle.version &&
        cached->second.graph_version == group.graph->version) {
      logits = cached->second.logits;
      cache_hit = true;
      cache_hits_.fetch_add(static_cast<int64_t>(live.size()),
                            std::memory_order_relaxed);
    } else {
      const int64_t num_nodes = group.graph->features.rows();
      if (options_.enable_pruning && group.handle.model->info().lowered &&
          num_nodes >= options_.pruned_min_graph_nodes) {
        // Union of the group's requested rows, translated into the graph's
        // internal order (the frontier analysis and pruned forward see only
        // internal ids); any all-rows request pins the whole graph and
        // keeps the group on the full path.
        std::vector<int64_t> targets;
        bool all_rows = false;
        for (const Pending& pending : live) {
          if (pending.request.node_ids.empty()) {
            all_rows = true;
            break;
          }
          for (const int64_t id : pending.request.node_ids) {
            targets.push_back(group.graph->ToInternal(id));
          }
        }
        if (!all_rows) {
          std::sort(targets.begin(), targets.end());
          targets.erase(std::unique(targets.begin(), targets.end()),
                        targets.end());
          program = group.handle.model->BuildFrontierProgram(
              group.graph->op, std::move(targets),
              group.resolved == Precision::kInt8,
              group.graph->frontier_ws.get(), max_cost_fraction);
        }
      }
      // The shed rung: every cheaper mode was already tried for this group
      // (cache missed, no pruned program, kAuto resolved to fp32 because
      // there is no int8 lowering). Under shedding load the full fp32
      // forward is the one cost that collapses everyone's latency, so kAuto
      // groups give it up with a typed retry-later instead.
      if (shedding && group.all_auto && program == nullptr &&
          group.resolved == Precision::kFp32) {
        shed_.fetch_add(static_cast<int64_t>(live.size()),
                        std::memory_order_relaxed);
        for (Pending& pending : live) {
          Fail(&pending,
               Status::Unavailable(
                   "load shed: serving is overloaded and this kAuto request "
                   "needs a full fp32 forward; retry later"),
               group.handle.counters);
        }
        continue;
      }
      // Circuit breaker: consulted only when a real forward is about to run
      // (cache hits and sheds never touch it), reported right after.
      if (backend_.breaker_admit != nullptr) {
        Status admit = backend_.breaker_admit(live.front().request.model,
                                              live.front().request.graph);
        if (!admit.ok()) {
          for (Pending& pending : live) {
            Fail(&pending, admit, group.handle.counters);
          }
          continue;
        }
      }
      forward_start_ticks_.store(group_start.time_since_epoch().count(),
                                 std::memory_order_release);
      // Second containment boundary (the first wraps the executors inside
      // CompiledModel): anything that still escapes a group forward fails
      // this group's futures, never the dispatcher thread.
      Result<Tensor> forward = [&]() -> Result<Tensor> {
        try {
          return program != nullptr
                     ? group.handle.model->PredictPruned(group.graph->features,
                                                         *program, &scratch_)
                     : ForwardFullGraph(*group.handle.model, *group.graph,
                                        group.resolved, &scratch_);
        } catch (const std::exception& e) {
          return Status::Internal(std::string("group forward threw: ") +
                                  e.what());
        } catch (...) {
          return Status::Internal(
              "group forward threw a non-standard exception");
        }
      }();
      forward_start_ticks_.store(0, std::memory_order_release);
      if (backend_.breaker_report != nullptr) {
        backend_.breaker_report(live.front().request.model,
                                live.front().request.graph, forward.ok());
      }
      if (!forward.ok() && forward.status().code() == StatusCode::kInternal) {
        contained_faults_.fetch_add(1, std::memory_order_relaxed);
      }
      forward_us = MicrosBetween(group_start, ServingClock::now());
      forwards_.fetch_add(1, std::memory_order_relaxed);
      (program != nullptr ? pruned_forwards_ : full_forwards_)
          .fetch_add(1, std::memory_order_relaxed);
      (group.resolved == Precision::kInt8
           ? group.handle.counters->forward_int8
           : group.handle.counters->forward_fp32)
          .Record(forward_us);
      if (!forward.ok()) {
        for (Pending& pending : live) {
          Fail(&pending, forward.status(), group.handle.counters);
        }
        continue;
      }
      logits = forward.MoveValueOrDie();
      if (options_.enable_cache && program == nullptr) {
        cache_[key] = CacheEntry{live.front().request.model,
                                 live.front().request.graph,
                                 group.handle.version, group.graph->version,
                                 logits};
      }
    }

    for (Pending& pending : live) {
      Result<Tensor> rows =
          program != nullptr
              ? Result<Tensor>(GatherPrunedRows(logits, program->targets(),
                                                pending.request.node_ids,
                                                *group.graph))
              : GatherLogitRows(logits, pending.request.node_ids, *group.graph);
      if (!rows.ok()) {
        Fail(&pending, rows.status(), group.handle.counters);
        continue;
      }
      PredictResponse response;
      response.rows = rows.MoveValueOrDie();
      response.node_ids = pending.request.node_ids;
      response.precision = group.resolved;
      response.batch_size = static_cast<int64_t>(live.size());
      response.cache_hit = cache_hit;
      response.pruned = program != nullptr;
      response.frontier_rows = program != nullptr ? program->frontier_rows() : 0;
      response.forward_us = forward_us;
      response.queue_us = MicrosBetween(pending.admitted, dispatch_start);
      response.total_us = MicrosBetween(pending.admitted, ServingClock::now());
      group.handle.counters->successes.fetch_add(1, std::memory_order_relaxed);
      group.handle.counters->latency.Record(response.total_us);
      pending.promise.set_value(std::move(response));
    }
  }
  in_dispatch_.fetch_sub(static_cast<int64_t>(batch.size()),
                         std::memory_order_relaxed);
  if (++cycles_since_sweep_ >= 64) {
    cycles_since_sweep_ = 0;
    SweepCache();
  }
}

void Batcher::SweepCache() {
  for (auto it = cache_.begin(); it != cache_.end();) {
    const CacheEntry& entry = it->second;
    Result<ModelHandle> model = backend_.lookup_model(entry.model_name);
    Result<GraphContextPtr> graph = backend_.lookup_graph(entry.graph_name);
    const bool valid = model.ok() && graph.ok() &&
                       model.ValueOrDie().version == entry.model_version &&
                       graph.ValueOrDie()->version == entry.graph_version;
    it = valid ? std::next(it) : cache_.erase(it);
  }
}

Batcher::Stats Batcher::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.forwards = forwards_.load(std::memory_order_relaxed);
  stats.pruned_forwards = pruned_forwards_.load(std::memory_order_relaxed);
  stats.full_forwards = full_forwards_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.contained_faults = contained_faults_.load(std::memory_order_relaxed);
  stats.watchdog_expired = watchdog_expired_.load(std::memory_order_relaxed);
  stats.queue_depth = static_cast<int64_t>(queue_.size());
  stats.in_dispatch = in_dispatch_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace engine
}  // namespace mixq
