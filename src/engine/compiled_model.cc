// Copyright 2026 MixQ-GNN Authors
#include "engine/compiled_model.h"

#include <cmath>
#include <exception>

#include "engine/plan_verifier.h"

namespace mixq {
namespace engine {

namespace {

int64_t CountParams(const std::vector<Tensor>& params) {
  int64_t total = 0;
  for (const auto& p : params) total += p.numel();
  return total;
}

// Containment boundary: the executors (and the pipeline-replay reference
// path) are where serving runs arbitrary compute, so an exception escaping
// them — a kernel bug, an allocation failure growing scratch, an injected
// fault — must become a typed kInternal Status here instead of unwinding
// into the dispatcher thread and killing the process.
template <typename Fn>
Result<Tensor> RunContained(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + " failed: " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) +
                            " failed with a non-standard exception");
  }
}

}  // namespace

Result<CompiledModelPtr> CompileModel(const ModelArtifact& artifact) {
  if (artifact.scheme == nullptr) {
    return Status::InvalidArgument("artifact has no quantization scheme");
  }
  const bool is_gcn = artifact.model_kind == NodeModelKind::kGcn;
  if (is_gcn && artifact.gcn == nullptr) {
    return Status::InvalidArgument("artifact declares a GCN but holds no network");
  }
  if (!is_gcn && artifact.sage == nullptr) {
    return Status::InvalidArgument("artifact declares a SAGE but holds no network");
  }

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->model_kind_ = artifact.model_kind;
  model->gcn_ = artifact.gcn;
  model->sage_ = artifact.sage;
  model->scheme_ = artifact.scheme;
  model->forward_mu_ = artifact.forward_mu != nullptr
                           ? artifact.forward_mu
                           : std::make_shared<std::mutex>();

  // Freeze: eval mode, no gradients. Quantizer ranges are already frozen —
  // observers only update in training mode.
  std::vector<Tensor> params;
  if (is_gcn) {
    model->gcn_->SetTraining(false);
    params = model->gcn_->Parameters();
    model->info_.in_features = model->gcn_->config().in_features;
    model->info_.out_dim = model->gcn_->config().num_classes;
  } else {
    model->sage_->SetTraining(false);
    params = model->sage_->Parameters();
    model->info_.in_features = model->sage_->config().in_features;
    model->info_.out_dim = model->sage_->config().num_classes;
  }
  for (auto& p : params) p.SetRequiresGrad(false);
  model->info_.param_count = CountParams(params);
  model->info_.scheme_label = artifact.scheme_label;

  // Lowering pass: freeze the scheme into a flat, autograd-free plan with
  // compile-time quantized weights. Schemes that are not a fixed per-tensor
  // transform leave plan_ null and serve through PredictReference.
  model->plan_ = is_gcn ? ExecutionPlan::Lower(*model->gcn_, *artifact.scheme)
                        : ExecutionPlan::Lower(*model->sage_, *artifact.scheme);
  model->info_.lowered = model->plan_ != nullptr;
  model->info_.lowered_int8 = model->plan_ != nullptr && model->plan_->SupportsInt8();

  // Machine-checked lowering contract: every plan Lower emits must pass the
  // static verifier (always in debug builds, MIXQ_VERIFY=1 in release). A
  // failure here is a lowering bug, not a bad model.
  if (model->plan_ != nullptr && VerifyPlansEnabled()) {
    PlanShapes shapes;
    shapes.in_features = model->info_.in_features;
    shapes.out_dim = model->info_.out_dim;
    Status verified = VerifyPlan(*model->plan_, shapes);
    if (!verified.ok()) {
      return Status::Internal("lowering produced an invalid plan: " +
                              verified.message());
    }
  }

  // Value-range analysis (engine/plan_analysis.h): always attempted, so the
  // certificate is available to graph pairing whenever the proof goes
  // through. A failure is a lowering bug — fatal under the verify gate,
  // otherwise it just disables int8 serving (null certificate) while the
  // bitwise-exact fp32 paths keep working.
  if (model->plan_ != nullptr) {
    Result<PlanRangeCertificate> cert = AnalyzePlanRanges(*model->plan_);
    if (cert.ok()) {
      model->range_cert_ =
          std::make_unique<const PlanRangeCertificate>(cert.MoveValueOrDie());
    } else if (VerifyPlansEnabled()) {
      return Status::Internal("lowering produced a plan that fails range "
                              "analysis: " + cert.status().message());
    }
  }

  // Capture the per-component bit assignment as metadata.
  for (const std::string& id : artifact.scheme->ComponentIds()) {
    model->info_.bit_assignment[id] = static_cast<int>(
        std::lround(artifact.scheme->EffectiveBits(id, 32.0)));
  }
  if (artifact.op != nullptr && artifact.features.defined()) {
    BitOpsReport report =
        is_gcn ? model->gcn_->ComputeBitOps(artifact.features.rows(),
                                            artifact.op->nnz(), *artifact.scheme)
               : model->sage_->ComputeBitOps(artifact.features.rows(),
                                             artifact.op->nnz(), *artifact.scheme);
    model->info_.avg_bits = report.AverageBits();
  }
  return CompiledModelPtr(model);
}

Status CompiledModel::ValidateRequest(const Tensor& features,
                                      const SparseOperatorPtr& op) const {
  if (!features.defined()) {
    return Status::InvalidArgument("features tensor is undefined");
  }
  if (op == nullptr) return Status::InvalidArgument("sparse operator is null");
  if (features.cols() != info_.in_features) {
    return Status::InvalidArgument(
        "feature dimension mismatch: model expects " +
        std::to_string(info_.in_features) + ", got " +
        std::to_string(features.cols()));
  }
  if (op->matrix().cols() != features.rows()) {
    return Status::InvalidArgument(
        "operator/features mismatch: operator has " +
        std::to_string(op->matrix().cols()) + " columns, features " +
        std::to_string(features.rows()) + " rows");
  }
  // Node classification maps each node to itself: a non-square operator
  // would size the activations by one dimension and index by the other.
  if (op->matrix().rows() != op->matrix().cols()) {
    return Status::InvalidArgument(
        "operator must be square, got " + std::to_string(op->matrix().rows()) +
        "x" + std::to_string(op->matrix().cols()));
  }
  return Status::OK();
}

Result<Tensor> CompiledModel::Predict(const Tensor& features,
                                      const SparseOperatorPtr& op) const {
  PredictScratch scratch;
  return Predict(features, op, &scratch);
}

Result<Tensor> CompiledModel::Predict(const Tensor& features,
                                      const SparseOperatorPtr& op,
                                      PredictScratch* scratch) const {
  Status valid = ValidateRequest(features, op);
  if (!valid.ok()) return valid;
  if (plan_ == nullptr) return PredictReference(features, op);

  // Lock-free hot path: the plan is immutable, the scratch is caller-owned.
  return RunContained("fp32 forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(Shape(features.rows(), info_.out_dim));
    plan_->Execute(features.data().data(), RowUniverse(op->matrix()),
                   &scratch->plan, logits.data().data());
    return logits;
  });
}

Result<Tensor> CompiledModel::PredictQuantized(const Tensor& features,
                                               const SparseOperatorPtr& op) const {
  PredictScratch scratch;
  return PredictQuantized(features, op, &scratch);
}

Result<Tensor> CompiledModel::PredictQuantized(const Tensor& features,
                                               const SparseOperatorPtr& op,
                                               PredictScratch* scratch) const {
  Status valid = ValidateRequest(features, op);
  if (!valid.ok()) return valid;
  if (plan_ == nullptr || !plan_->SupportsInt8()) {
    return Status::NotImplemented(
        "scheme '" + info_.scheme_label +
        "' has no all-integer lowering (requires symmetric <= 8-bit "
        "quantizers at every component)");
  }
  if (range_cert_ == nullptr) {
    return Status::InvalidArgument(
        "plan has no value-range certificate (range analysis did not "
        "accept it); int8 serving is disabled — use Predict");
  }
  // Proven, per-step graph pairing: the certificate's symbolic SpMM depth
  // budget, refined by this operator's actual value range.
  Status paired =
      CheckGraphAgainstCertificate(*range_cert_, ComputeGraphRangeBounds(*op));
  if (!paired.ok()) return paired;
  return RunContained("int8 forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(Shape(features.rows(), info_.out_dim));
    plan_->ExecuteInt8(features.data().data(), RowUniverse(op->matrix()),
                       &scratch->plan, logits.data().data());
    return logits;
  });
}

std::unique_ptr<FrontierProgram> CompiledModel::BuildFrontierProgram(
    const SparseOperatorPtr& op, std::vector<int64_t> targets, bool int8,
    FrontierWorkspace* ws, double max_cost_fraction) const {
  if (op == nullptr || plan_ == nullptr) return nullptr;
  if (op->rows() != op->cols()) return nullptr;
  if (int8 && !plan_->SupportsInt8()) return nullptr;
  return FrontierProgram::Build(*plan_, int8, *op, std::move(targets), ws,
                                max_cost_fraction);
}

Result<Tensor> CompiledModel::PredictPruned(const Tensor& features,
                                            const FrontierProgram& program,
                                            PredictScratch* scratch) const {
  if (!features.defined()) {
    return Status::InvalidArgument("features tensor is undefined");
  }
  if (features.cols() != info_.in_features) {
    return Status::InvalidArgument(
        "feature dimension mismatch: model expects " +
        std::to_string(info_.in_features) + ", got " +
        std::to_string(features.cols()));
  }
  // The program's gathers index features by global node id: a row-count
  // mismatch would read out of bounds, so reject it like every sibling
  // Predict API rejects operator/feature mismatches.
  if (features.rows() != program.graph_nodes()) {
    return Status::InvalidArgument(
        "features/program mismatch: program was built for a graph with " +
        std::to_string(program.graph_nodes()) + " nodes, features have " +
        std::to_string(features.rows()) + " rows");
  }
  if (plan_ == nullptr) {
    return Status::NotImplemented("scheme '" + info_.scheme_label +
                                  "' is not lowered; pruned serving needs the "
                                  "flat execution plan");
  }
  return RunContained("pruned forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(
        Shape(static_cast<int64_t>(program.targets().size()), info_.out_dim));
    if (program.int8()) {
      plan_->ExecuteInt8(features.data().data(), RowUniverse(program),
                         &scratch->plan, logits.data().data());
    } else {
      plan_->Execute(features.data().data(), RowUniverse(program),
                     &scratch->plan, logits.data().data());
    }
    return logits;
  });
}

Result<Tensor> CompiledModel::PredictReference(const Tensor& features,
                                               const SparseOperatorPtr& op) const {
  Status valid = ValidateRequest(features, op);
  if (!valid.ok()) return valid;
  // Bundle-loaded models carry only the frozen plan — the live network and
  // scheme stayed in the training process, so there is no pipeline to replay.
  if (scheme_ == nullptr) {
    return Status::NotImplemented(
        "model was loaded from a bundle; the pipeline-replay reference path "
        "needs the live training network (use Predict)");
  }

  // Serialize forwards: replays the training pipeline's eval path exactly
  // (BeginStep(false) then a training=false forward), which is what makes
  // this path — and the lowered plan that must match it bitwise — reproduce
  // the experiment's eval logits.
  return RunContained("reference forward", [&]() -> Result<Tensor> {
    std::lock_guard<std::mutex> lock(*forward_mu_);
    scheme_->BeginStep(false);
    if (model_kind_ == NodeModelKind::kGcn) {
      return gcn_->Forward(features, op, scheme_.get(), nullptr);
    }
    return sage_->Forward(features, op, scheme_.get(), nullptr);
  });
}

}  // namespace engine
}  // namespace mixq
