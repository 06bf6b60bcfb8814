// Copyright 2026 MixQ-GNN Authors
// Compile-time lowering of a frozen (net, scheme) pair into a flat,
// autograd-free ExecutionPlan — the hot serving path behind
// CompiledModel::Predict.
//
// Lowering walks the network's eval-mode forward once, asking the scheme to
// freeze every quantization point via QuantScheme::TryLowerComponent, and
// emits a step list over a small set of reusable scratch buffers. Weights
// are quantized once at compile time (integer codes + the exactly matching
// fake-quantized float view); per-request work is reduced to the kernels
// themselves. Execution holds no lock: concurrent requests share nothing but
// the immutable plan.
//
// Two execution modes:
//   * Execute()     — float kernels over pre-quantized constants. Performs
//     the same per-element arithmetic in the same order as the training
//     pipeline's eval forward, so logits are bitwise identical to
//     PredictReference. This is the default serving mode.
//   * ExecuteInt8() — the paper's point made real: every activation lives as
//     int8 codes, dense layers run on the int8-blocked GEMM, message passing
//     on the Theorem-1 fused integer SpMM, with a single requantization per
//     component. Logits agree with the reference up to rounding ties on each
//     requantization (one quantization step), not bitwise — which is why it
//     is a separate opt-in mode (PredictQuantized) rather than the default.
//
// Each mode is ONE step loop over a RowUniverse: the full forward is every
// step over all N rows of the request's CSR, the receptive-field-pruned
// forward (engine/frontier_plan.h) is each step over its frontier, with a
// row gather and an induced CSR slice. Full and pruned rows therefore flow
// through the same code, which is what makes them bitwise identical.
//
// Schemes whose eval behaviour is not a fixed per-tensor transform (A2Q's
// per-node learned scales, the relaxed search mixture) cannot be lowered;
// CompileModel keeps the pipeline-replay path as a fallback for them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/models.h"
#include "quant/quant_params.h"
#include "quant/requant.h"
#include "quant/scheme.h"
#include "sparse/spmm.h"

namespace mixq {
namespace engine {

class FrontierProgram;

/// One dense linear transformation frozen at compile time.
struct LoweredLinear {
  int64_t in = 0;
  int64_t out = 0;
  /// Columns padded up to the GEMM vector width with zero weights (the
  /// executor compacts rows afterwards); == out when no padding was needed.
  int64_t out_padded = 0;
  /// Fake-quantized weights (bitwise what the reference forward multiplies
  /// by), or the raw weights for identity components. Row-major
  /// [in, out_padded].
  std::vector<float> weight_fq;
  std::vector<float> bias;  ///< empty = no bias
  /// Integer view for ExecuteInt8 (empty when the int8 plan is unavailable):
  /// the raw codes plus the pair-interleaved packing GemmInt8PackedB consumes.
  std::vector<int8_t> weight_q8;
  std::vector<int16_t> weight_packed;
  QuantParams weight_params;
  /// Quad-interleaved packing + per-column corrections for the VNNI kernel.
  /// DERIVED state: recomputed from weight_q8 by FinalizeDerived() after
  /// lowering or bundle load, never serialized (bundle format unchanged).
  std::vector<int8_t> weight_quad;
  std::vector<int32_t> weight_corr;
};

/// The rows one forward computes. A full forward runs every step over all
/// N rows of the request's CSR; a pruned forward runs each step over its
/// frontier in a FrontierProgram. Non-owning: the CSR or the program must
/// outlive the forward.
class RowUniverse {
 public:
  /// Full forward over every row of `a` (square; x has a.rows() rows).
  explicit RowUniverse(const CsrMatrix& a) : full_(&a) {}
  /// Pruned forward over the per-step frontiers of `program`.
  explicit RowUniverse(const FrontierProgram& program) : program_(&program) {}

  /// What one step computes and reads.
  struct StepRows {
    int64_t n = 0;  ///< rows the step computes (0 = dead for these targets)
    /// Row gather feeding a row-parallel step (positions into the src
    /// buffer's rows, or global ids into x); null = read src as stored.
    const std::vector<int64_t>* gather = nullptr;
    const CsrMatrix* csr = nullptr;  ///< the adjacency an SpMM step reads
  };
  StepRows At(size_t step) const;
  /// Rows of the output: N, or the program's target count.
  int64_t out_rows() const;
  const FrontierProgram* program() const { return program_; }

 private:
  const CsrMatrix* full_ = nullptr;
  const FrontierProgram* program_ = nullptr;
};

class ExecutionPlan {
 public:
  /// Buffer id denoting the caller's feature matrix (read-only).
  static constexpr int kInput = -1;

  enum class Op {
    kQuantize,  ///< dst = FakeQuant(src)
    kMatMul,    ///< dst = src · W (+ bias) via linears[linear]
    kSpmm,      ///< dst = Â · src with adjacency lowered per adj_quants[adj]
    kAdd,       ///< dst = src + src2
    kRelu,      ///< dst = max(src, 0)
  };
  struct Step {
    Op op = Op::kRelu;
    int src = 0, src2 = 0, dst = 0;  ///< scratch buffer ids (or kInput)
    int linear = -1;                 ///< kMatMul
    int adj = -1;                    ///< kSpmm
    LoweredComponent quant;          ///< kQuantize
    int64_t cols = 0;                ///< feature width of dst after the step
  };

  enum class IntOp {
    kQuantizeInput,  ///< codes(dst) = Quantize(features)
    kGemmRequant,    ///< codes(dst) = Requant(Sx·Sw · (q_src · Wq) + bias)
    kSpmmRequant,    ///< codes(dst) = Requant(Sa·Sx · (Âq · q_src))
    kAddRequant,     ///< codes(dst) = Requant(S1·q_src + S2·q_src2)
    kRelu,           ///< codes(dst) = max(codes(src), 0)  [symmetric]
  };
  struct IntStep {
    IntOp op = IntOp::kRelu;
    int src = 0, src2 = 0, dst = 0;
    int linear = -1;
    int adj = -1;
    QuantParams src_params;   ///< params of src codes
    QuantParams src2_params;  ///< params of src2 codes (kAddRequant)
    QuantParams out_params;   ///< requantization target of dst
    /// bias / out scale, precomputed at lowering (kGemmRequant with bias);
    /// keeps the per-forward requant free of allocations.
    std::vector<double> bias_over;
    int64_t cols = 0;
    /// DERIVED requantization constants, frozen by FinalizeDerived() so the
    /// hot path neither recomputes scale ratios nor rebuilds the emitter per
    /// call (never serialized). `total` is the folded scale ratio of
    /// kGemmRequant/kSpmmRequant; `s1`/`s2` are kAddRequant's operand
    /// ratios; `emitter` rounds into out_params' grid.
    double total = 0.0;
    double s1 = 0.0, s2 = 0.0;
    CodeEmitter emitter;
    /// DERIVED per-step VNNI certificate (kGemmRequant only): every
    /// unsigned-shifted partial sum Σ (aᵢ+128)·bᵢ of this step provably fits
    /// int32, computed by FinalizeDerived() from the source grid's code
    /// bound and the linear's ACTUAL frozen weight codes (same arithmetic as
    /// engine/plan_analysis.h's prover). Consumed by the GemmInt8Requant
    /// dispatch in place of the coarse global Int8VnniDepthOk(k).
    bool vnni_safe = false;
  };

  /// Reusable per-request workspace. Callers (or serving threads) keep one
  /// around to amortize allocations; a default-constructed one works.
  struct Scratch {
    std::vector<std::vector<float>> f;   ///< float activation buffers
    std::vector<std::vector<int8_t>> q;  ///< int8 code buffers
    std::vector<float> adj_f;            ///< fake-quantized adjacency values
    std::vector<int8_t> adj_q;           ///< int8 adjacency codes
    std::vector<float> gather_f;         ///< row gather staging
    std::vector<int8_t> gather_q;        ///< ... and its int8 counterpart
  };

  /// Lowers a frozen net + scheme. Returns nullptr when any component is not
  /// expressible as a fixed per-tensor transform (the caller keeps the
  /// pipeline-replay fallback).
  static std::unique_ptr<ExecutionPlan> Lower(const GcnNet& net,
                                              const QuantScheme& scheme);
  static std::unique_ptr<ExecutionPlan> Lower(const SageNet& net,
                                              const QuantScheme& scheme);

  /// True when the all-integer mode is available (every quantization point is
  /// a symmetric <= 8-bit quantizer).
  bool SupportsInt8() const { return has_int8_; }

  int64_t in_features() const { return in_features_; }
  int64_t out_dim() const { return out_dim_; }

  // ---- Introspection ---------------------------------------------------------
  // Read-only views of the lowered program, exposed for the static verifier
  // (engine/plan_verifier.h) and tooling. The step lists and tables are
  // immutable once Lower()/LoadBundle return.
  int num_buffers() const { return num_buffers_; }
  const std::vector<Step>& steps() const { return steps_; }
  int final_buffer() const { return final_buffer_; }
  const std::vector<LoweredLinear>& linears() const { return linears_; }
  const std::vector<LoweredComponent>& adj_quants() const { return adj_quants_; }
  const std::vector<IntStep>& int_steps() const { return int_steps_; }
  int int_final_buffer() const { return int_final_buffer_; }
  const QuantParams& int_final_params() const { return int_final_params_; }

  /// Runs the exact float plan over `rows`, writing logits
  /// [rows.out_rows(), out_dim] into `out`: row i is node i for a full
  /// forward, node targets()[i] for a pruned one. `x` is always the FULL
  /// feature matrix [N, in_features]. Every step runs the same kernels in
  /// the same accumulation order whatever the universe, so a pruned row is
  /// bitwise identical to the same row of the full forward — and to
  /// PredictReference. Thread-safe and lock-free; each concurrent caller
  /// passes its own scratch.
  void Execute(const float* x, const RowUniverse& rows, Scratch* scratch,
               float* out) const;

  /// Runs the integer plan (requires SupportsInt8(); a pruned program must
  /// be built with int8=true). Codes are bitwise identical across
  /// universes the same way.
  void ExecuteInt8(const float* x, const RowUniverse& rows, Scratch* scratch,
                   float* out) const;

 private:
  ExecutionPlan() = default;

  /// Recomputes every DERIVED field — linears' VNNI quad packing and the int
  /// steps' requant constants/emitters — from the serialized state. Called
  /// after lowering (PlanBuilder::Finish) and after bundle load (before
  /// verification), idempotent, defensive against out-of-range step indices
  /// (skips them; the plan verifier rejects such plans afterwards).
  void FinalizeDerived();

  int64_t in_features_ = 0;
  int64_t out_dim_ = 0;
  int num_buffers_ = 0;
  std::vector<Step> steps_;
  std::vector<LoweredLinear> linears_;
  std::vector<LoweredComponent> adj_quants_;
  int final_buffer_ = 0;

  bool has_int8_ = false;
  std::vector<IntStep> int_steps_;
  int int_final_buffer_ = 0;
  QuantParams int_final_params_;

  friend class PlanBuilder;
  friend class FrontierProgram;
  /// Bundle (de)serialization — engine/model_bundle.cc.
  friend class ExecutionPlanCodec;
};

}  // namespace engine
}  // namespace mixq
