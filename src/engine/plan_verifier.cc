// Copyright 2026 MixQ-GNN Authors
#include "engine/plan_verifier.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/execution_plan.h"
#include "engine/frontier_plan.h"
#include "quant/requant.h"
#include "tensor/gemm.h"

namespace mixq {
namespace engine {

namespace {

using Op = ExecutionPlan::Op;
using IntOp = ExecutionPlan::IntOp;
using Step = ExecutionPlan::Step;
using IntStep = ExecutionPlan::IntStep;

/// Structural dimensions past this are corruption, not models (matches the
/// bundle codec's bound) — and keep every size product below overflow.
constexpr int64_t kMaxDim = 1 << 20;

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuantize: return "Quantize";
    case Op::kMatMul: return "MatMul";
    case Op::kSpmm: return "SpMM";
    case Op::kAdd: return "Add";
    case Op::kRelu: return "ReLU";
  }
  return "?";
}

const char* OpName(IntOp op) {
  switch (op) {
    case IntOp::kQuantizeInput: return "QuantizeInput";
    case IntOp::kGemmRequant: return "GemmRequant";
    case IntOp::kSpmmRequant: return "SpmmRequant";
    case IntOp::kAddRequant: return "AddRequant";
    case IntOp::kRelu: return "ReLU";
  }
  return "?";
}

/// "fp32 step 3 (SpMM): " — every rejection is step-indexed so a bad bundle
/// names exactly where its program breaks.
std::string At(const char* list, size_t index, const char* op) {
  return std::string(list) + " step " + std::to_string(index) + " (" + op + "): ";
}

Status Invalid(const std::string& where, const std::string& what) {
  return Status::InvalidArgument(where + what);
}

/// GEMM and SpMM rows read across their source while writing the
/// destination, so in place they would consume overwritten rows — and the
/// destination's resize would free the source under the kernel.
/// Elementwise steps (quantize, ReLU, add) stay legal in place.
Status InPlaceRowMixing(const std::string& where, int buffer) {
  return Invalid(where, "row-mixing step writes its own source buffer " +
                            std::to_string(buffer));
}

/// Empty when `p` is a usable fake-quantization grid; otherwise the reason.
std::string ParamsError(const QuantParams& p) {
  if (p.bits < 1 || p.bits > 32) {
    return "quantizer bits " + std::to_string(p.bits) + " outside [1, 32]";
  }
  if (!std::isfinite(p.scale) || p.scale <= 0.0f) {
    return "quantizer scale must be finite and > 0";
  }
  if (p.symmetric && p.zero_point != 0) {
    return "symmetric quantizer has zero point " + std::to_string(p.zero_point);
  }
  return "";
}

/// Empty when `p` can carry int8 codes through the integer executor: the
/// Int8able lowering gate (symmetric, zero point 0, <= 8 bits) re-stated as
/// a load-time contract.
std::string CodeParamsError(const QuantParams& p) {
  std::string err = ParamsError(p);
  if (!err.empty()) return err;
  if (p.bits > 8) {
    return "quantizer bits " + std::to_string(p.bits) +
           " exceed 8 (codes must fit int8)";
  }
  if (!p.symmetric || p.zero_point != 0) {
    return "int8 codes require a symmetric quantizer with zero point 0";
  }
  return "";
}

bool SameParams(const QuantParams& a, const QuantParams& b) {
  return a.scale == b.scale && a.zero_point == b.zero_point &&
         a.bits == b.bits && a.symmetric == b.symmetric;
}

std::string ParamsLabel(const QuantParams& p) {
  return "(scale=" + std::to_string(p.scale) +
         ", zp=" + std::to_string(p.zero_point) +
         ", bits=" + std::to_string(p.bits) + ")";
}

/// Derived requant constants are compared bit-for-bit (memcmp, not ==): the
/// fused epilogues fold these doubles straight into the kernels, so even a
/// one-ulp drift from the serialized quantizers would break the bitwise
/// parity contract between the fused kernels and their exact-integer
/// reference (accumulate, then requantize).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Empty when `got` is exactly CodeEmitter(out_p); otherwise the reason.
std::string EmitterError(const CodeEmitter& got, const QuantParams& out_p) {
  const CodeEmitter expect(out_p);
  if (!SameBits(got.vlo, expect.vlo) || !SameBits(got.vhi, expect.vhi) ||
      got.zp != expect.zp || got.lo != expect.lo || got.hi != expect.hi) {
    return "requant emitter disagrees with the output quantizer " +
           ParamsLabel(out_p);
  }
  return "";
}

// ---- table checks ----------------------------------------------------------

Status VerifyLinears(const ExecutionPlan& plan) {
  const std::vector<LoweredLinear>& linears = plan.linears();
  for (size_t i = 0; i < linears.size(); ++i) {
    const LoweredLinear& lin = linears[i];
    const std::string where = "linear " + std::to_string(i) + ": ";
    if (lin.in < 1 || lin.in > kMaxDim || lin.out < 1 || lin.out > kMaxDim ||
        lin.out_padded < lin.out || lin.out_padded > kMaxDim) {
      return Invalid(where, "dimensions [in=" + std::to_string(lin.in) +
                                ", out=" + std::to_string(lin.out) +
                                ", out_padded=" + std::to_string(lin.out_padded) +
                                "] are not a valid padded weight shape");
    }
    const size_t expect =
        static_cast<size_t>(lin.in) * static_cast<size_t>(lin.out_padded);
    if (lin.weight_fq.size() != expect) {
      return Invalid(where, "weight buffer holds " +
                                std::to_string(lin.weight_fq.size()) +
                                " floats, shape needs " + std::to_string(expect));
    }
    if (!lin.bias.empty() && lin.bias.size() != static_cast<size_t>(lin.out)) {
      return Invalid(where, "bias holds " + std::to_string(lin.bias.size()) +
                                " floats, output width is " +
                                std::to_string(lin.out));
    }
    if (lin.weight_q8.empty() != lin.weight_packed.empty()) {
      return Invalid(where, "int8 code and packed weight buffers must be "
                            "present together");
    }
    if (!lin.weight_q8.empty()) {
      if (lin.weight_q8.size() != expect) {
        return Invalid(where, "int8 weight buffer holds " +
                                  std::to_string(lin.weight_q8.size()) +
                                  " codes, shape needs " + std::to_string(expect));
      }
      const size_t packed_expect =
          static_cast<size_t>(PackedPairSize(lin.in, lin.out_padded));
      if (lin.weight_packed.size() != packed_expect) {
        return Invalid(where, "packed weight buffer holds " +
                                  std::to_string(lin.weight_packed.size()) +
                                  " int16s, pair packing needs " +
                                  std::to_string(packed_expect));
      }
      const std::string perr = CodeParamsError(lin.weight_params);
      if (!perr.empty()) return Invalid(where, "weight " + perr);
      // The packed view must BE the pair-interleaving of the codes: the int8
      // GEMM consumes only weight_packed, so a disagreement would serve
      // logits from weights nobody ever quantized.
      std::vector<int16_t> repacked(packed_expect);
      PackInt8PairB(lin.weight_q8.data(), lin.in, lin.out_padded, repacked.data());
      if (std::memcmp(repacked.data(), lin.weight_packed.data(),
                      packed_expect * sizeof(int16_t)) != 0) {
        return Invalid(where,
                       "packed weights do not match the pair-interleaving of "
                       "the int8 codes");
      }
      // DERIVED state (FinalizeDerived runs before verification on both the
      // lowering and bundle-load paths): the VNNI quad packing and its
      // per-column corrections must likewise be exactly the reinterleaving
      // of the codes, or the vpdpbusd kernel would multiply by weights that
      // disagree with every other execution path.
      const size_t quad_expect =
          static_cast<size_t>(PackedQuadSize(lin.in, lin.out_padded));
      if (lin.weight_quad.size() != quad_expect ||
          lin.weight_corr.size() != static_cast<size_t>(lin.out_padded)) {
        return Invalid(where, "derived quad packing holds " +
                                  std::to_string(lin.weight_quad.size()) + "/" +
                                  std::to_string(lin.weight_corr.size()) +
                                  " entries, quad packing needs " +
                                  std::to_string(quad_expect) + "/" +
                                  std::to_string(lin.out_padded));
      }
      std::vector<int8_t> requad(quad_expect);
      std::vector<int32_t> recorr(static_cast<size_t>(lin.out_padded));
      PackInt8QuadB(lin.weight_q8.data(), lin.in, lin.out_padded, requad.data(),
                    recorr.data());
      if (std::memcmp(requad.data(), lin.weight_quad.data(),
                      quad_expect * sizeof(int8_t)) != 0 ||
          std::memcmp(recorr.data(), lin.weight_corr.data(),
                      static_cast<size_t>(lin.out_padded) * sizeof(int32_t)) !=
              0) {
        return Invalid(where,
                       "derived quad packing does not match the "
                       "quad-interleaving of the int8 codes");
      }
    }
  }
  return Status::OK();
}

Status VerifyAdjQuants(const ExecutionPlan& plan) {
  const std::vector<LoweredComponent>& adjs = plan.adj_quants();
  for (size_t i = 0; i < adjs.size(); ++i) {
    if (adjs[i].identity) continue;
    const std::string perr = ParamsError(adjs[i].params);
    if (!perr.empty()) {
      return Status::InvalidArgument("adjacency quantizer " + std::to_string(i) +
                                     ": " + perr);
    }
  }
  return Status::OK();
}

// ---- fp32 step-list walk ---------------------------------------------------

/// Symbolic buffer state: executors size every buffer to n rows, so only the
/// column width and the written bit travel.
struct BufState {
  bool written = false;
  int64_t cols = 0;
};

Status WalkFloatSteps(const ExecutionPlan& plan, std::vector<bool>* used_linear,
                      std::vector<bool>* used_adj) {
  const int num_buffers = plan.num_buffers();
  std::vector<BufState> buf(static_cast<size_t>(num_buffers));
  const std::vector<Step>& steps = plan.steps();
  if (steps.empty()) {
    return Status::InvalidArgument("fp32 plan has no steps");
  }

  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& st = steps[i];
    const std::string where = At("fp32", i, OpName(st.op));

    if (st.dst < 0 || st.dst >= num_buffers) {
      return Invalid(where, "writes buffer " + std::to_string(st.dst) +
                                ", plan has " + std::to_string(num_buffers));
    }
    if (st.cols < 1 || st.cols > kMaxDim) {
      return Invalid(where, "step width " + std::to_string(st.cols) +
                                " outside [1, " + std::to_string(kMaxDim) + "]");
    }
    // Cross-table references are exact: present iff the op consumes them.
    if (st.op == Op::kMatMul) {
      if (st.linear < 0 ||
          st.linear >= static_cast<int>(plan.linears().size())) {
        return Invalid(where, "references linear " + std::to_string(st.linear) +
                                  ", table has " +
                                  std::to_string(plan.linears().size()));
      }
      (*used_linear)[static_cast<size_t>(st.linear)] = true;
    } else if (st.linear != -1) {
      return Invalid(where, "non-MatMul step carries linear index " +
                                std::to_string(st.linear));
    }
    if (st.op == Op::kSpmm) {
      if (st.adj < 0 || st.adj >= static_cast<int>(plan.adj_quants().size())) {
        return Invalid(where, "references adjacency quantizer " +
                                  std::to_string(st.adj) + ", table has " +
                                  std::to_string(plan.adj_quants().size()));
      }
      (*used_adj)[static_cast<size_t>(st.adj)] = true;
    } else if (st.adj != -1) {
      return Invalid(where, "non-SpMM step carries adjacency index " +
                                std::to_string(st.adj));
    }

    // Resolve the primary source's width; every read must be of the input
    // matrix or of a buffer some earlier step wrote.
    auto source_cols = [&](int src, int64_t* cols) -> Status {
      if (src == ExecutionPlan::kInput) {
        *cols = plan.in_features();
        return Status::OK();
      }
      if (src < 0 || src >= num_buffers) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  ", plan has " + std::to_string(num_buffers));
      }
      if (!buf[static_cast<size_t>(src)].written) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  " before any step writes it");
      }
      *cols = buf[static_cast<size_t>(src)].cols;
      return Status::OK();
    };

    int64_t src_cols = 0;
    MIXQ_RETURN_NOT_OK(source_cols(st.src, &src_cols));
    if ((st.op == Op::kMatMul || st.op == Op::kSpmm) && st.dst == st.src) {
      return InPlaceRowMixing(where, st.dst);
    }

    switch (st.op) {
      case Op::kQuantize: {
        if (st.quant.identity) {
          return Invalid(where, "identity component on a quantize step "
                                "(lowering never emits a no-op quantize)");
        }
        const std::string perr = ParamsError(st.quant.params);
        if (!perr.empty()) return Invalid(where, perr);
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) + " columns");
        }
        break;
      }
      case Op::kMatMul: {
        const LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
        if (src_cols != lin.in) {
          return Invalid(where, "source holds " + std::to_string(src_cols) +
                                    " columns, linear " +
                                    std::to_string(st.linear) + " consumes " +
                                    std::to_string(lin.in));
        }
        if (st.cols != lin.out) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but linear " + std::to_string(st.linear) +
                                    " produces " + std::to_string(lin.out));
        }
        break;
      }
      case Op::kSpmm: {
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) +
                                    " columns (SpMM preserves width)");
        }
        break;
      }
      case Op::kAdd: {
        // The pruned executor reads add operands straight from scratch (no
        // gather), so an input-matrix operand is rejected outright.
        if (st.src == ExecutionPlan::kInput ||
            st.src2 == ExecutionPlan::kInput) {
          return Invalid(where, "add operands must be scratch buffers, not "
                                "the input matrix");
        }
        int64_t src2_cols = 0;
        MIXQ_RETURN_NOT_OK(source_cols(st.src2, &src2_cols));
        if (src_cols != st.cols || src2_cols != st.cols) {
          return Invalid(where, "operand widths " + std::to_string(src_cols) +
                                    " and " + std::to_string(src2_cols) +
                                    " must both equal the declared " +
                                    std::to_string(st.cols));
        }
        break;
      }
      case Op::kRelu: {
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) + " columns");
        }
        break;
      }
    }

    buf[static_cast<size_t>(st.dst)] = {true, st.cols};
  }

  const int fin = plan.final_buffer();
  if (fin < 0 || fin >= num_buffers) {
    return Status::InvalidArgument("fp32 final buffer " + std::to_string(fin) +
                                   " outside the plan's " +
                                   std::to_string(num_buffers) + " buffers");
  }
  if (!buf[static_cast<size_t>(fin)].written) {
    return Status::InvalidArgument("fp32 final buffer " + std::to_string(fin) +
                                   " is never written");
  }
  if (buf[static_cast<size_t>(fin)].cols != plan.out_dim()) {
    return Status::InvalidArgument(
        "fp32 final buffer holds " +
        std::to_string(buf[static_cast<size_t>(fin)].cols) +
        " columns, plan promises " + std::to_string(plan.out_dim()) + " logits");
  }
  return Status::OK();
}

// ---- int8 step-list walk ---------------------------------------------------

/// Integer buffer state additionally carries the quantization grid of the
/// codes: consumers fold the producer's scale into their requant constant,
/// so a grid mismatch along the chain means the arithmetic is wrong even
/// though every index is in bounds.
struct IntBufState {
  bool written = false;
  int64_t cols = 0;
  QuantParams params;
};

Status WalkIntSteps(const ExecutionPlan& plan, std::vector<bool>* used_linear,
                    std::vector<bool>* used_adj) {
  const int num_buffers = plan.num_buffers();
  std::vector<IntBufState> buf(static_cast<size_t>(num_buffers));
  const std::vector<IntStep>& steps = plan.int_steps();
  if (steps.empty()) {
    return Status::InvalidArgument("int8 plan has no steps");
  }

  for (size_t i = 0; i < steps.size(); ++i) {
    const IntStep& st = steps[i];
    const std::string where = At("int8", i, OpName(st.op));

    if (st.dst < 0 || st.dst >= num_buffers) {
      return Invalid(where, "writes buffer " + std::to_string(st.dst) +
                                ", plan has " + std::to_string(num_buffers));
    }
    if (st.cols < 1 || st.cols > kMaxDim) {
      return Invalid(where, "step width " + std::to_string(st.cols) +
                                " outside [1, " + std::to_string(kMaxDim) + "]");
    }
    if (st.op == IntOp::kGemmRequant) {
      if (st.linear < 0 ||
          st.linear >= static_cast<int>(plan.linears().size())) {
        return Invalid(where, "references linear " + std::to_string(st.linear) +
                                  ", table has " +
                                  std::to_string(plan.linears().size()));
      }
      (*used_linear)[static_cast<size_t>(st.linear)] = true;
    } else if (st.linear != -1) {
      return Invalid(where, "non-GEMM step carries linear index " +
                                std::to_string(st.linear));
    }
    if (st.op == IntOp::kSpmmRequant) {
      if (st.adj < 0 || st.adj >= static_cast<int>(plan.adj_quants().size())) {
        return Invalid(where, "references adjacency quantizer " +
                                  std::to_string(st.adj) + ", table has " +
                                  std::to_string(plan.adj_quants().size()));
      }
      (*used_adj)[static_cast<size_t>(st.adj)] = true;
    } else if (st.adj != -1) {
      return Invalid(where, "non-SpMM step carries adjacency index " +
                                std::to_string(st.adj));
    }

    // Unlike the float executor, the integer executor indexes its code
    // buffers directly — only kQuantizeInput may (and must) read the input
    // matrix; every other source must be a written scratch buffer.
    auto source_state = [&](int src, const IntBufState** state) -> Status {
      if (src < 0 || src >= num_buffers) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  ", plan has " + std::to_string(num_buffers) +
                                  " (the integer executor cannot read the "
                                  "input matrix here)");
      }
      if (!buf[static_cast<size_t>(src)].written) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  " before any step writes it");
      }
      *state = &buf[static_cast<size_t>(src)];
      return Status::OK();
    };
    auto check_chain = [&](const IntBufState& src_state,
                           const QuantParams& declared,
                           const char* operand) -> Status {
      if (!SameParams(src_state.params, declared)) {
        return Invalid(where, std::string(operand) + " codes were produced on "
                                  "grid " + ParamsLabel(src_state.params) +
                                  " but the step requantizes from " +
                                  ParamsLabel(declared));
      }
      return Status::OK();
    };

    if ((st.op == IntOp::kGemmRequant || st.op == IntOp::kSpmmRequant) &&
        st.dst == st.src) {
      return InPlaceRowMixing(where, st.dst);
    }

    switch (st.op) {
      case IntOp::kQuantizeInput: {
        if (st.src != ExecutionPlan::kInput) {
          return Invalid(where, "must read the input matrix, reads buffer " +
                                    std::to_string(st.src));
        }
        if (st.cols != plan.in_features()) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but the input matrix has " +
                                    std::to_string(plan.in_features()) +
                                    " features");
        }
        const std::string perr = CodeParamsError(st.out_params);
        if (!perr.empty()) return Invalid(where, "output " + perr);
        buf[static_cast<size_t>(st.dst)] = {true, st.cols, st.out_params};
        break;
      }
      case IntOp::kGemmRequant: {
        const IntBufState* src = nullptr;
        MIXQ_RETURN_NOT_OK(source_state(st.src, &src));
        const LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
        if (lin.weight_packed.empty()) {
          return Invalid(where, "linear " + std::to_string(st.linear) +
                                    " has no packed int8 weights");
        }
        if (src->cols != lin.in) {
          return Invalid(where, "source holds " + std::to_string(src->cols) +
                                    " columns, linear " +
                                    std::to_string(st.linear) + " consumes " +
                                    std::to_string(lin.in));
        }
        if (st.cols != lin.out) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but linear " + std::to_string(st.linear) +
                                    " produces " + std::to_string(lin.out));
        }
        MIXQ_RETURN_NOT_OK(check_chain(*src, st.src_params, "source"));
        std::string perr = CodeParamsError(st.out_params);
        if (!perr.empty()) return Invalid(where, "output " + perr);
        // The precomputed bias/out-scale vector must agree with the linear's
        // bias: the executor applies bias_over INSTEAD of lin.bias, so a
        // missing or stale vector silently serves biasless (or wrong) logits.
        if (st.bias_over.empty() != lin.bias.empty()) {
          return Invalid(where, std::string("linear ") + std::to_string(st.linear) +
                                    (lin.bias.empty()
                                         ? " has no bias but the step carries a "
                                           "bias/scale vector"
                                         : " has a bias but the step carries no "
                                           "bias/scale vector"));
        }
        if (!st.bias_over.empty()) {
          if (st.bias_over.size() != static_cast<size_t>(lin.out)) {
            return Invalid(where, "bias/scale vector holds " +
                                      std::to_string(st.bias_over.size()) +
                                      " entries, output width is " +
                                      std::to_string(lin.out));
          }
          const double inv_out = 1.0 / st.out_params.scale;
          for (size_t j = 0; j < st.bias_over.size(); ++j) {
            const double expect = static_cast<double>(lin.bias[j]) * inv_out;
            if (std::memcmp(&st.bias_over[j], &expect, sizeof(double)) != 0) {
              return Invalid(where, "bias/scale vector entry " +
                                        std::to_string(j) +
                                        " disagrees with bias[j] / out_scale");
            }
          }
        }
        // Derived: the folded scale ratio the fused epilogue multiplies by.
        if (!SameBits(st.total, static_cast<double>(st.src_params.scale) *
                                    lin.weight_params.scale /
                                    st.out_params.scale)) {
          return Invalid(where, "derived scale ratio disagrees with "
                                "src_scale * weight_scale / out_scale");
        }
        const std::string eerr = EmitterError(st.emitter, st.out_params);
        if (!eerr.empty()) return Invalid(where, eerr);
        buf[static_cast<size_t>(st.dst)] = {true, st.cols, st.out_params};
        break;
      }
      case IntOp::kSpmmRequant: {
        const IntBufState* src = nullptr;
        MIXQ_RETURN_NOT_OK(source_state(st.src, &src));
        const LoweredComponent& aq =
            plan.adj_quants()[static_cast<size_t>(st.adj)];
        if (aq.identity) {
          return Invalid(where, "adjacency quantizer " + std::to_string(st.adj) +
                                    " is identity; the integer SpMM needs "
                                    "int8 adjacency codes");
        }
        const std::string aerr = CodeParamsError(aq.params);
        if (!aerr.empty()) {
          return Invalid(where, "adjacency " + aerr);
        }
        if (st.cols != src->cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src->cols) +
                                    " columns (SpMM preserves width)");
        }
        MIXQ_RETURN_NOT_OK(check_chain(*src, st.src_params, "source"));
        const std::string perr = CodeParamsError(st.out_params);
        if (!perr.empty()) return Invalid(where, "output " + perr);
        if (!SameBits(st.total, static_cast<double>(aq.params.scale) *
                                    st.src_params.scale / st.out_params.scale)) {
          return Invalid(where, "derived scale ratio disagrees with "
                                "adj_scale * src_scale / out_scale");
        }
        const std::string eerr = EmitterError(st.emitter, st.out_params);
        if (!eerr.empty()) return Invalid(where, eerr);
        buf[static_cast<size_t>(st.dst)] = {true, st.cols, st.out_params};
        break;
      }
      case IntOp::kAddRequant: {
        const IntBufState* src = nullptr;
        const IntBufState* src2 = nullptr;
        MIXQ_RETURN_NOT_OK(source_state(st.src, &src));
        MIXQ_RETURN_NOT_OK(source_state(st.src2, &src2));
        if (src->cols != st.cols || src2->cols != st.cols) {
          return Invalid(where, "operand widths " + std::to_string(src->cols) +
                                    " and " + std::to_string(src2->cols) +
                                    " must both equal the declared " +
                                    std::to_string(st.cols));
        }
        MIXQ_RETURN_NOT_OK(check_chain(*src, st.src_params, "source"));
        MIXQ_RETURN_NOT_OK(check_chain(*src2, st.src2_params, "second source"));
        const std::string perr = CodeParamsError(st.out_params);
        if (!perr.empty()) return Invalid(where, "output " + perr);
        if (!SameBits(st.s1, static_cast<double>(st.src_params.scale) /
                                 st.out_params.scale) ||
            !SameBits(st.s2, static_cast<double>(st.src2_params.scale) /
                                 st.out_params.scale)) {
          return Invalid(where, "derived operand ratios disagree with "
                                "src_scale / out_scale");
        }
        const std::string eerr = EmitterError(st.emitter, st.out_params);
        if (!eerr.empty()) return Invalid(where, eerr);
        buf[static_cast<size_t>(st.dst)] = {true, st.cols, st.out_params};
        break;
      }
      case IntOp::kRelu: {
        const IntBufState* src = nullptr;
        MIXQ_RETURN_NOT_OK(source_state(st.src, &src));
        if (st.cols != src->cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src->cols) + " columns");
        }
        // ReLU on raw codes is exact only on a symmetric grid; the chain
        // guarantees it, this keeps the guarantee explicit.
        if (!src->params.symmetric || src->params.zero_point != 0) {
          return Invalid(where, "ReLU on codes needs a symmetric source grid");
        }
        buf[static_cast<size_t>(st.dst)] = {true, st.cols, src->params};
        break;
      }
    }
  }

  const int fin = plan.int_final_buffer();
  if (fin < 0 || fin >= num_buffers) {
    return Status::InvalidArgument("int8 final buffer " + std::to_string(fin) +
                                   " outside the plan's " +
                                   std::to_string(num_buffers) + " buffers");
  }
  const IntBufState& last = buf[static_cast<size_t>(fin)];
  if (!last.written) {
    return Status::InvalidArgument("int8 final buffer " + std::to_string(fin) +
                                   " is never written");
  }
  if (last.cols != plan.out_dim()) {
    return Status::InvalidArgument(
        "int8 final buffer holds " + std::to_string(last.cols) +
        " columns, plan promises " + std::to_string(plan.out_dim()) + " logits");
  }
  if (!SameParams(last.params, plan.int_final_params())) {
    return Status::InvalidArgument(
        "int8 final codes live on grid " + ParamsLabel(last.params) +
        " but the plan dequantizes with " + ParamsLabel(plan.int_final_params()));
  }
  return Status::OK();
}

}  // namespace

Status VerifyPlan(const ExecutionPlan& plan, const PlanShapes& shapes) {
  if (plan.in_features() < 1 || plan.in_features() > kMaxDim ||
      plan.out_dim() < 1 || plan.out_dim() > kMaxDim) {
    return Status::InvalidArgument(
        "plan dimensions [in=" + std::to_string(plan.in_features()) + ", out=" +
        std::to_string(plan.out_dim()) + "] are not a valid model shape");
  }
  if (plan.in_features() != shapes.in_features ||
      plan.out_dim() != shapes.out_dim) {
    return Status::InvalidArgument(
        "plan maps " + std::to_string(plan.in_features()) + " -> " +
        std::to_string(plan.out_dim()) + " but the model metadata promises " +
        std::to_string(shapes.in_features) + " -> " +
        std::to_string(shapes.out_dim));
  }
  if (plan.num_buffers() < 1 || plan.num_buffers() > kMaxDim) {
    return Status::InvalidArgument("plan buffer count " +
                                   std::to_string(plan.num_buffers()) +
                                   " is implausible");
  }

  MIXQ_RETURN_NOT_OK(VerifyLinears(plan));
  MIXQ_RETURN_NOT_OK(VerifyAdjQuants(plan));

  std::vector<bool> used_linear(plan.linears().size(), false);
  std::vector<bool> used_adj(plan.adj_quants().size(), false);
  MIXQ_RETURN_NOT_OK(WalkFloatSteps(plan, &used_linear, &used_adj));
  if (plan.SupportsInt8()) {
    MIXQ_RETURN_NOT_OK(WalkIntSteps(plan, &used_linear, &used_adj));
  }

  // Dangling table entries: every lowered weight and adjacency quantizer
  // must be reachable from some step — an orphan means the program and its
  // tables disagree about what model this is.
  for (size_t i = 0; i < used_linear.size(); ++i) {
    if (!used_linear[i]) {
      return Status::InvalidArgument("linear " + std::to_string(i) +
                                     " is referenced by no step (dangling)");
    }
  }
  for (size_t i = 0; i < used_adj.size(); ++i) {
    if (!used_adj[i]) {
      return Status::InvalidArgument("adjacency quantizer " + std::to_string(i) +
                                     " is referenced by no step (dangling)");
    }
  }
  return Status::OK();
}

// ---- FrontierProgram verification ------------------------------------------

namespace {

/// The verifier's own row-mixing classification — intentionally independent
/// of frontier_plan.cc's so the checker does not inherit a bug from the
/// code it checks.
enum class MixKind { kRowParallel, kSpmm, kAdd };

struct MixView {
  MixKind kind = MixKind::kRowParallel;
  int src = 0, src2 = 0, dst = 0;
  bool reads_input_ok = true;  ///< may the executor gather from the features?
};

MixView ViewOf(const Step& st) {
  MixView v;
  v.src = st.src;
  v.src2 = st.src2;
  v.dst = st.dst;
  switch (st.op) {
    case Op::kSpmm: v.kind = MixKind::kSpmm; break;
    case Op::kAdd: v.kind = MixKind::kAdd; break;
    default: v.kind = MixKind::kRowParallel; break;
  }
  return v;
}

MixView ViewOf(const IntStep& st) {
  MixView v;
  v.src = st.src;
  v.src2 = st.src2;
  v.dst = st.dst;
  switch (st.op) {
    case IntOp::kSpmmRequant: v.kind = MixKind::kSpmm; break;
    case IntOp::kAddRequant: v.kind = MixKind::kAdd; break;
    default: v.kind = MixKind::kRowParallel; break;
  }
  v.reads_input_ok = st.op == IntOp::kQuantizeInput;
  return v;
}

bool SortedUniqueInRange(const std::vector<int64_t>& rows, int64_t bound) {
  int64_t prev = -1;
  for (int64_t r : rows) {
    if (r <= prev || r >= bound) return false;
    prev = r;
  }
  return true;
}

Status VerifyInduced(const std::string& where, const CsrMatrix& induced,
                     size_t expect_rows, int64_t expect_cols) {
  if (induced.rows() != static_cast<int64_t>(expect_rows)) {
    return Invalid(where, "induced slice has " + std::to_string(induced.rows()) +
                              " rows, frontier has " +
                              std::to_string(expect_rows));
  }
  if (induced.cols() != expect_cols) {
    return Invalid(where, "induced slice addresses " +
                              std::to_string(induced.cols()) +
                              " columns, source frontier holds " +
                              std::to_string(expect_cols));
  }
  const std::vector<int64_t>& rp = induced.row_ptr();
  const std::vector<int64_t>& ci = induced.col_idx();
  if (rp.size() != expect_rows + 1 || rp.front() != 0 ||
      rp.back() != static_cast<int64_t>(ci.size()) ||
      ci.size() != induced.values().size()) {
    return Invalid(where, "induced slice CSR arrays are inconsistent");
  }
  for (size_t r = 1; r < rp.size(); ++r) {
    if (rp[r] < rp[r - 1]) {
      return Invalid(where, "induced slice row_ptr is not monotone");
    }
  }
  for (int64_t c : ci) {
    if (c < 0 || c >= expect_cols) {
      return Invalid(where, "induced slice column " + std::to_string(c) +
                                " outside the source frontier [0, " +
                                std::to_string(expect_cols) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyFrontierProgram(const ExecutionPlan& plan,
                             const FrontierProgram& program) {
  if (program.int8() && !plan.SupportsInt8()) {
    return Status::InvalidArgument(
        "program selects the int8 step list but the plan has no int8 lowering");
  }
  std::vector<MixView> views;
  if (program.int8()) {
    views.reserve(plan.int_steps().size());
    for (const IntStep& st : plan.int_steps()) views.push_back(ViewOf(st));
  } else {
    views.reserve(plan.steps().size());
    for (const Step& st : plan.steps()) views.push_back(ViewOf(st));
  }
  const char* list = program.int8() ? "int8" : "fp32";
  const std::vector<FrontierProgram::StepExec>& execs = program.step_execs();
  if (execs.size() != views.size()) {
    return Status::InvalidArgument(
        "program schedules " + std::to_string(execs.size()) + " steps, the " +
        list + " step list has " + std::to_string(views.size()));
  }
  const int64_t n = program.graph_nodes();
  if (n < 1) {
    return Status::InvalidArgument("program graph has no nodes");
  }
  if (program.targets().empty() || !SortedUniqueInRange(program.targets(), n)) {
    return Status::InvalidArgument(
        "program targets must be non-empty, sorted, unique, and within the "
        "graph's " + std::to_string(n) + " nodes");
  }

  std::vector<std::vector<int64_t>> frontier(
      static_cast<size_t>(plan.num_buffers()));
  for (size_t i = 0; i < execs.size(); ++i) {
    const MixView& v = views[i];
    const FrontierProgram::StepExec& se = execs[i];
    const std::string where = std::string(list) + " step " + std::to_string(i) +
                              " schedule: ";
    if (!SortedUniqueInRange(se.rows, n)) {
      return Invalid(where, "row list is not sorted/unique within the graph's " +
                                std::to_string(n) + " nodes");
    }
    if (se.rows.empty()) continue;  // dead step: executors skip, state keeps

    switch (v.kind) {
      case MixKind::kRowParallel: {
        if (se.src_is_input) {
          if (v.src != ExecutionPlan::kInput || !v.reads_input_ok) {
            return Invalid(where, "gathers from the input matrix but the plan "
                                  "step does not read it");
          }
          // Input gathers carry global node ids and must name exactly the
          // rows the step computes.
          if (se.gather != se.rows) {
            return Invalid(where, "input gather list must equal the step's "
                                  "row list");
          }
          break;
        }
        if (v.src == ExecutionPlan::kInput) {
          return Invalid(where, "plan step reads the input matrix but the "
                                "schedule stages it as a scratch buffer");
        }
        const std::vector<int64_t>& src_rows =
            frontier[static_cast<size_t>(v.src)];
        if (se.gather.empty()) {
          if (src_rows != se.rows) {
            return Invalid(where, "no gather, but the source frontier does "
                                  "not equal the step's row list");
          }
          break;
        }
        if (se.gather.size() != se.rows.size()) {
          return Invalid(where, "gather list length " +
                                    std::to_string(se.gather.size()) +
                                    " != row count " +
                                    std::to_string(se.rows.size()));
        }
        for (size_t j = 0; j < se.gather.size(); ++j) {
          const int64_t g = se.gather[j];
          if (g < 0 || g >= static_cast<int64_t>(src_rows.size())) {
            return Invalid(where, "gather position " + std::to_string(g) +
                                      " outside the source frontier of " +
                                      std::to_string(src_rows.size()) + " rows");
          }
          if (src_rows[static_cast<size_t>(g)] != se.rows[j]) {
            return Invalid(where, "gather position " + std::to_string(j) +
                                      " stages node " +
                                      std::to_string(src_rows[static_cast<size_t>(g)]) +
                                      ", row list wants " +
                                      std::to_string(se.rows[j]));
          }
        }
        break;
      }
      case MixKind::kSpmm: {
        const int64_t expect_cols =
            se.src_is_input
                ? n
                : static_cast<int64_t>(
                      frontier[static_cast<size_t>(v.src)].size());
        if (se.src_is_input && v.src != ExecutionPlan::kInput) {
          return Invalid(where, "slice keeps global columns but the plan step "
                                "reads a scratch buffer");
        }
        if (!se.src_is_input && v.src == ExecutionPlan::kInput) {
          return Invalid(where, "plan step reads the input matrix but the "
                                "slice's columns were remapped");
        }
        MIXQ_RETURN_NOT_OK(
            VerifyInduced(where, se.induced, se.rows.size(), expect_cols));
        break;
      }
      case MixKind::kAdd: {
        if (v.src == ExecutionPlan::kInput || v.src2 == ExecutionPlan::kInput) {
          return Invalid(where, "add operands must be scratch buffers");
        }
        if (frontier[static_cast<size_t>(v.src)] != se.rows ||
            frontier[static_cast<size_t>(v.src2)] != se.rows) {
          return Invalid(where, "add operand frontiers are not aligned with "
                                "the step's row list");
        }
        break;
      }
    }
    frontier[static_cast<size_t>(v.dst)] = se.rows;
  }

  const int fin = program.int8() ? plan.int_final_buffer() : plan.final_buffer();
  if (frontier[static_cast<size_t>(fin)] != program.targets()) {
    return Status::InvalidArgument(
        "final buffer's frontier does not equal the program's targets");
  }
  return Status::OK();
}

bool VerifyPlansEnabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool enabled = [] {
    const char* v = std::getenv("MIXQ_VERIFY");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
#endif
}

}  // namespace engine
}  // namespace mixq
