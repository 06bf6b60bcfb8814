// Copyright 2026 MixQ-GNN Authors
// Tests for the static plan verifier (engine/plan_verifier.h).
//
// The crafted-bad-bundle suite is the core: each test hand-writes a bundle
// whose bytes are structurally valid at the codec level — correct framing,
// correct CRCs, every index within its table — but whose *program* violates
// exactly one invariant of DESIGN.md §6. LoadBundle must reject every one
// with a typed, step-indexed kInvalidArgument, because these are precisely
// the payloads that would drive the unchecked executors out of bounds (or
// silently mis-serve) if they ever reached them. A fuzz regression then
// mutates real bundle payloads and REPAIRS the section checksum, proving
// the CRC is not the last line of defense.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/experiment.h"
#include "engine/execution_plan.h"
#include "engine/frontier_plan.h"
#include "engine/model_bundle.h"
#include "engine/plan_verifier.h"
#include "tensor/gemm.h"

namespace mixq {
namespace {

using engine::BundleCheck;
using engine::BundleKind;
using engine::BundleManifest;
using engine::BundleSection;
using engine::CompiledModelPtr;
using engine::CompileModel;
using engine::ExecutionPlan;
using engine::FrontierProgram;
using engine::InspectBundle;
using engine::LoadBundle;
using engine::SaveBundle;
using engine::VerifyBundleFile;
using engine::VerifyFrontierProgram;

// ---- hand-crafted bundle writer --------------------------------------------
// Mirrors the wire format of engine/model_bundle.cc (DESIGN.md §5) so tests
// can express programs the real lowering would never emit.

QuantParams Sym8(float scale) {
  QuantParams p;
  p.scale = scale;
  p.zero_point = 0;
  p.bits = 8;
  p.symmetric = true;
  return p;
}

struct SpecComponent {
  bool identity = true;
  QuantParams params;
};

struct SpecLinear {
  int64_t in = 0, out = 0, out_padded = 0;
  QuantParams weight_params;
  std::vector<float> weight_fq;
  std::vector<float> bias;
  std::vector<int8_t> weight_q8;
  std::vector<int16_t> weight_packed;
};

struct SpecStep {
  uint8_t op = 0;  ///< ExecutionPlan::Op numeric value
  int32_t src = 0, src2 = 0, dst = 0;
  int32_t linear = -1, adj = -1;
  int64_t cols = 0;
  SpecComponent quant;
};

struct SpecIntStep {
  uint8_t op = 0;  ///< ExecutionPlan::IntOp numeric value
  int32_t src = 0, src2 = 0, dst = 0;
  int32_t linear = -1, adj = -1;
  int64_t cols = 0;
  QuantParams src_params, src2_params, out_params;
  std::vector<double> bias_over;
};

struct PlanSpec {
  int64_t in_features = 4, out_dim = 3;
  int32_t num_buffers = 2, final_buffer = 0;
  std::vector<SpecLinear> linears;
  std::vector<SpecComponent> adj_quants;
  std::vector<SpecStep> steps;
  bool has_int8 = false;
  int32_t int_final_buffer = 0;
  QuantParams int_final_params;
  std::vector<SpecIntStep> int_steps;
};

void PutParams(ByteWriter* w, const QuantParams& p) {
  w->PutF32(p.scale);
  w->PutI32(p.zero_point);
  w->PutI32(p.bits);
  w->PutU8(p.symmetric ? 1 : 0);
}

void PutComponent(ByteWriter* w, const SpecComponent& c) {
  w->PutU8(c.identity ? 1 : 0);
  PutParams(w, c.params);
}

void EncodePlan(const PlanSpec& s, ByteWriter* w) {
  w->PutI64(s.in_features);
  w->PutI64(s.out_dim);
  w->PutI32(s.num_buffers);
  w->PutI32(s.final_buffer);
  w->PutI64(static_cast<int64_t>(s.linears.size()));
  for (const SpecLinear& lin : s.linears) {
    w->PutI64(lin.in);
    w->PutI64(lin.out);
    w->PutI64(lin.out_padded);
    PutParams(w, lin.weight_params);
    w->PutPodVector(lin.weight_fq);
    w->PutPodVector(lin.bias);
    w->PutPodVector(lin.weight_q8);
    w->PutPodVector(lin.weight_packed);
  }
  w->PutI64(static_cast<int64_t>(s.adj_quants.size()));
  for (const SpecComponent& c : s.adj_quants) PutComponent(w, c);
  w->PutI64(static_cast<int64_t>(s.steps.size()));
  for (const SpecStep& st : s.steps) {
    w->PutU8(st.op);
    w->PutI32(st.src);
    w->PutI32(st.src2);
    w->PutI32(st.dst);
    w->PutI32(st.linear);
    w->PutI32(st.adj);
    w->PutI64(st.cols);
    PutComponent(w, st.quant);
  }
}

void EncodeInt8(const PlanSpec& s, ByteWriter* w) {
  w->PutI32(s.int_final_buffer);
  PutParams(w, s.int_final_params);
  w->PutI64(static_cast<int64_t>(s.int_steps.size()));
  for (const SpecIntStep& st : s.int_steps) {
    w->PutU8(st.op);
    w->PutI32(st.src);
    w->PutI32(st.src2);
    w->PutI32(st.dst);
    w->PutI32(st.linear);
    w->PutI32(st.adj);
    w->PutI64(st.cols);
    PutParams(w, st.src_params);
    PutParams(w, st.src2_params);
    PutParams(w, st.out_params);
    w->PutPodVector(st.bias_over);
  }
}

void AppendSection(ByteWriter* file, const char* tag, const ByteWriter& payload) {
  file->PutBytes(tag, 4);
  file->PutU64(payload.size());
  file->PutU32(Crc32(payload.buffer().data(), payload.size()));
  file->PutBytes(payload.buffer().data(), payload.size());
}

std::vector<uint8_t> EncodeBundle(const PlanSpec& s) {
  ByteWriter file;
  file.PutBytes("MIXQBNDL", 8);
  file.PutU16(engine::kBundleFormatMajor);
  file.PutU16(engine::kBundleFormatMinor);
  file.PutU32(static_cast<uint32_t>(BundleKind::kModel));

  ByteWriter info;
  info.PutU8(0);  // gcn
  info.PutString("crafted");
  info.PutF64(8.0);             // avg_bits
  info.PutI64(0);               // param_count
  info.PutI64(s.in_features);
  info.PutI64(s.out_dim);
  info.PutU8(s.has_int8 ? 1 : 0);
  info.PutU32(0);  // bit assignment entries
  AppendSection(&file, "INFO", info);

  ByteWriter plan;
  EncodePlan(s, &plan);
  AppendSection(&file, "PLAN", plan);

  if (s.has_int8) {
    ByteWriter int8;
    EncodeInt8(s, &int8);
    AppendSection(&file, "IPLN", int8);
  }
  return file.buffer();
}

/// Unique path under the test temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + "mixq_verifier_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Status LoadSpec(const PlanSpec& s, const std::string& name) {
  TempFile file(name);
  EXPECT_TRUE(WriteFileAtomic(file.path(), EncodeBundle(s)).ok());
  return LoadBundle(file.path()).status();
}

void ExpectRejected(const PlanSpec& s, const std::string& name,
                    const std::string& message_substr) {
  Status status = LoadSpec(s, name);
  ASSERT_FALSE(status.ok()) << name << ": crafted-bad bundle loaded";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(message_substr), std::string::npos)
      << name << ": expected '" << message_substr << "' in: "
      << status.ToString();
}

/// A minimal well-formed fp32-only program, shaped like one GCN layer:
/// quantize(input)->b0, matmul(b0)->b1, spmm(b1)->b0. Tests mutate exactly
/// one aspect of it.
PlanSpec BaselineFp32() {
  PlanSpec s;
  s.in_features = 4;
  s.out_dim = 3;
  s.num_buffers = 2;
  s.final_buffer = 0;

  SpecLinear lin;
  lin.in = 4;
  lin.out = 3;
  lin.out_padded = 3;
  lin.weight_params = Sym8(0.1f);
  lin.weight_fq.assign(static_cast<size_t>(lin.in * lin.out_padded), 0.25f);
  s.linears.push_back(lin);

  SpecComponent adj;
  adj.identity = true;
  s.adj_quants.push_back(adj);

  SpecStep quantize;
  quantize.op = 0;  // kQuantize
  quantize.src = ExecutionPlan::kInput;
  quantize.dst = 0;
  quantize.cols = 4;
  quantize.quant = {false, Sym8(0.05f)};
  s.steps.push_back(quantize);

  SpecStep matmul;
  matmul.op = 1;  // kMatMul
  matmul.src = 0;
  matmul.dst = 1;
  matmul.linear = 0;
  matmul.cols = 3;
  s.steps.push_back(matmul);

  SpecStep spmm;
  spmm.op = 2;  // kSpmm
  spmm.src = 1;
  spmm.dst = 0;
  spmm.adj = 0;
  spmm.cols = 3;
  s.steps.push_back(spmm);
  return s;
}

/// BaselineFp32 plus a consistent integer program over the same tables:
/// quantize_input->b0, gemm_requant(b0)->b1, spmm_requant(b1)->b0.
PlanSpec BaselineInt8() {
  PlanSpec s = BaselineFp32();
  s.has_int8 = true;

  SpecLinear& lin = s.linears[0];
  lin.weight_q8.assign(static_cast<size_t>(lin.in * lin.out_padded), 3);
  lin.weight_packed.resize(
      static_cast<size_t>(PackedPairSize(lin.in, lin.out_padded)));
  PackInt8PairB(lin.weight_q8.data(), lin.in, lin.out_padded,
                lin.weight_packed.data());

  s.adj_quants[0] = {false, Sym8(0.02f)};

  const QuantParams p_in = Sym8(0.05f);
  const QuantParams p_gemm = Sym8(0.08f);
  const QuantParams p_spmm = Sym8(0.09f);

  SpecIntStep quantize;
  quantize.op = 0;  // kQuantizeInput
  quantize.src = ExecutionPlan::kInput;
  quantize.dst = 0;
  quantize.cols = 4;
  quantize.out_params = p_in;
  s.int_steps.push_back(quantize);

  SpecIntStep gemm;
  gemm.op = 1;  // kGemmRequant
  gemm.src = 0;
  gemm.dst = 1;
  gemm.linear = 0;
  gemm.cols = 3;
  gemm.src_params = p_in;
  gemm.out_params = p_gemm;
  s.int_steps.push_back(gemm);

  SpecIntStep spmm;
  spmm.op = 2;  // kSpmmRequant
  spmm.src = 1;
  spmm.dst = 0;
  spmm.adj = 0;
  spmm.cols = 3;
  spmm.src_params = p_gemm;
  spmm.out_params = p_spmm;
  s.int_steps.push_back(spmm);

  s.int_final_buffer = 0;
  s.int_final_params = p_spmm;
  return s;
}

// ---- crafted bundles: the baselines themselves must load -------------------
// Without this, every rejection below could be the framing being wrong
// rather than the verifier working.

TEST(PlanVerifierTest, CraftedBaselineFp32Loads) {
  Status status = LoadSpec(BaselineFp32(), "base_fp32.mqb");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PlanVerifierTest, CraftedBaselineInt8Loads) {
  Status status = LoadSpec(BaselineInt8(), "base_int8.mqb");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ---- one test per invariant class ------------------------------------------

// 1. Dataflow: a step reads a scratch buffer no earlier step wrote. The
// executor would consume uninitialized memory.
TEST(PlanVerifierTest, RejectsReadOfNeverWrittenBuffer) {
  PlanSpec s = BaselineFp32();
  s.steps[1].src = 1;  // matmul reads b1 before anything writes it
  ExpectRejected(s, "unwritten.mqb", "before any step writes it");
}

// 2. GEMM shape chain: the step's declared width disagrees with the
// linear's output width, desynchronizing every later buffer size.
TEST(PlanVerifierTest, RejectsGemmWidthMismatch) {
  PlanSpec s = BaselineFp32();
  s.steps[1].cols = 2;
  ExpectRejected(s, "gemm_width.mqb", "linear 0 produces 3");
}

// 3. SpMM preserves width; a declared change would make the executor write
// rows of the wrong stride.
TEST(PlanVerifierTest, RejectsSpmmWidthChange) {
  PlanSpec s = BaselineFp32();
  s.steps[2].cols = 2;
  ExpectRejected(s, "spmm_width.mqb", "SpMM preserves width");
}

// 4. Final output contract: the buffer Predict copies out must hold exactly
// CompiledModelInfo's out_dim columns.
TEST(PlanVerifierTest, RejectsFinalShapeMismatch) {
  PlanSpec s = BaselineFp32();
  s.steps.pop_back();     // drop the spmm: b0 last holds 4 columns
  s.adj_quants.clear();   // keep the table free of danglers
  ExpectRejected(s, "final_shape.mqb", "promises 3 logits");
}

// 5. Quantize steps must carry a real quantizer — the lowering never emits
// an identity quantize, so one in a bundle is a forged program.
TEST(PlanVerifierTest, RejectsIdentityQuantizeStep) {
  PlanSpec s = BaselineFp32();
  s.steps[0].quant.identity = true;
  ExpectRejected(s, "identity_quant.mqb", "identity component");
}

// 6. Cross-table references are exact: only MatMul steps may carry a linear
// index (the codec only range-checks it on MatMul steps, so a stray index
// elsewhere is codec-clean).
TEST(PlanVerifierTest, RejectsStrayLinearIndex) {
  PlanSpec s = BaselineFp32();
  s.steps[0].linear = 0;
  ExpectRejected(s, "stray_linear.mqb", "non-MatMul step carries linear index");
}

// 7. Dangling table entries: every lowered weight/quantizer must be
// reachable from some step, else program and tables disagree about the
// model.
TEST(PlanVerifierTest, RejectsDanglingAdjacencyQuantizer) {
  PlanSpec s = BaselineFp32();
  s.adj_quants.push_back({false, Sym8(0.5f)});
  ExpectRejected(s, "dangling_adj.mqb", "dangling");
}

// 8. Packed-weight consistency: the int8 GEMM consumes only weight_packed,
// so it must BE the pair-interleaving of the audited codes. (The codec only
// checks sizes.)
TEST(PlanVerifierTest, RejectsPackedWeightMismatch) {
  PlanSpec s = BaselineInt8();
  s.linears[0].weight_packed[1] ^= 1;
  ExpectRejected(s, "packed_mismatch.mqb",
                 "packed weights do not match");
}

// 9. Quantizer scale chain: each integer step's src_params must equal the
// grid its producer wrote — the requant constant folds the producer's
// scale, so a break is silently wrong arithmetic on every logit.
TEST(PlanVerifierTest, RejectsInt8ScaleChainBreak) {
  PlanSpec s = BaselineInt8();
  s.int_steps[1].src_params = Sym8(0.25f);  // producer wrote 0.05
  ExpectRejected(s, "chain_break.mqb", "codes were produced on grid");
}

// 10. The integer executor indexes scratch code buffers directly — a
// non-QuantizeInput step sourcing kInput (-1) is an out-of-bounds read the
// codec's field-local check happens to allow. This is the verifier closing
// a real hole.
TEST(PlanVerifierTest, RejectsInt8StepReadingInputMatrix) {
  PlanSpec s = BaselineInt8();
  s.int_steps.resize(1);  // keep only quantize_input -> b0
  SpecIntStep relu;
  relu.op = 4;  // kRelu
  relu.src = ExecutionPlan::kInput;
  relu.dst = 1;
  relu.cols = 4;
  s.int_steps.push_back(relu);
  s.int_final_buffer = 1;
  ExpectRejected(s, "int8_input_src.mqb",
                 "integer executor cannot read the input");
}

// 11. Int8 codes demand a symmetric grid with zero point 0 (the Int8able
// lowering gate, re-stated as a load-time contract).
TEST(PlanVerifierTest, RejectsAsymmetricInt8Codes) {
  PlanSpec s = BaselineInt8();
  s.int_steps[0].out_params.symmetric = false;
  s.int_steps[0].out_params.zero_point = 3;
  ExpectRejected(s, "asym_codes.mqb", "symmetric quantizer with zero point 0");
}

// 12. Add operands must be scratch buffers: FrontierProgram::Build aborts
// (MIXQ_CHECK) on an add-from-input plan, so a bundle shaped that way was a
// remote crash of the serving process until the verifier rejected it first.
TEST(PlanVerifierTest, RejectsAddFromInputMatrix) {
  PlanSpec s = BaselineFp32();
  s.steps.resize(1);  // quantize -> b0 (4 cols)
  s.adj_quants.clear();
  s.linears.clear();
  SpecStep add;
  add.op = 3;  // kAdd
  add.src = ExecutionPlan::kInput;
  add.src2 = 0;
  add.dst = 1;
  add.cols = 4;
  s.steps.push_back(add);
  s.final_buffer = 1;
  s.out_dim = 4;
  ExpectRejected(s, "add_input.mqb", "add operands must be scratch buffers");
}

// 13. bias_over is what the integer executor actually applies in place of
// the bias; a stale or tampered vector serves wrong logits with no other
// symptom. The verifier recomputes it bit-for-bit.
TEST(PlanVerifierTest, RejectsTamperedBiasOverScale) {
  PlanSpec s = BaselineInt8();
  SpecLinear& lin = s.linears[0];
  lin.bias = {0.5f, -0.25f, 1.0f};
  SpecIntStep& gemm = s.int_steps[1];
  const double inv_out = 1.0 / gemm.out_params.scale;
  for (float b : lin.bias) {
    gemm.bias_over.push_back(static_cast<double>(b) * inv_out);
  }
  // Consistent version must load...
  EXPECT_TRUE(LoadSpec(s, "bias_ok.mqb").ok());
  // ...one perturbed entry must not.
  gemm.bias_over[1] += 1e-9;
  ExpectRejected(s, "bias_tampered.mqb", "disagrees with bias[j]");
}

// 14. Declared dims must match the metadata the caller sees
// (CompiledModelInfo): the bundle-level cross-check plus the verifier's
// PlanShapes contract.
TEST(PlanVerifierTest, RejectsFinalGridMismatch) {
  PlanSpec s = BaselineInt8();
  s.int_final_params = Sym8(0.5f);  // final codes live on 0.09
  ExpectRejected(s, "final_grid.mqb", "dequantizes with");
}

// 15. Row-mixing steps never run in place: a GEMM or SpMM reads rows of its
// source while writing its destination, so dst == src computes from
// overwritten rows, and growing the destination frees the source under the
// kernel (an in-place widened GEMM was a heap-use-after-free in Predict).
// Each plan below is otherwise well formed.
TEST(PlanVerifierTest, RejectsInPlaceFp32MatMul) {
  PlanSpec s = BaselineFp32();
  s.linears[0].out = 16;
  s.linears[0].out_padded = 16;
  s.linears[0].weight_fq.assign(4 * 16, 0.25f);
  s.out_dim = 16;
  s.steps[1].dst = 0;  // matmul b0 -> b0, widening 4 -> 16 columns
  s.steps[1].cols = 16;
  s.steps[2].src = 0;
  s.steps[2].dst = 1;
  s.steps[2].cols = 16;
  s.final_buffer = 1;
  ExpectRejected(s, "inplace_matmul.mqb", "writes its own source buffer 0");
}

TEST(PlanVerifierTest, RejectsInPlaceFp32Spmm) {
  PlanSpec s = BaselineFp32();
  s.steps[2].dst = 1;  // spmm b1 -> b1
  s.final_buffer = 1;
  ExpectRejected(s, "inplace_spmm.mqb", "writes its own source buffer 1");
}

TEST(PlanVerifierTest, RejectsInPlaceInt8GemmRequant) {
  PlanSpec s = BaselineInt8();
  s.int_steps[1].dst = 0;  // gemm_requant b0 -> b0
  s.int_steps[2].src = 0;
  s.int_steps[2].dst = 1;
  s.int_final_buffer = 1;
  ExpectRejected(s, "inplace_gemm_requant.mqb", "writes its own source buffer 0");
}

TEST(PlanVerifierTest, RejectsInPlaceInt8SpmmRequant) {
  PlanSpec s = BaselineInt8();
  s.int_steps[2].dst = 1;  // spmm_requant b1 -> b1
  s.int_final_buffer = 1;
  ExpectRejected(s, "inplace_spmm_requant.mqb", "writes its own source buffer 1");
}

// ---- real models: everything the repo can lower verifies clean -------------

NodeDataset VerifierDataset(uint64_t seed = 7) {
  CitationConfig c;
  c.name = "verifier-tiny";
  c.num_nodes = 120;
  c.num_classes = 3;
  c.feature_dim = 16;
  c.avg_degree = 3.0;
  c.homophily = 0.8;
  c.train_per_class = 8;
  c.val_count = 20;
  c.test_count = 40;
  c.seed = seed;
  return GenerateCitation(c);
}

std::shared_ptr<ModelArtifact> TrainArtifact(const SchemeRef& scheme,
                                             NodeModelKind model) {
  NodeExperimentConfig cfg;
  cfg.model = model;
  cfg.hidden = 10;
  cfg.num_layers = 2;
  cfg.train.epochs = 6;
  cfg.train.lr = 0.05f;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(VerifierDataset(), cfg, scheme);
  spec.seed = 7;
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ValueOrDie().artifact;
}

TEST(PlanVerifierTest, RealLoweringsVerifyCleanOnBothBackbones) {
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const SchemeRef& ref : {SchemeRef::Fp32(), SchemeRef::Qat(8)}) {
      SCOPED_TRACE(backbone == NodeModelKind::kGcn ? "gcn" : "sage");
      auto artifact = TrainArtifact(ref, backbone);
      // CompileModel itself runs VerifyPlan under MIXQ_VERIFY=1 (set for
      // this suite by CMake) — a verifier false positive would fail here.
      Result<CompiledModelPtr> model = CompileModel(*artifact);
      ASSERT_TRUE(model.ok()) << model.status().ToString();

      TempFile file("clean.mqb");
      ASSERT_TRUE(SaveBundle(*model.ValueOrDie(), file.path()).ok());
      for (const BundleCheck& check : VerifyBundleFile(file.path())) {
        EXPECT_TRUE(check.status.ok())
            << check.section << ": " << check.status.ToString();
      }
      // The full verdict chain must be present: the structural verifier
      // ("plan") followed by the value-range prover ("ranges").
      std::vector<BundleCheck> checks = VerifyBundleFile(file.path());
      ASSERT_GE(checks.size(), 2u);
      EXPECT_EQ(checks[checks.size() - 2].section, "plan");
      EXPECT_EQ(checks.back().section, "ranges");
    }
  }
}

TEST(PlanVerifierTest, VerifyBundleFileReportsFailingSection) {
  PlanSpec s = BaselineFp32();
  s.steps[1].cols = 2;  // GEMM width mismatch: codec-clean, verifier-bad
  TempFile file("verdicts.mqb");
  ASSERT_TRUE(WriteFileAtomic(file.path(), EncodeBundle(s)).ok());

  std::vector<BundleCheck> checks = VerifyBundleFile(file.path());
  ASSERT_FALSE(checks.empty());
  // Everything up to the last verdict passed (header, section CRCs, decode);
  // the last one is the plan verifier rejecting.
  for (size_t i = 0; i + 1 < checks.size(); ++i) {
    EXPECT_TRUE(checks[i].status.ok()) << checks[i].section;
  }
  EXPECT_EQ(checks.back().section, "plan");
  EXPECT_EQ(checks.back().status.code(), StatusCode::kInvalidArgument);
}

TEST(PlanVerifierTest, FrontierProgramVerifiesAgainstItsPlan) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn);
  Result<CompiledModelPtr> model = CompileModel(*artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Point query on a large-enough graph: Build materializes a pruned
  // schedule (and under MIXQ_VERIFY=1 self-checks it); verify it again
  // explicitly here, in both precisions.
  for (bool int8 : {false, true}) {
    std::unique_ptr<FrontierProgram> program =
        model.ValueOrDie()->BuildFrontierProgram(
            artifact->op, {1, 5, 9}, int8, nullptr, /*max_cost_fraction=*/1.0);
    if (program == nullptr) continue;  // pruning judged not worthwhile
    Status status =
        VerifyFrontierProgram(*model.ValueOrDie()->plan(), *program);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// ---- fuzz regression: CRC-repaired payload mutations -----------------------

/// Recomputes and rewrites the stored checksum of `section` so a payload
/// mutation survives the CRC gate — the adversary model the verifier
/// exists for.
void RepairCrc(std::vector<uint8_t>* bytes, const BundleSection& section) {
  const uint32_t crc =
      Crc32(bytes->data() + section.offset, static_cast<size_t>(section.size));
  for (int i = 0; i < 4; ++i) {
    (*bytes)[static_cast<size_t>(section.offset) - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(PlanVerifierTest, CrcRepairedPayloadMutationsNeverReachAnExecutor) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn);
  Result<CompiledModelPtr> model = CompileModel(*artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  TempFile file("fuzz.mqb");
  ASSERT_TRUE(SaveBundle(*model.ValueOrDie(), file.path()).ok());

  std::vector<uint8_t> pristine;
  ASSERT_TRUE(ReadFileBytes(file.path(), &pristine).ok());
  BundleManifest manifest = InspectBundle(file.path()).MoveValueOrDie();

  int loaded_fine = 0, rejected = 0;
  for (const BundleSection& section : manifest.sections) {
    if (section.tag != "PLAN" && section.tag != "IPLN") continue;
    for (int trial = 0; trial < 160; ++trial) {
      std::vector<uint8_t> mutated = pristine;
      // Deterministic scatter over the payload; XOR patterns cover single
      // bits, full bytes, and sign/width-bit flips of little-endian fields.
      const size_t pos = static_cast<size_t>(section.offset) +
                         (static_cast<size_t>(trial) * 2654435761u) %
                             static_cast<size_t>(section.size);
      mutated[pos] ^= static_cast<uint8_t>(1u << (trial % 8));
      RepairCrc(&mutated, section);

      TempFile mutated_file("fuzz_mut.mqb");
      ASSERT_TRUE(WriteFileAtomic(mutated_file.path(), mutated).ok());
      Result<CompiledModelPtr> reloaded = LoadBundle(mutated_file.path());
      if (!reloaded.ok()) {
        ++rejected;
        continue;
      }
      // The codec and verifier accepted the mutation, so it must be
      // semantically harmless (weight values, quantizer scales): every
      // executor the model exposes must run to completion in bounds.
      ++loaded_fine;
      const CompiledModelPtr& m = reloaded.ValueOrDie();
      Result<Tensor> fp32 = m->Predict(artifact->features, artifact->op);
      EXPECT_TRUE(fp32.ok()) << section.tag << " trial " << trial << ": "
                             << fp32.status().ToString();
      if (m->info().lowered_int8) {
        Result<Tensor> int8 =
            m->PredictQuantized(artifact->features, artifact->op);
        EXPECT_TRUE(int8.ok()) << section.tag << " trial " << trial << ": "
                               << int8.status().ToString();
      }
    }
  }
  // The sweep must exercise both outcomes, else it is vacuous.
  EXPECT_GT(rejected, 0) << "no mutation was ever rejected";
  EXPECT_GT(loaded_fine, 0) << "no mutation ever survived to an executor";
}

}  // namespace
}  // namespace mixq
