/// \file quickstart.cpp
/// Five-minute tour of the library, following Sec. III of the paper:
///
///  1. describe a matrix multiplication as a tensor operator;
///  2. score a hand-written dataflow with the reuse-based access model;
///  3. let the principle optimizer derive the optimal dataflow in one shot
///     (the paper's worked BERT example);
///  4. check a fusion decision with Principle 4.

#include <cstdio>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/principle_optimizer.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: quickstart\n");
  // --- 1. The paper's running example: a BERT projection MM.
  TensorOp op = TensorOp::matmul("bert_mm", /*m=*/1024, /*k=*/768, /*l=*/768);
  std::printf("operator: %s\n", op.to_string().c_str());
  std::printf("MACs: %s, ideal minimal memory access: %s elements\n\n",
              format_count(op.macs()).c_str(), format_count(op.ideal_min_access()).c_str());

  // --- 2. Score the classic output-stationary dataflow by hand (Fig. 2(b)).
  Dataflow os = make_dataflow(op, {"M", "L", "K"}, {{"M", 64}, {"L", 64}, {"K", 1}});
  AccessBreakdown b = evaluate_access(op, os);
  std::printf("hand-written OS dataflow %s\n", os.to_string(op).c_str());
  std::printf("  accesses: A=%s B=%s C=%s total=%s (%s)\n\n",
              format_count(b.per_tensor[mm::kTensorA]).c_str(),
              format_count(b.per_tensor[mm::kTensorB]).c_str(),
              format_count(b.per_tensor[mm::kTensorC]).c_str(),
              format_count(b.total).c_str(), to_string(classify_nra(op, os)));

  // --- 3. One-shot optimal dataflow for a 512 KB buffer (Sec. III-A4).
  const BufferSize bs = 512 * 1024;  // elements
  IntraOptResult r = optimize_intra(op, bs);
  std::printf("principle-optimized dataflow at BS = 512K elements:\n");
  std::printf("  buffer class: %s  ->  regime: %s  (rule %s)\n", to_string(r.buffer_class),
              to_string(r.nra), r.rule.c_str());
  std::printf("  dataflow: %s\n", r.dataflow.to_string(op).c_str());
  std::printf("  accesses: A=%s B=%s C=%s total=%s\n",
              format_count(r.access.per_tensor[mm::kTensorA]).c_str(),
              format_count(r.access.per_tensor[mm::kTensorB]).c_str(),
              format_count(r.access.per_tensor[mm::kTensorC]).c_str(),
              format_count(r.access.total).c_str());
  std::printf("  (paper: Two-NRA, K untiled, B accessed 2KL — A and C non-redundant)\n\n");

  // --- 4. Should two chained MMs be fused?  Principle 4 in one call.
  FusedPair attention = FusedPair::make(/*m=*/1024, /*k=*/64, /*l=*/1024, /*n=*/64);
  FusionDecision d = decide_fusion(attention, bs);
  std::printf("attention pair S = Q K^T -> O = S V at the same buffer:\n");
  std::printf("  Principle 4 (same NRA regime): %s\n", d.principle4_predicts ? "fuse" : "don't");
  std::printf("  unfused MA: %s, fused MA: %s  (%.1f%% saved, pattern %s)\n",
              format_count(d.unfused_ma).c_str(), format_count(d.fused_ma).c_str(),
              100.0 * (1.0 - static_cast<double>(d.fused_ma) / static_cast<double>(d.unfused_ma)),
              d.fused ? d.fused->chosen.rule.c_str() : "-");
  return 0;
}
