#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "tensor/op_graph.hpp"

/// \file transformer.hpp
/// The seven attention-based models of Table II and their lowering to
/// matrix-multiplication chains.
///
/// One encoder/decoder layer lowers to (batch b, sequence s, hidden d,
/// heads h, head dim d_h = d/h, FFN expansion f):
///
///   QKV projections : 3 solo MMs   (b*s, d, d)
///   attention core  : per head, the fusable chain
///                     S = Q K^T (s, d_h, s)  ->  O = S V (s, s, d_h),
///                     b*h instances; softmax between the two runs on the
///                     dedicated softmax unit in *both* fused and unfused
///                     execution and is not charged memory traffic
///   output proj     : 1 solo MM    (b*s, d, d)
///   FFN             : the fusable chain (b*s, d, f*d) -> (b*s, f*d, d)
///
/// Head reshapes between the projections and the attention core break
/// operator adjacency, so cross-boundary fusion is not modeled (the paper's
/// Fig. 4 patterns are all within such chains).

namespace fusecu {

struct ModelConfig {
  std::string name;
  int heads = 0;
  Index seq = 0;
  Index hidden = 0;
  Index ffn_mult = 4;
  Index batch = 16;
  /// Grouped-query attention: number of key/value heads (0 = same as
  /// `heads`, i.e. classic multi-head attention).  Query heads within a
  /// group share one K/V head, shrinking the K/V projections and the
  /// decode-time KV cache by heads / kv_heads.
  int kv_heads = 0;

  Index head_dim() const;
  int effective_kv_heads() const { return kv_heads > 0 ? kv_heads : heads; }
  /// K/V projection width: kv_heads * head_dim.
  Index kv_width() const { return effective_kv_heads() * head_dim(); }
};

/// Table II, in row order: BERT, GPT-2, Blenderbot, XLM, DeBERTa-v2,
/// LLaMA2 (seq 4096), ALBERT.
std::vector<ModelConfig> table2_models();

/// One layer's shapes as lower_layer() lowers it (batch folded into M, FFN
/// expansion ffn_mult): the five matmuls as (m, k, l), i.e. the projection,
/// attention S = QK^T and O = SV, FFN up and down, and the attention and FFN
/// fused pairs as (m, k, l, n).
struct LayerShapes {
  std::array<std::array<Index, 3>, 5> matmuls{};
  std::array<std::array<Index, 4>, 2> pairs{};
};

/// A layer of a uniformly drawn Table II model at a sequence length of
/// 128..4096: the shapes a cold planning stream asks for.  \p rng is any
/// generator with uniform(lo, hi); the seeded Table II populations (the
/// closed-form golden digests, the cold-population benchmark) draw here.
template <typename Rng>
LayerShapes draw_table2_layer(Rng& rng) {
  static const std::vector<ModelConfig> models = table2_models();
  const ModelConfig& model =
      models[static_cast<std::size_t>(rng.uniform(0, static_cast<Index>(models.size()) - 1))];
  const Index seq = rng.uniform(128, 4096);
  const Index rows = model.batch * seq, d = model.hidden, dh = model.head_dim();
  const Index f = model.ffn_mult * d;
  LayerShapes layer;
  layer.matmuls = {{{rows, d, d}, {seq, dh, seq}, {seq, seq, dh}, {rows, d, f}, {rows, f, d}}};
  layer.pairs = {{{seq, dh, seq, dh}, {rows, d, f, d}}};
  return layer;
}

/// A buffer for the matmul (m, k, l) in one of the four buffer classes of
/// Principles 1-3 (principles/buffer_class.hpp), chosen uniformly: from the
/// minimal working set 3 up to D_min^2/4, D_min^2/2, |Tensor_min| or the
/// full-fit point |A| + |B| + |C|.
template <typename Rng>
BufferSize draw_class_buffer(Rng& rng, Index m, Index k, Index l) {
  const Index dmin = std::min({m, k, l});
  const Index tmin = std::min({m * k, k * l, m * l});
  const std::array<Index, 5> bounds = {3, dmin * dmin / 4, dmin * dmin / 2, tmin,
                                       m * k + k * l + m * l};
  const auto cls = static_cast<std::size_t>(rng.uniform(0, 3));
  const Index lo = cls == 0 ? bounds[0] : bounds[cls] + 1;
  return rng.uniform(lo, std::max(lo, bounds[cls + 1]));
}

/// LLaMA2 at an arbitrary sequence length (Fig. 11 sweeps 256..16K).
ModelConfig llama2_at_seq(Index seq);

/// LLaMA2-70B-style GQA configuration: 64 query heads sharing 8 KV heads
/// (extension workload; not part of Table II).
ModelConfig llama2_70b_gqa(Index seq = 4096);

/// A chain of operators plus how many independent instances of it one
/// layer executes.
struct WorkloadChain {
  std::string label;
  OperatorGraph graph;
  Index count = 1;
  /// Extra memory accesses charged per instance when the chain's pair is
  /// NOT fused: the attention intermediate's softmax round trip (read S,
  /// write P) that fused execution performs on-chip through the softmax
  /// unit sitting between the producer and consumer phases.
  AccessCount unfused_intermediate_penalty = 0;
};

/// All chains of one layer of \p model.
std::vector<WorkloadChain> lower_layer(const ModelConfig& model);

/// Total MACs of one layer (for reporting).
MacCount layer_macs(const ModelConfig& model);

/// One full transformer block as a single operator DAG, including the
/// non-matmul structure the chain lowering elides: softmax (row-wise),
/// GeLU (pointwise), residual additions (binary pointwise) and layernorms
/// (row-wise).  Attention is modeled at per-head shapes with the head
/// reshape elided (Q/K/V feed the score matmul directly), so the graph is
/// a faithful single-head slice of the block; use it with
/// fusion/graph_planner.hpp.  \p seq rows, hidden width d, head dim d_h.
OperatorGraph transformer_block_graph(const ModelConfig& model);

/// Decode-step lowering (autoregressive inference): each of `batch`
/// sequences generates one token against a KV cache of \p context entries.
/// The projections and FFN collapse to skinny (M = batch) matmuls and the
/// per-head attention becomes the GEMV-shaped chain
/// (1, d_h, context) -> (1, context, d_h) — the regime where flexible
/// stationary and adaptive tiling matter most (Sec. V-C discussion of
/// small-dimension models).
std::vector<WorkloadChain> lower_decode_step(const ModelConfig& model, Index context);

}  // namespace fusecu
