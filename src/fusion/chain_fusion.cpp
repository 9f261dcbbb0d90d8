#include "fusion/chain_fusion.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fusecu {

namespace {

/// Canonical adjacency: op's output is the successor's first input with
/// matching extents (the orientation MatMulChainBuilder produces).
bool canonically_adjacent(const TensorOp& producer, const TensorOp& consumer) {
  const TensorDecl& out = producer.tensor(producer.output_index());
  if (consumer.tensor(0).name != out.name) return false;
  return consumer.extent(mm::kDimM) == producer.extent(mm::kDimM) &&
         consumer.extent(mm::kDimK) == producer.extent(mm::kDimL);
}

}  // namespace

std::optional<ResidentChainResult> optimize_resident_chain(const OperatorGraph& graph, int first,
                                                           int len, BufferSize bs) {
  FCU_CHECK(len >= 2, "resident chain needs at least two ops");
  FCU_CHECK(first >= 0 && first + len <= graph.num_ops(), "chain slice out of range");
  for (int i = first; i < first + len; ++i) require_matmul_shape(graph.op(i));
  for (int i = first; i + 1 < first + len; ++i) {
    if (!canonically_adjacent(graph.op(i), graph.op(i + 1))) return std::nullopt;
  }

  const Index m = graph.op(first).extent(mm::kDimM);

  // Resident intermediates: outputs of all but the last op.
  Index resident = 0;
  for (int i = first; i + 1 < first + len; ++i) {
    resident += graph.op(i).tensor_size(mm::kTensorC);
  }

  ResidentChainResult result;
  Index peak_tiles = 0;
  for (int i = first; i < first + len; ++i) {
    const TensorOp& op = graph.op(i);
    Dataflow df;
    df.tile.assign(3, 1);
    Index tiles = 0;
    if (i == first) {
      // Stream X_0 column-by-column into the resident X_1: order (K, M, L),
      // T_M = M, T_L = L, T_K = 1 — every tensor accessed once.
      df.loop_order = {mm::kDimK, mm::kDimM, mm::kDimL};
      df.tile[mm::kDimM] = op.extent(mm::kDimM);
      df.tile[mm::kDimL] = op.extent(mm::kDimL);
      tiles = m + op.extent(mm::kDimL);  // X_0 column + W_1 row
    } else {
      // X_{i-1} fully resident; stream W_i column-by-column: order
      // (L, M, K), T_M = M, T_K = K, T_L = 1.
      df.loop_order = {mm::kDimL, mm::kDimM, mm::kDimK};
      df.tile[mm::kDimM] = op.extent(mm::kDimM);
      df.tile[mm::kDimK] = op.extent(mm::kDimK);
      tiles = op.extent(mm::kDimK);           // W_i column
      if (i == first + len - 1) tiles += m;   // external output column
    }
    peak_tiles = std::max(peak_tiles, tiles);
    result.dataflows.push_back(std::move(df));
  }

  result.buffer_footprint = resident + peak_tiles;
  if (result.buffer_footprint > bs) return std::nullopt;

  // Externals once each: X_0 + every weight + the final output.
  result.total_access = graph.op(first).tensor_size(mm::kTensorA);
  for (int i = first; i < first + len; ++i) {
    result.total_access += graph.op(i).tensor_size(mm::kTensorB);
  }
  result.total_access += graph.op(first + len - 1).tensor_size(mm::kTensorC);
  return result;
}

}  // namespace fusecu
