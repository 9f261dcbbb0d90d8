#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/tensor_op.hpp"

/// \file dataflow.hpp
/// Intra-operator dataflow = tiling + scheduling (Sec. II-A).
///
/// * Tiling: one tile size per loop dimension, 1 <= T_d <= D_d.  T_d == D_d
///   means the dimension is *untiled* ("unrolled" in the paper) — its tile
///   loop has a single iteration and effectively disappears from the nest.
/// * Scheduling: the order of the tile loops, outermost first.  The paper's
///   "stationary" tensors fall out of the order: a tensor is stationary when
///   no loop outside its own dimensions re-iterates its tile (see
///   access_model.hpp).
///
/// Mapping (buffer <-> PE) is modeled separately in src/sim; this struct
/// covers the memory <-> buffer level that Principles 1-3 optimize.

namespace fusecu {

struct Dataflow {
  /// Permutation of [0, num_dims) — dimension indices, outermost loop first.
  std::vector<int> loop_order;
  /// Tile size per dimension, indexed by dimension (not loop position).
  std::vector<Index> tile;

  /// Trip count of dimension \p d's tile loop: ceil(D_d / T_d).
  Index trips(const TensorOp& op, int d) const;

  /// True when dimension \p d is untiled (tile covers the whole extent).
  bool untiled(const TensorOp& op, int d) const;

  /// Buffer footprint: sum over tensors of the tile element counts
  /// (the paper's Eq. 2 / Eq. 4 left-hand side).
  Index buffer_footprint(const TensorOp& op) const;

  /// Tile element count of a single tensor.
  Index tensor_tile_size(const TensorOp& op, int t) const;

  /// e.g. "order=[M,L,K] tiles{M:512,K:768,L:1}" using the op's dim names.
  std::string to_string(const TensorOp& op) const;
};

/// Throws std::invalid_argument unless \p df is a valid dataflow for \p op:
/// loop_order is a permutation of the op's dimensions and every tile size is
/// within [1, extent].
void validate_dataflow(const TensorOp& op, const Dataflow& df);

/// The same check against the dimensions alone, for a caller that holds
/// an op's extents and names without the op.
void validate_dataflow(std::span<const Dim> dims, const Dataflow& df);

/// Build a dataflow from dimension *names*, e.g.
///   make_dataflow(op, {"M", "L", "K"}, {{"M", 512}, {"K", 768}, {"L", 1}}).
/// Unlisted tile sizes default to 1.
Dataflow make_dataflow(const TensorOp& op, const std::vector<std::string>& order,
                       const std::vector<std::pair<std::string, Index>>& tiles);

}  // namespace fusecu
