#pragma once

#include "tensor/tensor_op.hpp"

/// \file buffer_class.hpp
/// The paper's buffer-size classification (Sec. III-A4).
///
/// With D_min the smallest loop extent and |Tensor_min| the element count of
/// the smallest tensor:
///
///   Tiny   : BS <= D_min^2 / 4              -> Single-NRA optimal
///   Small  : D_min^2/4 < BS <= D_min^2 / 2  -> Single- or Two-NRA (compare)
///   Medium : D_min^2/2 < BS <= |Tensor_min| -> Two-NRA optimal
///   Large  : BS > |Tensor_min|              -> Three-NRA optimal
///
/// The classification *predicts* which regime wins, and the prediction is
/// not exact: in a 60,000-matmul census (m, k, l <= 96) Single-NRA wins
/// 8.2% of medium-class cases and Two-NRA wins 7.2% of large-class cases
/// (EXPERIMENTS.md, "Documented deviations").  So the optimizer never
/// dispatches on the class: it constructs the candidates of every regime
/// and keeps the cheapest, and property tests check that choice against
/// exhaustive search.

namespace fusecu {

enum class BufferClass { kTiny, kSmall, kMedium, kLarge };

/// Classify \p buffer_size (elements) for operator \p op.
BufferClass classify_buffer(const TensorOp& op, BufferSize buffer_size);

/// The same from the two numbers it reads: the smallest loop extent and
/// the smallest tensor's element count.
BufferClass classify_buffer(Index d_min, Index tensor_min, BufferSize buffer_size);

/// The shift-point range between Single- and Two-NRA: [D_min^2/4, D_min^2/2].
struct ShiftRange {
  BufferSize low = 0;   ///< D_min^2 / 4
  BufferSize high = 0;  ///< D_min^2 / 2
};
ShiftRange single_two_shift_range(const TensorOp& op);

const char* to_string(BufferClass cls);

}  // namespace fusecu
