#include "dataflow/access_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"

namespace fusecu {

int AccessBreakdown::non_redundant_tensors(const TensorOp& op) const {
  FCU_CHECK(per_tensor.size() == static_cast<std::size_t>(op.num_tensors()),
            "breakdown does not match op");
  int count = 0;
  for (int t = 0; t < op.num_tensors(); ++t) {
    if (per_tensor[static_cast<std::size_t>(t)] == op.tensor_size(t)) ++count;
  }
  return count;
}

AccessBreakdown evaluate_access(const TensorOp& op, const Dataflow& df) {
  validate_dataflow(op, df);
  const auto n = static_cast<std::size_t>(op.num_dims());
  const auto num_tensors = static_cast<std::size_t>(op.num_tensors());
  FCU_CHECK(n <= kMaxNestDims && num_tensors <= kMaxNestDims,
            "the access model prices at most 32 dimensions and 32 tensors");
  std::array<Index, kMaxNestDims> extents{};
  std::array<std::uint32_t, kMaxNestDims> masks{};
  for (std::size_t d = 0; d < n; ++d) extents[d] = op.extent(static_cast<int>(d));
  for (std::size_t t = 0; t < num_tensors; ++t) {
    for (int d : op.tensor(static_cast<int>(t)).dims) masks[t] |= 1u << d;
  }

  AccessBreakdown out;
  out.per_tensor.resize(num_tensors);
  out.buffer_footprint = df.buffer_footprint(op);
  out.total = nest_access(std::span(extents).first(n), df.loop_order, df.tile,
                          std::span(masks).first(num_tensors), out.per_tensor);
  return out;
}

bool fits_buffer(const TensorOp& op, const Dataflow& df, BufferSize buffer_size) {
  return df.buffer_footprint(op) <= buffer_size;
}

NraKind classify_nra(const TensorOp& op, const Dataflow& df) {
  const int count = evaluate_access(op, df).non_redundant_tensors(op);
  FCU_CHECK(count <= 3, "MM has exactly three tensors");
  // A nest where *no* tensor is accessed once (e.g. the stationary dims
  // interleaved with redundant loops) is strictly dominated; report it as
  // Single so callers can still rank it, but it never wins.
  return count == 0 ? NraKind::kSingle : static_cast<NraKind>(count);
}

int stationary_tensor(const TensorOp& op, const Dataflow& df) {
  AccessBreakdown b = evaluate_access(op, df);
  if (b.non_redundant_tensors(op) != 1) return -1;
  for (int t = 0; t < op.num_tensors(); ++t) {
    if (b.per_tensor[static_cast<std::size_t>(t)] == op.tensor_size(t)) return t;
  }
  return -1;
}

AccessCount intra_traffic_lower_bound(const TensorOp& op, BufferSize bs) {
  AccessCount floor = op.ideal_min_access();
  if (op.num_dims() == 3 && bs >= 1) {
    // Dinh-Demmel projective-loop bound, provable for every dataflow of the
    // access model: some tensor tile of area t1*t2 <= BS bounds two of the
    // redundancy terms, and AM-GM gives MA >= 2*MKL/sqrt(t1*t2).  Rounded
    // down one element to stay sound under floating-point evaluation.
    const double mkl = static_cast<double>(op.macs());
    const AccessCount dd =
        static_cast<AccessCount>(2.0 * mkl / std::sqrt(static_cast<double>(bs))) - 1;
    floor = std::max(floor, dd);
  }
  return floor;
}

const char* to_string(NraKind kind) {
  switch (kind) {
    case NraKind::kSingle:
      return "Single-NRA";
    case NraKind::kTwo:
      return "Two-NRA";
    case NraKind::kThree:
      return "Three-NRA";
  }
  return "?";
}

}  // namespace fusecu
