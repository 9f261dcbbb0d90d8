#include "fusion/fused_pair.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/check.hpp"
#include "principles/principle_optimizer.hpp"

namespace fusecu {

FusedPair FusedPair::make(Index m, Index k, Index l, Index n) {
  FCU_CHECK(m >= 1 && k >= 1 && l >= 1 && n >= 1, "fused pair extents must be positive");
  return FusedPair(m, k, l, n);
}

FusedPair FusedPair::from_ops(const TensorOp& op1, const TensorOp& op2) {
  require_matmul_shape(op1);
  require_matmul_shape(op2);
  const TensorDecl& out1 = op1.tensor(op1.output_index());
  const int shared = op2.find_tensor(out1.name);
  FCU_CHECK(shared >= 0, "ops do not share a tensor: " + op1.name() + " -> " + op2.name());
  FCU_CHECK(shared != op2.output_index(), "shared tensor must be an input of the consumer");

  const Index m = op1.extent(out1.dims[0]);
  const Index l = op1.extent(out1.dims[1]);
  Index k = 1;
  for (int d = 0; d < op1.num_dims(); ++d) {
    if (op1.is_reduction_dim(d)) k = op1.extent(d);
  }
  const TensorDecl& cin = op2.tensor(shared);
  const Index c0 = op2.extent(cin.dims[0]);
  const Index c1 = op2.extent(cin.dims[1]);
  FCU_CHECK(c0 == m && c1 == l,
            "shared tensor extents disagree between producer and consumer");

  // The consumer's free dimension: the one indexing neither C's row nor
  // C's column role.  Whether C feeds the consumer's "activation" or
  // "weight" port, the access model is transpose-invariant, so we
  // canonicalize both cases onto the same (m, k, l, n) pair.
  const bool c_is_first_operand = !op2.is_reduction_dim(cin.dims[0]);
  Index n = 1;
  for (int d = 0; d < op2.num_dims(); ++d) {
    if (d != cin.dims[0] && d != cin.dims[1]) n = op2.extent(d);
  }
  if (c_is_first_operand) {
    // op2 = C(M, L) x D(L, N): canonical already.
    return make(m, k, l, n);
  }
  // op2 = Y(N, M) x C(M, L): transpose the whole pair -> (l, k, m, n).
  return make(l, k, m, n);
}

TensorOp FusedPair::op1() const { return TensorOp::matmul("fused_op1", m_, k_, l_, "A", "B", "C"); }

TensorOp FusedPair::op2() const { return TensorOp::matmul("fused_op2", m_, l_, n_, "C", "D", "E"); }

AccessCount FusedPair::ideal_min_access() const {
  return m_ * k_ + k_ * l_ + l_ * n_ + m_ * n_;
}

std::string PhasedFusedDataflow::to_string() const {
  std::ostringstream os;
  os << "phased{T_M:" << t_m << ",T_K:" << t_k << ",T_L:" << t_l << ",T_N:" << t_n
     << (l_outer ? ",L-outer" : ",M-outer") << "}";
  return os.str();
}

FusedAccess evaluate_phased(const FusedPair& pair, const PhasedFusedDataflow& df) {
  FCU_CHECK(df.t_m >= 1 && df.t_m <= pair.m(), "T_M out of range");
  FCU_CHECK(df.t_k >= 1 && df.t_k <= pair.k(), "T_K out of range");
  FCU_CHECK(df.t_l >= 1 && df.t_l <= pair.l(), "T_L out of range");
  FCU_CHECK(df.t_n >= 1 && df.t_n <= pair.n(), "T_N out of range");

  // op1 sub-nest (M, L, K) with the producer reduction innermost — required
  // so each C tile is complete before the consumer phase runs.
  const std::array<int, 3> order1 =
      df.l_outer ? std::array{mm::kDimL, mm::kDimM, mm::kDimK}
                 : std::array{mm::kDimM, mm::kDimL, mm::kDimK};
  std::array<AccessCount, 3> b1{};
  nest_access(std::array{pair.m(), pair.k(), pair.l()}, order1,
              std::array{df.t_m, df.t_k, df.t_l}, mm::kTensorMasks, b1);

  // op2 sub-nest (M, L, N): in op2's dimension space M=0, L=1 (reduction),
  // N=2.  The shared (M, L) loops keep the producer's order.
  const std::array<int, 3> order2 = df.l_outer ? std::array{1, 0, 2} : std::array{0, 1, 2};
  std::array<AccessCount, 3> b2{};
  nest_access(std::array{pair.m(), pair.l(), pair.n()}, order2,
              std::array{df.t_m, df.t_l, df.t_n}, mm::kTensorMasks, b2);

  FusedAccess out;
  out.op1_external = b1[mm::kTensorA] + b1[mm::kTensorB];
  out.op2_external = b2[1] + b2[2];  // D, E
  out.total = out.op1_external + out.op2_external;
  out.buffer_footprint = df.t_m * df.t_k + df.t_k * df.t_l + df.t_m * df.t_l +
                         df.t_l * df.t_n + df.t_m * df.t_n;
  return out;
}

namespace {

std::array<Dim, 3> matmul_dims(const std::array<Index, 3>& extent) {
  return {{{"M", extent[0]}, {"K", extent[1]}, {"L", extent[2]}}};
}

}  // namespace

Dataflow FlatNest::to_dataflow() const {
  Dataflow df;
  df.loop_order.assign(loop_order.begin(), loop_order.end());
  df.tile.assign(tile.begin(), tile.end());
  return df;
}

FusedAccess evaluate_resident(const FusedPair& pair, const ResidentFusedDataflow& df) {
  // Both ops are TensorOp::matmul, whose dims are named M, K, L.
  validate_dataflow(matmul_dims(pair.op1_extents()), df.df1);
  validate_dataflow(matmul_dims(pair.op2_extents()), df.df2);
  auto flat = [](const Dataflow& d) {
    FlatNest nest;
    std::copy_n(d.loop_order.begin(), 3, nest.loop_order.begin());
    std::copy_n(d.tile.begin(), 3, nest.tile.begin());
    return nest;
  };
  return evaluate_resident(pair, flat(df.df1), flat(df.df2));
}

FusedAccess evaluate_resident(const FusedPair& pair, const FlatNest& side1, const FlatNest& side2) {
  std::array<AccessCount, 3> b1{};
  nest_access(std::array{pair.m(), pair.k(), pair.l()}, side1.loop_order, side1.tile,
              mm::kTensorMasks, b1);
  std::array<AccessCount, 3> b2{};
  nest_access(std::array{pair.m(), pair.l(), pair.n()}, side2.loop_order, side2.tile,
              mm::kTensorMasks, b2);

  // Tile element counts of the external tensors: A{M,K} + B{K,L} of op1,
  // D{L,N} + E{M,N} of op2 (op2's dims are M, L, N).
  const auto& t1 = side1.tile;
  const auto& t2 = side2.tile;
  const Index op1_tiles = t1[0] * t1[1] + t1[1] * t1[2];
  const Index op2_tiles = t2[1] * t2[2] + t2[0] * t2[2];

  FusedAccess out;
  out.op1_external = b1[mm::kTensorA] + b1[mm::kTensorB];
  out.op2_external = b2[1] + b2[2];
  out.total = out.op1_external + out.op2_external;
  // The ops run sequentially, so only the larger working set coexists with
  // the fully-resident intermediate.
  out.buffer_footprint = pair.intermediate_size() + std::max(op1_tiles, op2_tiles);
  return out;
}

}  // namespace fusecu
