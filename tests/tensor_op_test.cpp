#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "tensor/tensor_op.hpp"

namespace fusecu {
namespace {

TEST(TensorOp, MatmulShapeAndSizes) {
  TensorOp op = TensorOp::matmul("bert_qkv", 1024, 768, 768);
  EXPECT_EQ(op.num_dims(), 3);
  EXPECT_EQ(op.num_tensors(), 3);
  EXPECT_EQ(op.extent(mm::kDimM), 1024);
  EXPECT_EQ(op.extent(mm::kDimK), 768);
  EXPECT_EQ(op.extent(mm::kDimL), 768);
  EXPECT_EQ(op.tensor_size(mm::kTensorA), 1024 * 768);
  EXPECT_EQ(op.tensor_size(mm::kTensorB), 768 * 768);
  EXPECT_EQ(op.tensor_size(mm::kTensorC), 1024 * 768);
  EXPECT_EQ(op.output_index(), mm::kTensorC);
  EXPECT_EQ(op.macs(), 1024LL * 768 * 768);
  EXPECT_EQ(op.ideal_min_access(), 1024LL * 768 + 768LL * 768 + 1024LL * 768);
}

TEST(TensorOp, MinExtentAndSmallestTensor) {
  TensorOp op = TensorOp::matmul("mm", 1024, 768, 768);
  EXPECT_EQ(op.min_extent(), 768);
  EXPECT_EQ(op.min_extent_dim(), mm::kDimK);  // first of the tied 768s
  EXPECT_EQ(op.smallest_tensor(), mm::kTensorB);
}

TEST(TensorOp, ReductionDimIsK) {
  TensorOp op = TensorOp::matmul("mm", 4, 5, 6);
  EXPECT_FALSE(op.is_reduction_dim(mm::kDimM));
  EXPECT_TRUE(op.is_reduction_dim(mm::kDimK));
  EXPECT_FALSE(op.is_reduction_dim(mm::kDimL));
}

TEST(TensorOp, FindByName) {
  TensorOp op = TensorOp::matmul("mm", 4, 5, 6, "Q", "Kt", "S");
  EXPECT_EQ(op.find_dim("M"), mm::kDimM);
  EXPECT_EQ(op.find_dim("nope"), -1);
  EXPECT_EQ(op.find_tensor("Q"), mm::kTensorA);
  EXPECT_EQ(op.find_tensor("S"), mm::kTensorC);
  EXPECT_EQ(op.find_tensor("nope"), -1);
}

TEST(TensorOp, TensorHasDim) {
  TensorOp op = TensorOp::matmul("mm", 4, 5, 6);
  EXPECT_TRUE(op.tensor_has_dim(mm::kTensorA, mm::kDimM));
  EXPECT_TRUE(op.tensor_has_dim(mm::kTensorA, mm::kDimK));
  EXPECT_FALSE(op.tensor_has_dim(mm::kTensorA, mm::kDimL));
  EXPECT_FALSE(op.tensor_has_dim(mm::kTensorC, mm::kDimK));
}

TEST(TensorOp, ToStringMentionsAllPieces) {
  TensorOp op = TensorOp::matmul("mm0", 4, 5, 6);
  const std::string s = op.to_string();
  EXPECT_NE(s.find("mm0"), std::string::npos);
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("C"), std::string::npos);
  EXPECT_NE(s.find("M:4"), std::string::npos);
}

/// The message of the std::invalid_argument that \p make throws, after the
/// check's expression and location.
template <typename Make>
std::string rejection(Make make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::string dash = " \xe2\x80\x94 ";  // " — "
    const std::size_t at = what.find(dash);
    return at == std::string::npos ? what : what.substr(at + dash.size());
  }
  ADD_FAILURE() << "construction was accepted";
  return "";
}

TEST(TensorOp, RejectsInvalidConstructions) {
  // Non-positive extent.
  EXPECT_EQ(rejection([] { TensorOp::matmul("bad", 0, 5, 6); }),
            "dimension extent must be positive: M");
  // Two outputs.
  EXPECT_EQ(rejection([] {
              TensorOp("bad", {{"M", 2}, {"K", 2}},
                       {{"A", {0, 1}, TensorRole::kOutput}, {"B", {0, 1}, TensorRole::kOutput}});
            }),
            "operator must have exactly one output");
  // No output.
  EXPECT_EQ(rejection([] {
              TensorOp("bad", {{"M", 2}, {"K", 2}},
                       {{"A", {0, 1}, TensorRole::kInput}, {"B", {0, 1}, TensorRole::kInput}});
            }),
            "operator must have exactly one output");
  // Duplicate dim in one tensor.
  EXPECT_EQ(rejection([] { TensorOp("bad", {{"M", 2}}, {{"A", {0, 0}, TensorRole::kOutput}}); }),
            "tensor repeats a dimension: A");
  // Out-of-range dim reference.
  EXPECT_EQ(rejection([] { TensorOp("bad", {{"M", 2}}, {{"A", {1}, TensorRole::kOutput}}); }),
            "tensor dim index out of range: A");
  // Duplicate tensor names.
  EXPECT_EQ(rejection([] {
              TensorOp("bad", {{"M", 2}, {"K", 3}},
                       {{"A", {0}, TensorRole::kInput}, {"A", {1}, TensorRole::kOutput}});
            }),
            "duplicate tensor name: A");
  // Duplicate dim names.
  EXPECT_EQ(rejection([] {
              TensorOp("bad", {{"M", 2}, {"M", 3}}, {{"A", {0, 1}, TensorRole::kOutput}});
            }),
            "duplicate dimension name: M");
  // No dims, no tensors, a tensor indexing nothing.
  EXPECT_EQ(rejection([] { TensorOp("bad", {}, {{"A", {0}, TensorRole::kOutput}}); }),
            "operator needs at least one dimension");
  EXPECT_EQ(rejection([] { TensorOp("bad", {{"M", 2}}, {}); }),
            "operator needs at least one tensor");
  EXPECT_EQ(rejection([] { TensorOp("bad", {{"M", 2}}, {{"A", {}, TensorRole::kOutput}}); }),
            "tensor must index at least one dimension: A");
  // The first violation in declaration order is the one reported.
  EXPECT_EQ(rejection([] {
              TensorOp("bad", {{"M", 2}, {"K", 0}, {"M", 3}},
                       {{"A", {0, 1}, TensorRole::kOutput}});
            }),
            "dimension extent must be positive: K");
}

TEST(TensorOp, BatchedMatmulAndFolding) {
  TensorOp shared = TensorOp::batched_matmul("proj", 16, 128, 64, 64, /*shared_weight=*/true);
  EXPECT_EQ(shared.num_dims(), 4);
  EXPECT_EQ(shared.macs(), 16LL * 128 * 64 * 64);
  EXPECT_EQ(shared.tensor_size(shared.find_tensor("W")), 64 * 64);

  TensorOp folded = fold_batch(shared);
  EXPECT_EQ(folded.extent(mm::kDimM), 16 * 128);
  EXPECT_EQ(folded.macs(), shared.macs());
  // Folding preserves every tensor's size, hence the ideal MA bound.
  EXPECT_EQ(folded.ideal_min_access(), shared.ideal_min_access());

  TensorOp per_slice = TensorOp::batched_matmul("attn", 16, 128, 64, 64,
                                                /*shared_weight=*/false);
  EXPECT_EQ(per_slice.tensor_size(per_slice.find_tensor("W")), 16LL * 64 * 64);
  EXPECT_THROW(fold_batch(per_slice), std::invalid_argument);
  EXPECT_THROW(fold_batch(TensorOp::matmul("mm", 4, 4, 4)), std::invalid_argument);
}

TEST(TensorOp, GeneralNonMatmulOpIsRepresentable) {
  // A 1-D reduction: out(M) = sum_K in(M, K) — the IR is rank-agnostic.
  TensorOp op("rowsum", {{"M", 8}, {"K", 16}},
              {{"in", {0, 1}, TensorRole::kInput}, {"out", {0}, TensorRole::kOutput}});
  EXPECT_EQ(op.macs(), 128);
  EXPECT_EQ(op.tensor_size(1), 8);
  EXPECT_TRUE(op.is_reduction_dim(1));
}

}  // namespace
}  // namespace fusecu
