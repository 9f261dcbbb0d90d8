#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

/// \file tensor_op.hpp
/// Loop-nest representation of tensor operators.
///
/// The paper analyzes operators as perfect loop nests: a matrix
/// multiplication A(M,K) x B(K,L) = C(M,L) is the nest over (M, K, L) where
/// each tensor is indexed by a subset of the loop dimensions.  Principles 1-4
/// "can be extended to other tensor operators, as all tensor operators can be
/// represented as for-loops" (Sec. III-B2), so the IR is dimension-count
/// agnostic: an op owns a list of named dimensions and a list of tensors,
/// each tensor declaring which dimensions index it.

namespace fusecu {

/// One loop dimension of an operator.
struct Dim {
  std::string name;  ///< e.g. "M", "K", "L"
  Index extent = 0;  ///< loop trip count in elements
};

/// Role of a tensor within an operator (and within a fused graph).
enum class TensorRole {
  kInput,   ///< read-only operand
  kOutput,  ///< produced by the operator (may carry a reduction)
};

/// A tensor operand: a name plus the subset of operator dimensions that
/// index it.  Dimensions are referenced by their position in the owning
/// operator's dimension list.
struct TensorDecl {
  std::string name;
  std::vector<int> dims;  ///< indices into TensorOp::dims(), row-major order
  TensorRole role = TensorRole::kInput;
};

/// A single tensor operator as a perfect loop nest.
///
/// Invariants (checked on construction):
///  * at least one dimension, all extents >= 1;
///  * exactly one output tensor;
///  * every tensor indexes a non-empty, duplicate-free subset of dims;
///  * dimension and tensor names are unique within the operator.
class TensorOp {
 public:
  TensorOp(std::string name, std::vector<Dim> dims, std::vector<TensorDecl> tensors);

  /// Canonical matrix multiplication A(M,K) x B(K,L) = C(M,L).
  /// Dimension order is fixed as [M, K, L]; tensor order as [A, B, C].
  static TensorOp matmul(std::string name, Index m, Index k, Index l,
                         std::string a_name = "A", std::string b_name = "B",
                         std::string c_name = "C");

  /// Batched matrix multiplication over \p batch independent slices: the
  /// 4-loop nest (B, M, K, L) with A{B,M,K} and C{B,M,L}.  With
  /// \p shared_weight the weight is W{K,L} (one operand for all slices —
  /// the projection case); otherwise W{B,K,L} (per-slice operands — the
  /// attention case).  The rank-agnostic access model prices the 4-loop
  /// nest directly; fold_batch() (below) reduces the shared-weight form to
  /// the 3-dim view the principle constructions optimize.
  static TensorOp batched_matmul(std::string name, Index batch, Index m, Index k, Index l,
                                 bool shared_weight = true);

  /// Unary elementwise operator over an (M, L) tensor (GeLU, scale, ...).
  /// \p rowwise marks operators needing a complete row before producing
  /// output (softmax, layernorm): they stream for free only inside a fused
  /// group whose producer completes rows on-chip.
  static TensorOp elementwise(std::string name, Index m, Index l, std::string in_name,
                              std::string out_name, bool rowwise = false);

  /// Binary elementwise operator (residual addition and friends).
  static TensorOp binary_elementwise(std::string name, Index m, Index l, std::string in_a,
                                     std::string in_b, std::string out_name);

  /// True for operators built by the elementwise factories.
  bool is_elementwise() const { return elementwise_; }
  /// True when the operator needs complete rows (softmax/layernorm).
  bool is_rowwise() const { return rowwise_; }

  const std::string& name() const { return name_; }
  int num_dims() const { return static_cast<int>(dims_.size()); }
  const Dim& dim(int i) const { return dims_.at(static_cast<std::size_t>(i)); }
  const std::vector<Dim>& dims() const { return dims_; }
  Index extent(int i) const { return dim(i).extent; }

  int num_tensors() const { return static_cast<int>(tensors_.size()); }
  const TensorDecl& tensor(int t) const { return tensors_.at(static_cast<std::size_t>(t)); }
  const std::vector<TensorDecl>& tensors() const { return tensors_; }

  /// Index of the unique output tensor.
  int output_index() const { return output_index_; }

  /// Element count of tensor \p t (product of its dimension extents).
  Index tensor_size(int t) const;

  /// Total element count across all tensors: the ideal minimum memory access
  /// when every tensor is fetched/stored exactly once (the paper's
  /// "ideal minimal MA", reached by Three-NRA).
  AccessCount ideal_min_access() const;

  /// Multiply-accumulate count: product of all dimension extents.
  MacCount macs() const;

  /// Smallest dimension extent, the paper's D_min.
  Index min_extent() const;

  /// Index of the dimension with the smallest extent (first on ties).
  int min_extent_dim() const;

  /// Index of the smallest tensor by element count (first on ties).
  int smallest_tensor() const;

  /// True if dimension \p d indexes tensor \p t.
  bool tensor_has_dim(int t, int d) const;

  /// Does dimension \p d participate in the output's reduction (i.e. it is
  /// not an output dimension)?  For MM this is K.
  bool is_reduction_dim(int d) const;

  /// Lookup a dimension by name; returns -1 when absent.
  int find_dim(const std::string& name) const;

  /// Lookup a tensor by name; returns -1 when absent.
  int find_tensor(const std::string& name) const;

  /// "name: A(M:1024, K:768) x B(K:768, L:768) -> C(M, L)" style summary.
  std::string to_string() const;

 private:
  std::string name_;
  std::vector<Dim> dims_;
  std::vector<TensorDecl> tensors_;
  int output_index_ = -1;
  bool elementwise_ = false;
  bool rowwise_ = false;
};

/// Convenience accessors for canonical matmul dims/tensors created by
/// TensorOp::matmul.  Using named constants avoids magic indices at call
/// sites throughout the optimizers.
/// Fold the batch dimension of a *shared-weight* batched matmul into M:
/// A(B*M, K) x W(K, L) = C(B*M, L) — exact for memory-access purposes since
/// A and C sizes are preserved and W is reused identically across slices.
/// Throws for per-slice-weight batched ops (folding would alias distinct
/// weights).
TensorOp fold_batch(const TensorOp& batched);

namespace mm {
inline constexpr int kDimM = 0;
inline constexpr int kDimK = 1;
inline constexpr int kDimL = 2;
inline constexpr int kTensorA = 0;
inline constexpr int kTensorB = 1;
inline constexpr int kTensorC = 2;
/// Per-tensor dimension masks (bit d set when dim d indexes the tensor):
/// A{M,K}, B{K,L}, C{M,L} — the flat form nest_access() prices.
inline constexpr std::array<std::uint32_t, 3> kTensorMasks = {0b011, 0b110, 0b101};
}  // namespace mm

}  // namespace fusecu
