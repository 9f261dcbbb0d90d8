#include "tensor/tensor_op.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace fusecu {

namespace {

/// Whether one of the first \p count entries of \p items is named \p name.
/// An op has a handful of dims and tensors, so a scan beats a set and
/// allocates nothing.
template <typename T>
bool named_before(const std::vector<T>& items, std::size_t count, const std::string& name) {
  return std::any_of(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(count),
                     [&](const T& item) { return item.name == name; });
}

}  // namespace

TensorOp::TensorOp(std::string name, std::vector<Dim> dims, std::vector<TensorDecl> tensors)
    : name_(std::move(name)), dims_(std::move(dims)), tensors_(std::move(tensors)) {
  FCU_CHECK(!dims_.empty(), "operator needs at least one dimension");
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Dim& d = dims_[i];
    FCU_CHECK(d.extent >= 1, "dimension extent must be positive: " + d.name);
    FCU_CHECK(!named_before(dims_, i, d.name), "duplicate dimension name: " + d.name);
  }
  FCU_CHECK(!tensors_.empty(), "operator needs at least one tensor");
  for (int t = 0; t < num_tensors(); ++t) {
    const auto at = static_cast<std::size_t>(t);
    const TensorDecl& decl = tensors_[at];
    FCU_CHECK(!named_before(tensors_, at, decl.name), "duplicate tensor name: " + decl.name);
    FCU_CHECK(!decl.dims.empty(), "tensor must index at least one dimension: " + decl.name);
    for (auto it = decl.dims.begin(); it != decl.dims.end(); ++it) {
      const int d = *it;
      FCU_CHECK(d >= 0 && d < num_dims(), "tensor dim index out of range: " + decl.name);
      FCU_CHECK(std::find(decl.dims.begin(), it, d) == it,
                "tensor repeats a dimension: " + decl.name);
    }
    if (decl.role == TensorRole::kOutput) {
      FCU_CHECK(output_index_ == -1, "operator must have exactly one output");
      output_index_ = t;
    }
  }
  FCU_CHECK(output_index_ != -1, "operator must have exactly one output");
}

TensorOp TensorOp::matmul(std::string name, Index m, Index k, Index l, std::string a_name,
                          std::string b_name, std::string c_name) {
  std::vector<Dim> dims = {{"M", m}, {"K", k}, {"L", l}};
  std::vector<TensorDecl> tensors = {
      {std::move(a_name), {mm::kDimM, mm::kDimK}, TensorRole::kInput},
      {std::move(b_name), {mm::kDimK, mm::kDimL}, TensorRole::kInput},
      {std::move(c_name), {mm::kDimM, mm::kDimL}, TensorRole::kOutput},
  };
  return TensorOp(std::move(name), std::move(dims), std::move(tensors));
}

TensorOp TensorOp::batched_matmul(std::string name, Index batch, Index m, Index k, Index l,
                                  bool shared_weight) {
  std::vector<Dim> dims = {{"B", batch}, {"M", m}, {"K", k}, {"L", l}};
  constexpr int kB = 0, kM = 1, kK = 2, kL = 3;
  std::vector<TensorDecl> tensors;
  tensors.push_back({"A", {kB, kM, kK}, TensorRole::kInput});
  if (shared_weight) {
    tensors.push_back({"W", {kK, kL}, TensorRole::kInput});
  } else {
    tensors.push_back({"W", {kB, kK, kL}, TensorRole::kInput});
  }
  tensors.push_back({"C", {kB, kM, kL}, TensorRole::kOutput});
  return TensorOp(std::move(name), std::move(dims), std::move(tensors));
}

TensorOp fold_batch(const TensorOp& batched) {
  const int b = batched.find_dim("B");
  const int m = batched.find_dim("M");
  const int k = batched.find_dim("K");
  const int l = batched.find_dim("L");
  FCU_CHECK(batched.num_dims() == 4 && b >= 0 && m >= 0 && k >= 0 && l >= 0,
            "fold_batch expects a batched_matmul-shaped operator");
  const int w = batched.find_tensor("W");
  FCU_CHECK(w >= 0 && !batched.tensor_has_dim(w, b),
            "fold_batch requires a shared weight (per-slice weights cannot fold)");
  return TensorOp::matmul(batched.name() + ".folded", batched.extent(b) * batched.extent(m),
                          batched.extent(k), batched.extent(l), "A", "W", "C");
}

TensorOp TensorOp::elementwise(std::string name, Index m, Index l, std::string in_name,
                               std::string out_name, bool rowwise) {
  std::vector<Dim> dims = {{"M", m}, {"L", l}};
  std::vector<TensorDecl> tensors = {
      {std::move(in_name), {0, 1}, TensorRole::kInput},
      {std::move(out_name), {0, 1}, TensorRole::kOutput},
  };
  TensorOp op(std::move(name), std::move(dims), std::move(tensors));
  op.elementwise_ = true;
  op.rowwise_ = rowwise;
  return op;
}

TensorOp TensorOp::binary_elementwise(std::string name, Index m, Index l, std::string in_a,
                                      std::string in_b, std::string out_name) {
  std::vector<Dim> dims = {{"M", m}, {"L", l}};
  std::vector<TensorDecl> tensors = {
      {std::move(in_a), {0, 1}, TensorRole::kInput},
      {std::move(in_b), {0, 1}, TensorRole::kInput},
      {std::move(out_name), {0, 1}, TensorRole::kOutput},
  };
  TensorOp op(std::move(name), std::move(dims), std::move(tensors));
  op.elementwise_ = true;
  return op;
}

Index TensorOp::tensor_size(int t) const {
  Index size = 1;
  for (int d : tensor(t).dims) size *= extent(d);
  return size;
}

AccessCount TensorOp::ideal_min_access() const {
  AccessCount total = 0;
  for (int t = 0; t < num_tensors(); ++t) total += tensor_size(t);
  return total;
}

MacCount TensorOp::macs() const {
  MacCount macs = 1;
  for (const Dim& d : dims_) macs *= d.extent;
  return macs;
}

Index TensorOp::min_extent() const { return extent(min_extent_dim()); }

int TensorOp::min_extent_dim() const {
  int best = 0;
  for (int d = 1; d < num_dims(); ++d) {
    if (extent(d) < extent(best)) best = d;
  }
  return best;
}

int TensorOp::smallest_tensor() const {
  int best = 0;
  for (int t = 1; t < num_tensors(); ++t) {
    if (tensor_size(t) < tensor_size(best)) best = t;
  }
  return best;
}

bool TensorOp::tensor_has_dim(int t, int d) const {
  const auto& ds = tensor(t).dims;
  return std::find(ds.begin(), ds.end(), d) != ds.end();
}

bool TensorOp::is_reduction_dim(int d) const {
  FCU_CHECK(d >= 0 && d < num_dims(), "dimension index out of range");
  return !tensor_has_dim(output_index_, d);
}

int TensorOp::find_dim(const std::string& name) const {
  for (int d = 0; d < num_dims(); ++d) {
    if (dims_[static_cast<std::size_t>(d)].name == name) return d;
  }
  return -1;
}

int TensorOp::find_tensor(const std::string& name) const {
  for (int t = 0; t < num_tensors(); ++t) {
    if (tensors_[static_cast<std::size_t>(t)].name == name) return t;
  }
  return -1;
}

std::string TensorOp::to_string() const {
  std::ostringstream os;
  os << name_ << ": ";
  bool first_tensor = true;
  for (int t = 0; t < num_tensors(); ++t) {
    if (t == output_index_) continue;
    if (!first_tensor) os << " x ";
    first_tensor = false;
    os << tensor(t).name << "(";
    for (std::size_t i = 0; i < tensor(t).dims.size(); ++i) {
      int d = tensor(t).dims[i];
      os << (i ? "," : "") << dim(d).name << ":" << dim(d).extent;
    }
    os << ")";
  }
  os << " -> " << tensor(output_index_).name << "(";
  for (std::size_t i = 0; i < tensor(output_index_).dims.size(); ++i) {
    int d = tensor(output_index_).dims[i];
    os << (i ? "," : "") << dim(d).name << ":" << dim(d).extent;
  }
  os << ")";
  return os.str();
}

}  // namespace fusecu
