#include "dataflow/dataflow.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace fusecu {

Index Dataflow::trips(const TensorOp& op, int d) const {
  return ceil_div(op.extent(d), tile.at(static_cast<std::size_t>(d)));
}

bool Dataflow::untiled(const TensorOp& op, int d) const {
  return tile.at(static_cast<std::size_t>(d)) >= op.extent(d);
}

Index Dataflow::tensor_tile_size(const TensorOp& op, int t) const {
  Index size = 1;
  for (int d : op.tensor(t).dims) {
    size *= std::min(tile.at(static_cast<std::size_t>(d)), op.extent(d));
  }
  return size;
}

Index Dataflow::buffer_footprint(const TensorOp& op) const {
  Index total = 0;
  for (int t = 0; t < op.num_tensors(); ++t) total += tensor_tile_size(op, t);
  return total;
}

std::string Dataflow::to_string(const TensorOp& op) const {
  std::ostringstream os;
  os << "order=[";
  for (std::size_t i = 0; i < loop_order.size(); ++i) {
    os << (i ? "," : "") << op.dim(loop_order[i]).name;
  }
  os << "] tiles{";
  for (int d = 0; d < op.num_dims(); ++d) {
    os << (d ? "," : "") << op.dim(d).name << ":" << tile[static_cast<std::size_t>(d)];
  }
  os << "}";
  return os.str();
}

void validate_dataflow(const TensorOp& op, const Dataflow& df) { validate_dataflow(op.dims(), df); }

void validate_dataflow(std::span<const Dim> dims, const Dataflow& df) {
  const std::size_t n = dims.size();
  FCU_CHECK(df.loop_order.size() == n, "loop order arity must match op dims");
  FCU_CHECK(df.tile.size() == n, "tile arity must match op dims");
  std::vector<bool> seen(n, false);
  for (int d : df.loop_order) {
    FCU_CHECK(d >= 0 && static_cast<std::size_t>(d) < n, "loop order references unknown dim");
    FCU_CHECK(!seen[static_cast<std::size_t>(d)], "loop order repeats a dim");
    seen[static_cast<std::size_t>(d)] = true;
  }
  for (std::size_t d = 0; d < n; ++d) {
    const Index t = df.tile[d];
    FCU_CHECK(t >= 1 && t <= dims[d].extent, "tile size out of range for dim " + dims[d].name);
  }
}

Dataflow make_dataflow(const TensorOp& op, const std::vector<std::string>& order,
                       const std::vector<std::pair<std::string, Index>>& tiles) {
  Dataflow df;
  df.tile.assign(static_cast<std::size_t>(op.num_dims()), 1);
  for (const std::string& name : order) {
    int d = op.find_dim(name);
    FCU_CHECK(d >= 0, "unknown dimension name: " + name);
    df.loop_order.push_back(d);
  }
  for (const auto& [name, size] : tiles) {
    int d = op.find_dim(name);
    FCU_CHECK(d >= 0, "unknown dimension name: " + name);
    df.tile[static_cast<std::size_t>(d)] = size;
  }
  validate_dataflow(op, df);
  return df;
}

}  // namespace fusecu
