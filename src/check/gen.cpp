#include "check/gen.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace fusecu {

namespace {

/// Primes that stress divisor-grid searches: no factors to tile along.
constexpr Index kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                             43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89};

Index largest_pow2_at_most(Index v) {
  Index p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

/// \p prefix followed by the decimal \p i ("mm0", "X1").  Appends: GCC 12
/// misreports `"literal" + std::to_string(i)` under -Wrestrict.
std::string numbered(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

}  // namespace

Index gen_extent(Rng& rng, Index max_extent) {
  FCU_CHECK(max_extent >= 1, "gen_extent: max_extent must be positive");
  const double roll = rng.uniform01();
  if (roll < 0.10) return 1;
  if (roll < 0.25) {
    // A prime <= max_extent (fall back to uniform when none fits).
    std::vector<Index> fits;
    for (Index p : kPrimes) {
      if (p <= max_extent) fits.push_back(p);
    }
    if (!fits.empty()) return fits[rng.pick(fits.size())];
  }
  if (roll < 0.50) {
    const Index cap = largest_pow2_at_most(max_extent);
    Index p = 1;
    while (p < cap && rng.chance(0.5)) p *= 2;
    return p;
  }
  return rng.uniform(1, max_extent);
}

TensorOp gen_matmul(Rng& rng, const GenLimits& limits) {
  return TensorOp::matmul("gen", gen_extent(rng, limits.max_extent),
                          gen_extent(rng, limits.max_extent),
                          gen_extent(rng, limits.max_extent));
}

FusedPair gen_fused_pair(Rng& rng, const GenLimits& limits) {
  return FusedPair::make(gen_extent(rng, limits.max_extent), gen_extent(rng, limits.max_extent),
                         gen_extent(rng, limits.max_extent), gen_extent(rng, limits.max_extent));
}

BufferSize gen_buffer_size(Rng& rng, const TensorOp& op) {
  const Index dmin = op.min_extent();
  const Index tmin = op.tensor_size(op.smallest_tensor());
  const BufferSize b1 = dmin * dmin / 4;   // tiny/small shift
  const BufferSize b2 = dmin * dmin / 2;   // small/medium shift
  const BufferSize b3 = tmin;              // medium/large shift
  BufferSize full_fit = 0;                 // everything resident at once
  for (int t = 0; t < op.num_tensors(); ++t) full_fit += op.tensor_size(t);

  const BufferSize floor = 3;  // minimal matmul working set
  BufferSize bs = floor;
  const double roll = rng.uniform01();
  if (roll < 0.25) {
    // Exactly on a classification boundary, or one element beside it.
    const BufferSize bounds[] = {b1, b2, b3};
    const BufferSize base = bounds[rng.pick(3)];
    const BufferSize offsets[] = {-1, 0, 1};
    bs = base + offsets[rng.pick(3)];
  } else if (roll < 0.85) {
    // Inside a uniformly chosen buffer-class band (skip empty bands).
    switch (rng.pick(4)) {
      case 0:  // tiny: [floor, b1]
        bs = b1 >= floor ? rng.uniform(floor, b1) : floor;
        break;
      case 1:  // small: (b1, b2]
        bs = b2 > b1 ? rng.uniform(b1 + 1, b2) : b2;
        break;
      case 2:  // medium: (b2, b3]
        bs = b3 > b2 ? rng.uniform(b2 + 1, b3) : b3;
        break;
      default:  // large: (b3, 2*full_fit]
        bs = rng.uniform(b3 + 1, std::max<BufferSize>(b3 + 1, 2 * full_fit));
        break;
    }
  } else {
    // Unconstrained draw across the whole range.
    bs = rng.uniform(floor, std::max<BufferSize>(floor, 2 * full_fit));
  }
  return std::max(bs, floor);
}

ArchSpec gen_arch_spec(Rng& rng) {
  std::vector<ArchSpec> platforms = all_platforms();
  ArchSpec arch = platforms[rng.pick(platforms.size())];
  // Randomize the buffer across three orders of magnitude so the
  // arch-constrained optimizer sees every regime too.
  const std::int64_t kb = rng.uniform(16, 16 * 1024);
  arch.buffer_bytes = kb * 1024;
  return arch;
}

OperatorGraph ChainSpec::direct() const {
  FCU_CHECK(num_ops() >= 1, "chain needs at least one op");
  OperatorGraph graph;
  std::string prev = "X0";
  for (int i = 0; i < num_ops(); ++i) {
    const std::string out = numbered("X", i + 1);
    graph.add_op(TensorOp::matmul(numbered("mm", i), m, dims[static_cast<std::size_t>(i)],
                                  dims[static_cast<std::size_t>(i) + 1], prev,
                                  numbered("W", i), out));
    prev = out;
  }
  return graph;
}

OperatorGraph ChainSpec::with_elementwise() const {
  FCU_CHECK(num_ops() >= 1, "chain needs at least one op");
  OperatorGraph graph;
  std::string prev = "X0";
  for (int i = 0; i < num_ops(); ++i) {
    const std::string out = numbered("X", i + 1);
    graph.add_op(TensorOp::matmul(numbered("mm", i), m, dims[static_cast<std::size_t>(i)],
                                  dims[static_cast<std::size_t>(i) + 1], prev,
                                  numbered("W", i), out));
    prev = out;
    if (i + 1 < num_ops() && i < static_cast<int>(act_after.size()) &&
        act_after[static_cast<std::size_t>(i)]) {
      const std::string acted = out + "_act";
      graph.add_op(TensorOp::elementwise(numbered("act", i), m,
                                         dims[static_cast<std::size_t>(i) + 1], out, acted));
      prev = acted;
    }
  }
  return graph;
}

TensorOp Workload::intra_op() const {
  FCU_CHECK(kind != WorkloadKind::kChain, "chain workloads have no single op");
  return TensorOp::matmul("wl", m, k, l);
}

FusedPair Workload::fused_pair() const {
  FCU_CHECK(kind == WorkloadKind::kFused, "not a fused workload");
  return FusedPair::make(m, k, l, n);
}

std::string Workload::to_string() const {
  std::ostringstream os;
  os << fusecu::to_string(kind) << "{";
  switch (kind) {
    case WorkloadKind::kIntra:
      os << "m=" << m << " k=" << k << " l=" << l;
      break;
    case WorkloadKind::kFused:
      os << "m=" << m << " k=" << k << " l=" << l << " n=" << n;
      break;
    case WorkloadKind::kChain: {
      os << "m=" << chain.m << " dims=[";
      for (std::size_t i = 0; i < chain.dims.size(); ++i) {
        if (i) os << ",";
        os << chain.dims[i];
      }
      os << "] acts=[";
      for (std::size_t i = 0; i < chain.act_after.size(); ++i) {
        if (i) os << ",";
        os << (chain.act_after[i] ? 1 : 0);
      }
      os << "]";
      break;
    }
  }
  os << " bs=" << bs << " seed=" << seed << "}";
  return os.str();
}

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kIntra:
      return "intra";
    case WorkloadKind::kFused:
      return "fused";
    case WorkloadKind::kChain:
      return "chain";
  }
  return "?";
}

Workload gen_workload_of(WorkloadKind kind, Rng& rng, const GenLimits& limits) {
  Workload w;
  w.kind = kind;
  switch (kind) {
    case WorkloadKind::kIntra: {
      w.m = gen_extent(rng, limits.max_extent);
      w.k = gen_extent(rng, limits.max_extent);
      w.l = gen_extent(rng, limits.max_extent);
      w.bs = gen_buffer_size(rng, w.intra_op());
      break;
    }
    case WorkloadKind::kFused: {
      w.m = gen_extent(rng, limits.max_extent);
      w.k = gen_extent(rng, limits.max_extent);
      w.l = gen_extent(rng, limits.max_extent);
      w.n = gen_extent(rng, limits.max_extent);
      // Size the buffer against the producer, scaled up occasionally so the
      // resident-intermediate family is reachable.
      w.bs = gen_buffer_size(rng, w.intra_op());
      if (rng.chance(0.3)) w.bs += w.m * w.l + 2;  // room for resident C
      break;
    }
    case WorkloadKind::kChain: {
      const int ops = static_cast<int>(rng.uniform(2, limits.max_chain_ops));
      w.chain.m = gen_extent(rng, limits.max_chain_extent);
      w.chain.dims.clear();
      for (int i = 0; i <= ops; ++i) {
        w.chain.dims.push_back(gen_extent(rng, limits.max_chain_extent));
      }
      w.chain.act_after.clear();
      for (int i = 0; i + 1 < ops; ++i) w.chain.act_after.push_back(rng.chance(0.6));
      TensorOp first = w.chain.direct().op(0);
      w.bs = gen_buffer_size(rng, first);
      break;
    }
  }
  return w;
}

Workload gen_workload(Rng& rng, const GenLimits& limits) {
  const double roll = rng.uniform01();
  WorkloadKind kind = WorkloadKind::kIntra;
  if (roll >= 0.60 && roll < 0.85) {
    kind = WorkloadKind::kFused;
  } else if (roll >= 0.85) {
    kind = WorkloadKind::kChain;
  }
  return gen_workload_of(kind, rng, limits);
}

}  // namespace fusecu
