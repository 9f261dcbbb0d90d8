#include "search/annealing.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

std::optional<IntraSearchResult> sa_intra(const TensorOp& op, BufferSize bs,
                                          const SaParams& params, std::uint64_t seed) {
  FCU_CHECK(op.num_dims() == 3, "sa_intra currently targets 3-dim operators");
  FCU_CHECK(params.iterations >= 1 && params.cooling > 0.0 && params.cooling < 1.0,
            "invalid annealing parameters");
  ScopedSpan span("sa_intra", FCU_HISTOGRAM("time/sa_intra"));
  std::int64_t evaluations = 0;
  std::int64_t accepted = 0;
  Rng rng(seed);

  std::vector<std::vector<Index>> ladder;
  for (int d = 0; d < 3; ++d) ladder.push_back(tile_candidates(op.extent(d)));

  struct State {
    std::vector<int> order;
    std::vector<int> tile_idx;  // index into the per-dim ladder
  };
  auto decode = [&](const State& s) {
    Dataflow df;
    df.loop_order = s.order;
    df.tile = {ladder[0][static_cast<std::size_t>(s.tile_idx[0])],
               ladder[1][static_cast<std::size_t>(s.tile_idx[1])],
               ladder[2][static_cast<std::size_t>(s.tile_idx[2])]};
    return df;
  };
  auto cost = [&](const State& s) -> std::optional<AccessCount> {
    Dataflow df = decode(s);
    if (df.buffer_footprint(op) > bs) return std::nullopt;
    ++evaluations;
    return evaluate_access(op, df).total;
  };

  // Feasible start: unit tiles always fit when three elements do.
  State current{{0, 1, 2}, {0, 0, 0}};
  std::optional<AccessCount> current_cost = cost(current);
  if (!current_cost) return std::nullopt;

  State best = current;
  AccessCount best_cost = *current_cost;
  double temperature = params.initial_temperature * static_cast<double>(best_cost);

  for (int it = 0; it < params.iterations; ++it) {
    State next = current;
    if (rng.chance(0.3)) {
      // Swap two loop levels.
      const std::size_t a = rng.pick(3), b = rng.pick(3);
      std::swap(next.order[a], next.order[b]);
    } else {
      // Step one tile along its ladder.
      const std::size_t d = rng.pick(3);
      const int step = rng.chance(0.5) ? 1 : -1;
      const int max_idx = static_cast<int>(ladder[d].size()) - 1;
      next.tile_idx[d] = clamp_index(next.tile_idx[d] + step, 0, max_idx);
    }
    std::optional<AccessCount> next_cost = cost(next);
    if (!next_cost) continue;  // infeasible neighbor: stay

    const double delta = static_cast<double>(*next_cost - *current_cost);
    if (delta <= 0.0 || rng.uniform01() < std::exp(-delta / std::max(temperature, 1.0))) {
      ++accepted;
      current = std::move(next);
      current_cost = next_cost;
      if (*current_cost < best_cost) {
        best = current;
        best_cost = *current_cost;
      }
    }
    temperature *= params.cooling;
  }

  FCU_COUNTER("search/sa_intra/calls").add();
  FCU_COUNTER("search/sa_intra/iterations").add(params.iterations);
  FCU_COUNTER("search/sa_intra/accepted_moves").add(accepted);
  FCU_COUNTER("search/sa_intra/evaluations").add(evaluations);
  const double elapsed = span.elapsed_seconds();
  if (elapsed > 0.0) {
    FCU_GAUGE("search/sa_intra/evaluations_per_sec")
        .set(static_cast<double>(evaluations) / elapsed);
  }
  Dataflow df = decode(best);
  return IntraSearchResult{df, evaluate_access(op, df)};
}

}  // namespace fusecu
