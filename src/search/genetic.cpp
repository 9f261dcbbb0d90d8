#include "search/genetic.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

constexpr AccessCount kInfeasible = std::numeric_limits<AccessCount>::max() / 4;

const std::vector<std::vector<int>>& all_orders3() {
  static const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  return orders;
}

/// Integer genome: gene[0] = loop-order id; gene[1..] = indices into the
/// per-dimension tile-candidate ladders.
struct Genome {
  std::vector<int> genes;
};

/// Generic steady-state GA: the caller provides genome arity, per-gene
/// cardinality and a fitness functional (lower is better).
template <typename FitnessFn>
Genome run_ga(const std::vector<int>& cardinality, FitnessFn fitness, const GaParams& params,
              Rng& rng) {
  const auto arity = cardinality.size();
  auto random_genome = [&] {
    Genome g;
    g.genes.reserve(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      g.genes.push_back(static_cast<int>(rng.pick(static_cast<std::size_t>(cardinality[i]))));
    }
    return g;
  };

  std::vector<Genome> pop;
  std::vector<AccessCount> fit;
  pop.reserve(static_cast<std::size_t>(params.population));
  for (int i = 0; i < params.population; ++i) pop.push_back(random_genome());
  fit.resize(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) fit[i] = fitness(pop[i]);

  auto tournament_pick = [&]() -> std::size_t {
    std::size_t best = rng.pick(pop.size());
    for (int t = 1; t < params.tournament; ++t) {
      std::size_t c = rng.pick(pop.size());
      if (fit[c] < fit[best]) best = c;
    }
    return best;
  };

  Genome global_best = pop[0];
  AccessCount global_fit = fit[0];
  for (std::size_t i = 1; i < pop.size(); ++i) {
    if (fit[i] < global_fit) {
      global_best = pop[i];
      global_fit = fit[i];
    }
  }

  for (int gen = 0; gen < params.generations; ++gen) {
    std::vector<std::size_t> rank(pop.size());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) { return fit[a] < fit[b]; });

    std::vector<Genome> next;
    next.reserve(pop.size());
    for (int e = 0; e < params.elite && e < static_cast<int>(pop.size()); ++e) {
      next.push_back(pop[rank[static_cast<std::size_t>(e)]]);
    }
    while (next.size() < pop.size()) {
      Genome child = pop[tournament_pick()];
      if (rng.chance(params.crossover_rate)) {
        const Genome& other = pop[tournament_pick()];
        for (std::size_t i = 0; i < arity; ++i) {
          if (rng.chance(0.5)) child.genes[i] = other.genes[i];
        }
      }
      for (std::size_t i = 0; i < arity; ++i) {
        if (rng.chance(params.mutation_rate)) {
          child.genes[i] = static_cast<int>(rng.pick(static_cast<std::size_t>(cardinality[i])));
        }
      }
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    for (std::size_t i = 0; i < pop.size(); ++i) {
      fit[i] = fitness(pop[i]);
      if (fit[i] < global_fit) {
        global_fit = fit[i];
        global_best = pop[i];
      }
    }
  }
  return global_best;
}

}  // namespace

std::optional<IntraSearchResult> ga_intra(const TensorOp& op, BufferSize bs,
                                          const GaParams& params, std::uint64_t seed) {
  FCU_CHECK(op.num_dims() == 3, "ga_intra currently targets 3-dim operators");
  ScopedSpan span("ga_intra", FCU_HISTOGRAM("time/ga_intra"));
  std::int64_t evaluations = 0;
  Rng rng(seed);
  std::vector<std::vector<Index>> cands;
  for (int d = 0; d < 3; ++d) cands.push_back(tile_candidates(op.extent(d)));

  std::vector<int> cardinality = {6, static_cast<int>(cands[0].size()),
                                  static_cast<int>(cands[1].size()),
                                  static_cast<int>(cands[2].size())};
  auto decode = [&](const Genome& g) {
    Dataflow df;
    df.loop_order = all_orders3()[static_cast<std::size_t>(g.genes[0])];
    df.tile = {cands[0][static_cast<std::size_t>(g.genes[1])],
               cands[1][static_cast<std::size_t>(g.genes[2])],
               cands[2][static_cast<std::size_t>(g.genes[3])]};
    return df;
  };
  auto fitness = [&](const Genome& g) -> AccessCount {
    ++evaluations;
    Dataflow df = decode(g);
    if (df.buffer_footprint(op) > bs) return kInfeasible;
    return evaluate_access(op, df).total;
  };

  Genome best = run_ga(cardinality, fitness, params, rng);
  FCU_COUNTER("search/ga_intra/calls").add();
  FCU_COUNTER("search/ga_intra/generations").add(params.generations);
  FCU_COUNTER("search/ga_intra/evaluations").add(evaluations);
  const double elapsed = span.elapsed_seconds();
  if (elapsed > 0.0) {
    FCU_GAUGE("search/ga_intra/evaluations_per_sec")
        .set(static_cast<double>(evaluations) / elapsed);
  }
  if (fitness(best) >= kInfeasible) return std::nullopt;
  Dataflow df = decode(best);
  return IntraSearchResult{df, evaluate_access(op, df)};
}

std::optional<FusedSearchResult> ga_fused(const FusedPair& pair, BufferSize bs,
                                          const GaParams& params, std::uint64_t seed) {
  ScopedSpan span("ga_fused", FCU_HISTOGRAM("time/ga_fused"));
  Rng rng(seed);
  const std::vector<Index> cm = tile_candidates(pair.m());
  const std::vector<Index> ck = tile_candidates(pair.k());
  const std::vector<Index> cl = tile_candidates(pair.l());
  const std::vector<Index> cn = tile_candidates(pair.n());

  std::vector<int> cardinality = {2, static_cast<int>(cm.size()), static_cast<int>(ck.size()),
                                  static_cast<int>(cl.size()), static_cast<int>(cn.size())};
  auto decode = [&](const Genome& g) {
    PhasedFusedDataflow df;
    df.l_outer = g.genes[0] == 1;
    df.t_m = cm[static_cast<std::size_t>(g.genes[1])];
    df.t_k = ck[static_cast<std::size_t>(g.genes[2])];
    df.t_l = cl[static_cast<std::size_t>(g.genes[3])];
    df.t_n = cn[static_cast<std::size_t>(g.genes[4])];
    return df;
  };
  auto fitness = [&](const Genome& g) -> AccessCount {
    FusedAccess a = evaluate_phased(pair, decode(g));
    return a.buffer_footprint > bs ? kInfeasible : a.total;
  };

  Genome best_genome = run_ga(cardinality, fitness, params, rng);
  std::optional<FusedSearchResult> best;
  if (fitness(best_genome) < kInfeasible) {
    PhasedFusedDataflow df = decode(best_genome);
    best = FusedSearchResult{df, std::nullopt, evaluate_phased(pair, df)};
  }

  // Resident family: the two sides decouple, so run an intra-style GA per
  // side against the residual budget.
  const BufferSize residual = bs - pair.intermediate_size();
  if (residual >= 2) {
    auto side = [&](const TensorOp& op, int exclude, std::uint64_t salt) -> std::optional<Dataflow> {
      Rng side_rng(seed ^ salt);
      std::vector<std::vector<Index>> cands;
      for (int d = 0; d < 3; ++d) cands.push_back(tile_candidates(op.extent(d)));
      std::vector<int> card = {6, static_cast<int>(cands[0].size()),
                               static_cast<int>(cands[1].size()),
                               static_cast<int>(cands[2].size())};
      auto dec = [&](const Genome& g) {
        Dataflow df;
        df.loop_order = all_orders3()[static_cast<std::size_t>(g.genes[0])];
        df.tile = {cands[0][static_cast<std::size_t>(g.genes[1])],
                   cands[1][static_cast<std::size_t>(g.genes[2])],
                   cands[2][static_cast<std::size_t>(g.genes[3])]};
        return df;
      };
      auto fit = [&](const Genome& g) -> AccessCount {
        Dataflow df = dec(g);
        Index fp = 0;
        for (int t = 0; t < 3; ++t) {
          if (t != exclude) fp += df.tensor_tile_size(op, t);
        }
        if (fp > residual) return kInfeasible;
        AccessBreakdown b = evaluate_access(op, df);
        return b.total - b.per_tensor[static_cast<std::size_t>(exclude)];
      };
      Genome g = run_ga(card, fit, params, side_rng);
      if (fit(g) >= kInfeasible) return std::nullopt;
      return dec(g);
    };
    std::optional<Dataflow> df1 = side(pair.op1(), mm::kTensorC, 0x9e3779b97f4a7c15ull);
    std::optional<Dataflow> df2 = side(pair.op2(), 0, 0xc2b2ae3d27d4eb4full);
    if (df1 && df2) {
      ResidentFusedDataflow rf{*df1, *df2};
      FusedAccess a = evaluate_resident(pair, rf);
      if (a.buffer_footprint <= bs && (!best || a.total < best->access.total)) {
        best = FusedSearchResult{std::nullopt, rf, a};
      }
    }
  }
  FCU_COUNTER("search/ga_fused/calls").add();
  FCU_COUNTER("search/ga_fused/generations").add(params.generations);
  return best;
}

}  // namespace fusecu
