#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/buffer_class.hpp"
#include "principles/principle_optimizer.hpp"

/// \file conformance.hpp
/// Differential conformance checks: every generated workload is pushed
/// through every independent implementation of the same quantity and the
/// answers are cross-checked.  The oracle hierarchy, weakest to strongest:
///
///   1. closed-form floors — no dataflow may beat max(ideal once-each MA,
///      the Dinh–Demmel-style tiling bound 2*MKL/sqrt(BS));
///   2. exhaustive search (src/search/exhaustive) — ground truth over the
///      full loop-order x tile grid; the principled one-shot optimum must
///      match or beat it (the paper's central claim);
///   3. the functional simulator (src/sim/tiled_executor) — executes a
///      schedule tile by tile and *counts* boundary traffic; the analytical
///      access model must agree exactly, per tensor;
///   4. the serving path (src/serve) — a request planned through
///      PlanService::plan, which spells its key and runs the record core as
///      a served line does, must be byte-identical to direct optimization,
///      cold and cached, and so must its transposed request.
///
/// All checks are sound (no false positives): each inequality is a theorem
/// of the access model, each equality a documented contract.  A failure is
/// therefore always a bug — in the optimizer, the model, the simulator, the
/// cache, or the check itself.

namespace fusecu {

/// One detected oracle disagreement.
struct CheckFailure {
  std::string check;   ///< stable identifier, e.g. "intra/opt_vs_exhaustive"
  std::string detail;  ///< human-readable mismatch description
};

/// Outcome of checking one workload.
struct CheckReport {
  std::vector<CheckFailure> failures;
  int checks_run = 0;
  std::optional<BufferClass> buffer_class;  ///< primary op's regime

  bool ok() const { return failures.empty(); }
  /// True when some failure carries the given check id.
  bool has_failure(const std::string& check) const;
  std::string summary() const;
};

/// Knobs for the expensive cross-checks.
struct CheckOptions {
  bool with_executor = true;  ///< functional-simulator traffic cross-check
  bool with_serve = true;     ///< serve-path byte-identity cross-check
  bool with_arch = true;      ///< arch-constrained optimizer determinism
  Index array_n = 8;          ///< simulated systolic array edge
  /// Skip simulator runs whose tile-visit count exceeds this (keeps a trial
  /// in the low milliseconds; skipped runs are counted in the metrics).
  Index max_tile_visits = 2000;
  /// Test seam: mutates the principled intra result before cross-checking.
  /// Used to verify the harness *detects* injected optimizer bugs; never set
  /// in production runs.
  std::function<void(const TensorOp&, IntraOptResult&)> intra_mutator;
};

/// Sound floor for a fused pair: every external tensor at least once.
/// (The intra floor, intra_traffic_lower_bound, lives in
/// dataflow/access_model.hpp — the pruned exhaustive search shares it.)
AccessCount fused_traffic_lower_bound(const FusedPair& pair);

/// Canonical byte-comparison forms used by the serve-identity checks.
std::string intra_plan_signature(const IntraOptResult& r);
std::string fused_plan_signature(const std::optional<FusedOptResult>& r);

/// Run every applicable check for \p w — core checks first, serve checks
/// last.  The serve checks use a private PlanService, so calls may run
/// concurrently as long as \p opts.intra_mutator (when set) is thread-safe.
/// Updates the "check/..." counters in the global metrics registry (trials,
/// per-regime coverage, failures).
CheckReport check_workload(const Workload& w, const CheckOptions& opts = {});

}  // namespace fusecu
