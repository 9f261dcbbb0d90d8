#include "workloads/report.hpp"

#include "common/json_writer.hpp"

namespace fusecu {

void write_evaluation_csv(std::ostream& os, const std::vector<ModelEval>& evals) {
  os << "model,platform,access,cycles,macs,fused_pairs,utilization,energy_pj,"
        "movement_fraction\n";
  for (const ModelEval& e : evals) {
    os << e.model << ',' << e.platform << ',' << e.access << ',' << e.cycles << ',' << e.macs
       << ',' << e.fused_pairs << ',' << e.utilization << ',' << e.energy_pj << ','
       << e.energy_movement_fraction << '\n';
  }
}

void write_evaluation_json(std::ostream& os, const std::vector<ModelEval>& evals) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  for (const ModelEval& e : evals) {
    w.begin_object();
    w.field("model", e.model);
    w.field("platform", e.platform);
    w.field("access", static_cast<std::int64_t>(e.access));
    w.field("cycles", static_cast<std::int64_t>(e.cycles));
    w.field("macs", static_cast<std::int64_t>(e.macs));
    w.field("fused_pairs", e.fused_pairs);
    w.field("utilization", e.utilization);
    w.field("energy_pj", e.energy_pj);
    w.field("movement_fraction", e.energy_movement_fraction);
    w.end_object();
  }
  w.end_array();
  out.push_back('\n');
  os << out;
}

}  // namespace fusecu
