#include "check/repro.hpp"


#include "common/check.hpp"
#include "common/json_parse.hpp"
#include "common/json_writer.hpp"

namespace fusecu {

namespace {

constexpr int kSchemaVersion = 1;

void write_workload(JsonWriter& jw, const Workload& w) {
  jw.begin_object();
  jw.field("kind", to_string(w.kind));
  jw.field("seed", static_cast<std::int64_t>(w.seed));
  jw.field("bs", w.bs);
  switch (w.kind) {
    case WorkloadKind::kIntra:
      jw.field("m", w.m);
      jw.field("k", w.k);
      jw.field("l", w.l);
      break;
    case WorkloadKind::kFused:
      jw.field("m", w.m);
      jw.field("k", w.k);
      jw.field("l", w.l);
      jw.field("n", w.n);
      break;
    case WorkloadKind::kChain:
      jw.field("m", w.chain.m);
      jw.key("dims");
      jw.begin_array();
      for (Index d : w.chain.dims) jw.value(d);
      jw.end_array();
      jw.key("act_after");
      jw.begin_array();
      for (bool b : w.chain.act_after) jw.value(b);
      jw.end_array();
      break;
  }
  jw.end_object();
}

Index number_field(const JsonValuePtr& obj, const std::string& key) {
  JsonValuePtr v = obj->get(key);
  FCU_CHECK(v != nullptr && v->is_number(), "repro: missing numeric field '" + key + "'");
  return static_cast<Index>(v->as_number());
}

Workload parse_workload(const JsonValuePtr& obj) {
  FCU_CHECK(obj != nullptr && obj->is_object(), "repro: workload must be an object");
  JsonValuePtr kind = obj->get("kind");
  FCU_CHECK(kind != nullptr && kind->is_string(), "repro: missing workload kind");

  Workload w;
  w.seed = static_cast<std::uint64_t>(number_field(obj, "seed"));
  w.bs = number_field(obj, "bs");
  const std::string& k = kind->as_string();
  if (k == "intra" || k == "fused") {
    w.kind = k == "intra" ? WorkloadKind::kIntra : WorkloadKind::kFused;
    w.m = number_field(obj, "m");
    w.k = number_field(obj, "k");
    w.l = number_field(obj, "l");
    if (w.kind == WorkloadKind::kFused) w.n = number_field(obj, "n");
  } else if (k == "chain") {
    w.kind = WorkloadKind::kChain;
    w.chain.m = number_field(obj, "m");
    JsonValuePtr dims = obj->get("dims");
    FCU_CHECK(dims != nullptr && dims->is_array(), "repro: chain needs a dims array");
    for (const JsonValuePtr& d : dims->as_array()) {
      FCU_CHECK(d->is_number(), "repro: chain dims must be numbers");
      w.chain.dims.push_back(static_cast<Index>(d->as_number()));
    }
    FCU_CHECK(w.chain.num_ops() >= 1, "repro: chain needs at least two dims");
    if (JsonValuePtr acts = obj->get("act_after")) {
      FCU_CHECK(acts->is_array(), "repro: act_after must be an array");
      for (const JsonValuePtr& a : acts->as_array()) {
        FCU_CHECK(a->is_bool(), "repro: act_after entries must be booleans");
        w.chain.act_after.push_back(a->as_bool());
      }
    }
  } else {
    FCU_CHECK(false, "repro: unknown workload kind '" + k + "'");
  }
  return w;
}

}  // namespace

std::string repro_to_json(const Repro& repro) {
  std::string out;
  {
    JsonWriter jw(out);
    jw.begin_object();
    jw.field("schema", kSchemaVersion);
    jw.field("tool", repro.tool_version);
    jw.key("original");
    write_workload(jw, repro.original);
    jw.key("shrunk");
    write_workload(jw, repro.shrunk);
    jw.key("failures");
    jw.begin_array();
    for (const CheckFailure& f : repro.failures) {
      jw.begin_object();
      jw.field("check", f.check);
      jw.field("detail", f.detail);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  return out;
}

Repro repro_from_json(const std::string& text, const std::string& source) {
  JsonValuePtr root = parse_json(text, source);
  FCU_CHECK(root->is_object(), "repro: root must be an object");
  FCU_CHECK(root->has("schema") && root->get("schema")->is_number() &&
                static_cast<int>(root->get("schema")->as_number()) == kSchemaVersion,
            "repro: unsupported schema version");

  Repro repro;
  if (JsonValuePtr tool = root->get("tool"); tool && tool->is_string()) {
    repro.tool_version = tool->as_string();
  }
  repro.original = parse_workload(root->get("original"));
  repro.shrunk = root->has("shrunk") ? parse_workload(root->get("shrunk")) : repro.original;
  if (JsonValuePtr failures = root->get("failures"); failures && failures->is_array()) {
    for (const JsonValuePtr& f : failures->as_array()) {
      FCU_CHECK(f->is_object(), "repro: failure entries must be objects");
      CheckFailure cf;
      if (JsonValuePtr c = f->get("check"); c && c->is_string()) cf.check = c->as_string();
      if (JsonValuePtr d = f->get("detail"); d && d->is_string()) cf.detail = d->as_string();
      repro.failures.push_back(std::move(cf));
    }
  }
  return repro;
}

}  // namespace fusecu
