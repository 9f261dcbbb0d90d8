#include "serve/plan_request.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/parse_error.hpp"

namespace fusecu {

namespace {

/// 2^63, the first double past the Index range.  Every conversion below
/// range-checks the double before it casts.
constexpr double kIndexLimit = 9223372036854775808.0;

bool is_positive_index(double d) { return d >= 1 && d < kIndexLimit && d == std::floor(d); }

/// A numeric "buffer" as bytes; anything outside [1, 2^63) becomes 0, which
/// the caller rejects as not positive.
std::int64_t buffer_bytes(double d) {
  return d >= 1 && d < kIndexLimit ? static_cast<std::int64_t>(d) : 0;
}

/// The largest product of a request's extents the planner may form: the
/// closed forms sum a few such products (access totals up to 3 m k l, or
/// 2 m l (k + n) for a fused pair; the full-fit sum; the two-tile probe's
/// 4 bs + (c1 + c2)^2 with c up to k + n), and each sum must stay below 2^63.
constexpr Index kPlanLimit = Index{1} << 59;

/// a * b for a, b >= 1, or kPlanLimit + 1 once the product passes kPlanLimit.
Index capped_mul(Index a, Index b) { return a > kPlanLimit / b ? kPlanLimit + 1 : a * b; }

Index require_index(const JsonValue& doc, const std::string& field) {
  JsonValuePtr v = doc.get(field);
  FCU_CHECK(v != nullptr, "request is missing required field \"" + field + "\"");
  FCU_CHECK(v->is_number(), "request field \"" + field + "\" must be a number");
  const double d = v->as_number();
  FCU_CHECK(is_positive_index(d), "request field \"" + field + "\" must be a positive integer");
  return static_cast<Index>(d);
}

Index optional_index(const JsonValue& doc, const std::string& field, Index fallback) {
  if (!doc.has(field)) return fallback;
  return require_index(doc, field);
}

/// The request members the decoder reads, in the order of kFieldNames.
enum Field { kId, kOp, kM, kK, kL, kN, kBatch, kSharedWeight, kBufferElems, kBuffer, kElemBytes,
             kFieldCount };

constexpr std::string_view kFieldNames[kFieldCount] = {
    "id", "op", "m", "k", "l", "n", "batch", "shared_weight", "buffer_elems", "buffer",
    "elem_bytes"};

/// The last value of one top-level member, as views into the line.
struct Member {
  bool present = false;
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  bool boolean = false;
  JsonNumber number;
  JsonString text;
};

/// The typed sink: keeps the last value of each known top-level member of
/// the request object and skips everything else, then applies the field
/// rules once the walk has validated the whole line.  The rules and their
/// messages are plan_request_from_json's, in the same order.
class RequestDecoder final : public JsonSink {
 public:
  void null_value() override { set(JsonValue::Kind::kNull); }
  void bool_value(bool b) override {
    if (Member* m = set(JsonValue::Kind::kBool)) m->boolean = b;
  }
  void number_value(const JsonNumber& n) override {
    if (Member* m = set(JsonValue::Kind::kNumber)) m->number = n;
  }
  void string_value(const JsonString& s) override {
    if (Member* m = set(JsonValue::Kind::kString)) m->text = s;
  }
  void begin_object() override {
    if (depth_ == 0) is_object_ = true;
    set(JsonValue::Kind::kObject);
    ++depth_;
  }
  void key(const JsonString& k) override {
    if (depth_ == 1) current_ = match(k);
  }
  void end_object() override { --depth_; }
  void begin_array() override {
    set(JsonValue::Kind::kArray);
    ++depth_;
  }
  void end_array() override { --depth_; }

  /// Fill every field of \p req (its id keeps its capacity).
  void fill(PlanRequest& req) const {
    FCU_CHECK(is_object_, "request must be a JSON object");
    req.id.clear();
    req.kind = PlanRequest::Kind::kMatmul;
    req.n = 0;
    req.batch = 1;
    if (const Member& id = members_[kId]; id.present) {
      FCU_CHECK(id.kind == JsonValue::Kind::kString, "request field \"id\" must be a string");
      id.text.append_to(req.id);
    }
    if (const Member& op = members_[kOp]; op.present) {
      FCU_CHECK(op.kind == JsonValue::Kind::kString, "request field \"op\" must be a string");
      if (op.text.equals("fused_pair")) {
        req.kind = PlanRequest::Kind::kFusedPair;
      } else {
        FCU_CHECK(op.text.equals("matmul"),
                  "request field \"op\" must be \"matmul\" or \"fused_pair\", got \"" +
                      op.text.str() + "\"");
      }
    }

    req.m = index(kM);
    req.k = index(kK);
    req.l = index(kL);
    if (req.kind == PlanRequest::Kind::kFusedPair) {
      req.n = index(kN);
      FCU_CHECK(!members_[kBatch].present, "fused_pair requests do not take \"batch\"");
    } else {
      if (members_[kBatch].present) req.batch = index(kBatch);
      if (const Member& sw = members_[kSharedWeight]; sw.present) {
        FCU_CHECK(sw.kind == JsonValue::Kind::kBool,
                  "request field \"shared_weight\" must be a boolean");
        FCU_CHECK(sw.boolean || req.batch == 1,
                  "per-slice-weight batched matmuls cannot be folded; "
                  "plan the slices as individual requests");
      }
    }

    if (const Member& be = members_[kBufferElems]; be.present) {
      const double d = be.kind == JsonValue::Kind::kNumber ? be.number.value() : 0;
      FCU_CHECK(d >= 1 && d < kIndexLimit,
                "request field \"buffer_elems\" must be a positive number");
      req.buffer_elems = static_cast<BufferSize>(d);
    } else if (const Member& b = members_[kBuffer]; b.present) {
      std::int64_t bytes = 0;
      if (b.kind == JsonValue::Kind::kString) {
        bytes = parse_bytes(b.text.str());
      } else if (b.kind == JsonValue::Kind::kNumber) {
        bytes = buffer_bytes(b.number.value());
      } else {
        FCU_CHECK(false, "request field \"buffer\" must be a byte size string or number");
      }
      const Index elem_bytes = members_[kElemBytes].present ? index(kElemBytes) : 2;
      FCU_CHECK(bytes >= 1, "request field \"buffer\" must be positive");
      req.buffer_elems = bytes / elem_bytes;
    } else {
      FCU_CHECK(false, "request needs \"buffer\" (bytes) or \"buffer_elems\" (elements)");
    }
    FCU_CHECK(req.buffer_elems >= 1, "request buffer resolves to zero elements");
    apply_plan_limits(req);
  }

 private:
  /// The member a value at this depth belongs to, reset to \p kind (a
  /// repeated key keeps its last value, as in parse_json); nullptr for the
  /// document itself, unknown members and anything nested deeper.
  Member* set(JsonValue::Kind kind) {
    if (depth_ != 1 || current_ == nullptr) return nullptr;
    *current_ = Member{true, kind, false, {}, {}};
    return current_;
  }

  Member* match(const JsonString& k) {
    for (int f = 0; f < kFieldCount; ++f) {
      if (k.equals(kFieldNames[f])) return &members_[f];
    }
    return nullptr;
  }

  Index index(Field f) const {
    const Member& v = members_[f];
    const auto name = [f] { return std::string("\"").append(kFieldNames[f]).append("\""); };
    FCU_CHECK(v.present, "request is missing required field " + name());
    FCU_CHECK(v.kind == JsonValue::Kind::kNumber, "request field " + name() + " must be a number");
    const double d = v.number.value();
    FCU_CHECK(is_positive_index(d), "request field " + name() + " must be a positive integer");
    return static_cast<Index>(d);
  }

  Member members_[kFieldCount];
  Member* current_ = nullptr;
  int depth_ = 0;
  bool is_object_ = false;
};

}  // namespace

TensorOp PlanRequest::to_op() const {
  FCU_CHECK(kind == Kind::kMatmul, "to_op() called on a non-matmul request");
  const std::string op_name = id.empty() ? "request" : id;
  if (batch > 1) {
    return fold_batch(TensorOp::batched_matmul(op_name, batch, m, k, l, /*shared_weight=*/true));
  }
  return TensorOp::matmul(op_name, m, k, l);
}

MatmulShape PlanRequest::shape() const {
  FCU_CHECK(kind == Kind::kMatmul, "shape() called on a non-matmul request");
  // to_op()'s checks, in its order: TensorOp rejects an extent below 1,
  // and a batch folded into M that overflows is one.
  const MatmulLabels names;
  const Index extent[3] = {m, k, l};
  for (std::size_t d = 0; d < 3; ++d) {
    FCU_CHECK(extent[d] >= 1, "dimension extent must be positive: " + std::string(names.dims[d]));
  }
  // Wrapping, as fold_batch's product wraps in practice: an overflow must
  // reach the check below, not be assumed away by the optimizer.
  const Index folded_m =
      batch > 1 ? static_cast<Index>(static_cast<std::uint64_t>(batch) *
                                     static_cast<std::uint64_t>(m))
                : m;
  FCU_CHECK(folded_m >= 1, "dimension extent must be positive: M");
  return matmul_shape(folded_m, k, l);
}

MatmulLabels PlanRequest::labels() const {
  MatmulLabels labels;  // TensorOp::matmul's: M, K, L and A, B, C
  labels.name = id.empty() ? std::string_view("request") : std::string_view(id);
  if (batch > 1) {
    labels.tensors[mm::kTensorB] = "W";
    labels.name_suffix = ".folded";
  }
  return labels;
}

FusedPair PlanRequest::to_pair() const {
  FCU_CHECK(kind == Kind::kFusedPair, "to_pair() called on a non-fused request");
  return FusedPair::make(m, k, l, n);
}

void apply_plan_limits(PlanRequest& req) {
  if (req.m < 1 || req.k < 1 || req.l < 1) return;
  if (req.kind == PlanRequest::Kind::kMatmul) {
    const Index rows = req.batch > 1 ? capped_mul(req.batch, req.m) : req.m;
    FCU_CHECK(capped_mul(capped_mul(rows, req.k), req.l) <= kPlanLimit,
              "request extents are too large to plan: batch*m*k*l must be at most 2^59");
    if (req.buffer_elems > kPlanLimit) {
      req.buffer_elems = std::min(req.buffer_elems, rows * req.k + req.k * req.l + rows * req.l);
    }
    return;
  }
  if (req.n < 1) return;
  const Index kn = std::min(req.k, kPlanLimit) + std::min(req.n, kPlanLimit);
  FCU_CHECK(capped_mul(capped_mul(req.m, req.l), kn) <= kPlanLimit &&
                capped_mul(kn, kn) <= kPlanLimit,
            "request extents are too large to plan: m*l*(k+n) and (k+n)^2 must be at most 2^59");
  FCU_CHECK(req.buffer_elems <= kPlanLimit,
            "request buffer is too large to plan: a fused_pair takes at most 2^59 elements");
}

PlanRequest plan_request_from_json(const JsonValue& doc) {
  FCU_CHECK(doc.is_object(), "request must be a JSON object");
  PlanRequest req;
  if (JsonValuePtr id = doc.get("id")) {
    FCU_CHECK(id->is_string(), "request field \"id\" must be a string");
    req.id = id->as_string();
  }

  std::string op = "matmul";
  if (JsonValuePtr v = doc.get("op")) {
    FCU_CHECK(v->is_string(), "request field \"op\" must be a string");
    op = v->as_string();
  }
  if (op == "matmul") {
    req.kind = PlanRequest::Kind::kMatmul;
  } else if (op == "fused_pair") {
    req.kind = PlanRequest::Kind::kFusedPair;
  } else {
    FCU_CHECK(false, "request field \"op\" must be \"matmul\" or \"fused_pair\", got \"" + op +
                         "\"");
  }

  req.m = require_index(doc, "m");
  req.k = require_index(doc, "k");
  req.l = require_index(doc, "l");
  if (req.kind == PlanRequest::Kind::kFusedPair) {
    req.n = require_index(doc, "n");
    FCU_CHECK(!doc.has("batch"), "fused_pair requests do not take \"batch\"");
  } else {
    req.batch = optional_index(doc, "batch", 1);
    if (JsonValuePtr sw = doc.get("shared_weight")) {
      FCU_CHECK(sw->is_bool(), "request field \"shared_weight\" must be a boolean");
      FCU_CHECK(sw->as_bool() || req.batch == 1,
                "per-slice-weight batched matmuls cannot be folded; "
                "plan the slices as individual requests");
    }
  }

  if (JsonValuePtr be = doc.get("buffer_elems")) {
    FCU_CHECK(be->is_number() && be->as_number() >= 1 && be->as_number() < kIndexLimit,
              "request field \"buffer_elems\" must be a positive number");
    req.buffer_elems = static_cast<BufferSize>(be->as_number());
  } else if (JsonValuePtr b = doc.get("buffer")) {
    std::int64_t bytes = 0;
    if (b->is_string()) {
      bytes = parse_bytes(b->as_string());
    } else if (b->is_number()) {
      bytes = buffer_bytes(b->as_number());
    } else {
      FCU_CHECK(false, "request field \"buffer\" must be a byte size string or number");
    }
    const Index elem_bytes = optional_index(doc, "elem_bytes", 2);
    FCU_CHECK(bytes >= 1, "request field \"buffer\" must be positive");
    req.buffer_elems = bytes / elem_bytes;
  } else {
    FCU_CHECK(false, "request needs \"buffer\" (bytes) or \"buffer_elems\" (elements)");
  }
  FCU_CHECK(req.buffer_elems >= 1, "request buffer resolves to zero elements");
  apply_plan_limits(req);
  return req;
}

void decode_plan_request(const std::string& line, PlanRequest& out, const std::string& source,
                         int lineno) {
  RequestDecoder decoder;
  JsonError error;
  if (!walk_json(line, decoder, error)) {
    // Re-anchor at the stream's line number; the column is within the line.
    throw ParseError(source, lineno, line_column_at(line, error.offset).second,
                     error.expected);
  }
  decoder.fill(out);
}

PlanRequest parse_plan_request(const std::string& line, const std::string& source, int lineno) {
  PlanRequest request;
  decode_plan_request(line, request, source, lineno);
  return request;
}

namespace {

// An ok body is a run of members between the id and "cached" members of
// one object, a fragment no JsonWriter scope can express, so it is appended
// directly with JsonWriter's escaping and integer formatting.  Every member
// name is a plain literal and needs no escaping.

/// `,"name":` — every body member follows another member.
void append_key(std::string& out, std::string_view name) {
  out.push_back(',');
  out.push_back('"');
  out.append(name);
  out.append("\":");
}

void append_int_field(std::string& out, std::string_view name, std::int64_t v) {
  append_key(out, name);
  JsonWriter::append_int(out, v);
}

void append_string_field(std::string& out, std::string_view name, std::string_view v) {
  append_key(out, name);
  out.push_back('"');
  JsonWriter::append_escaped(out, v);
  out.push_back('"');
}

/// A rule given as pieces; escaping is per character, so escaping each
/// piece escapes the whole.
void append_string_field(std::string& out, std::string_view name, const RuleText& v) {
  append_key(out, name);
  out.push_back('"');
  for (std::string_view piece : v.pieces) JsonWriter::append_escaped(out, piece);
  out.push_back('"');
}

template <typename Range>
void append_int_array(std::string& out, std::string_view name, const Range& values) {
  append_key(out, name);
  out.push_back('[');
  bool first = true;
  for (const auto v : values) {
    if (!first) out.push_back(',');
    first = false;
    JsonWriter::append_int(out, static_cast<std::int64_t>(v));
  }
  out.push_back(']');
}

/// `{"id":"<escaped id>"`, the bytes in front of every response's body.
void append_id_prefix(std::string& out, std::string_view id) {
  out.append("{\"id\":\"");
  JsonWriter::append_escaped(out, id);
  out.push_back('"');
}

void append_cached_tail(std::string& out, bool cached) {
  out.append(cached ? "\"cached\":true}" : "\"cached\":false}");
}

constexpr std::string_view kOkMatmul = ",\"ok\":true,\"kind\":\"matmul\"";
constexpr std::string_view kOkFused = ",\"ok\":true,\"kind\":\"fused_pair\"";

/// The matmul body from its parts; \p rule is the rule's text, whole or in
/// pieces.
template <typename Rule, typename PerTensor, typename LoopOrder, typename Tile>
void append_intra_body(std::string& out, const Rule& rule, NraKind nra, BufferClass buffer_class,
                       AccessCount total, const PerTensor& per_tensor, Index footprint,
                       const LoopOrder& loop_order, const Tile& tile) {
  out.append(kOkMatmul);
  append_string_field(out, "rule", rule);
  append_int_field(out, "nra", static_cast<int>(nra));
  append_string_field(out, "buffer_class", to_string(buffer_class));
  append_int_field(out, "total_access", total);
  append_int_array(out, "per_tensor", per_tensor);
  append_int_field(out, "buffer_footprint", footprint);
  append_int_array(out, "loop_order", loop_order);
  append_int_array(out, "tile", tile);
  out.push_back(',');
}

std::string_view fused_rule(const FusedOptResult& plan) { return plan.chosen.rule; }
std::string_view fused_rule(const FusedPlanRecord& plan) { return plan.rule; }

/// The fused-pair body of a typed result or a record; nullptr renders
/// "fusable":false.
template <typename Plan>
void append_fused_body(std::string& out, const Plan* plan) {
  out.append(kOkFused);
  append_key(out, "fusable");
  out.append(plan != nullptr ? "true" : "false");
  if (plan != nullptr) {
    append_string_field(out, "rule", fused_rule(*plan));
    append_int_field(out, "total_access", plan->access.total);
    append_int_field(out, "op1_external", plan->access.op1_external);
    append_int_field(out, "op2_external", plan->access.op2_external);
    append_int_field(out, "buffer_footprint", plan->access.buffer_footprint);
    append_int_field(out, "regime1", static_cast<int>(plan->regime1));
    append_int_field(out, "regime2", static_cast<int>(plan->regime2));
  }
  out.push_back(',');
}

}  // namespace

void append_ok_body(std::string& out, const IntraOptResult& plan) {
  append_intra_body(out, std::string_view(plan.rule), plan.nra, plan.buffer_class,
                    plan.access.total, plan.access.per_tensor, plan.access.buffer_footprint,
                    plan.dataflow.loop_order, plan.dataflow.tile);
}

void append_ok_body(std::string& out, const IntraPlanRecord& plan, const MatmulLabels& labels) {
  append_intra_body(out, rule_text(plan.rule, labels), plan.nra, plan.buffer_class, plan.total,
                    plan.per_tensor, plan.footprint, plan.loop_order, plan.tile);
}

void append_ok_body(std::string& out, const FusedOptResult* plan) { append_fused_body(out, plan); }

void append_ok_body(std::string& out, const FusedPlanRecord* plan) { append_fused_body(out, plan); }

void append_ok_response(std::string& out, std::string_view id, std::string_view body,
                        bool cached) {
  append_id_prefix(out, id);
  out.append(body);
  append_cached_tail(out, cached);
}

void append_error_response(std::string& out, std::string_view id, std::string_view message) {
  JsonWriter w(out);
  w.begin_object();
  w.field("id", id);
  w.field("ok", false);
  w.field("error", message);
  w.end_object();
}

std::string PlanResponse::to_json() const {
  std::string out;
  out.reserve(256);  // a typical response, id included, in one allocation
  if (!ok) {
    append_error_response(out, id, error);
    return out;
  }
  append_id_prefix(out, id);
  if (kind == PlanRequest::Kind::kFusedPair) {
    append_ok_body(out, fusable && fused ? &*fused : nullptr);
  } else if (intra) {
    append_ok_body(out, *intra);
  } else {
    out.append(kOkMatmul).push_back(',');
  }
  append_cached_tail(out, cached);
  return out;
}

PlanResponse error_response(const std::string& id, const std::string& message) {
  PlanResponse r;
  r.id = id;
  r.ok = false;
  r.error = message;
  return r;
}

std::string oversized_line_message(const std::string& source, int lineno,
                                   std::size_t max_line_bytes) {
  return ParseError::format(source, lineno, 1,
                            "a request line of at most " + std::to_string(max_line_bytes) +
                                " bytes (--max-line-bytes)",
                            "");
}

}  // namespace fusecu
