#include "serve/plan_request.hpp"

#include <cctype>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/parse_error.hpp"

namespace fusecu {

namespace {

Index require_index(const JsonValue& doc, const std::string& field) {
  JsonValuePtr v = doc.get(field);
  FCU_CHECK(v != nullptr, "request is missing required field \"" + field + "\"");
  FCU_CHECK(v->is_number(), "request field \"" + field + "\" must be a number");
  const double d = v->as_number();
  const Index i = static_cast<Index>(d);
  FCU_CHECK(static_cast<double>(i) == d && i >= 1,
            "request field \"" + field + "\" must be a positive integer");
  return i;
}

Index optional_index(const JsonValue& doc, const std::string& field, Index fallback) {
  if (!doc.has(field)) return fallback;
  return require_index(doc, field);
}

}  // namespace

TensorOp PlanRequest::to_op() const {
  FCU_CHECK(kind == Kind::kMatmul, "to_op() called on a non-matmul request");
  const std::string op_name = id.empty() ? "request" : id;
  if (batch > 1) {
    return fold_batch(TensorOp::batched_matmul(op_name, batch, m, k, l, /*shared_weight=*/true));
  }
  return TensorOp::matmul(op_name, m, k, l);
}

FusedPair PlanRequest::to_pair() const {
  FCU_CHECK(kind == Kind::kFusedPair, "to_pair() called on a non-fused request");
  return FusedPair::make(m, k, l, n);
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
    FCU_CHECK(be->is_number() && be->as_number() >= 1,
              "request field \"buffer_elems\" must be a positive number");
    req.buffer_elems = static_cast<BufferSize>(be->as_number());
  } else if (JsonValuePtr b = doc.get("buffer")) {
    std::int64_t bytes = 0;
    if (b->is_string()) {
      bytes = parse_bytes(b->as_string());
    } else if (b->is_number()) {
      bytes = static_cast<std::int64_t>(b->as_number());
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
  return req;
}

PlanRequest parse_plan_request(const std::string& line, const std::string& source, int lineno) {
  JsonValuePtr doc;
  try {
    doc = parse_json(line, source);
  } catch (const ParseError& e) {
    // parse_json saw a single line; re-anchor at the stream's line number.
    throw ParseError(source, lineno, e.column(), e.expected());
  }
  return plan_request_from_json(*doc);
}

namespace {

/// Scan one JSON string starting at text[pos] == '"'; advances \p pos past
/// the closing quote and hands each unescaped payload byte to \p emit —
/// byte-for-byte what parse_string() in common/json_parse.cpp would
/// produce.  Returns false on malformed input.
template <typename Emit>
bool scan_json_string(const std::string& text, std::size_t& pos, Emit&& emit) {
  if (pos >= text.size() || text[pos] != '"') return false;
  ++pos;
  while (true) {
    if (pos >= text.size()) return false;
    const char c = text[pos++];
    if (c == '"') return true;
    if (c != '\\') {
      if (static_cast<unsigned char>(c) < 0x20) return false;
      emit(c);
      continue;
    }
    if (pos >= text.size()) return false;
    const char esc = text[pos++];
    char decoded = 0;
    switch (esc) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        if (pos + 4 > text.size()) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[pos++];
          if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
          code = code * 16 +
                 static_cast<unsigned>(h <= '9' ? h - '0' : (std::tolower(h) - 'a' + 10));
        }
        if (code < 0x80) {
          emit(static_cast<char>(code));
        } else if (code < 0x800) {
          emit(static_cast<char>(0xC0 | (code >> 6)));
          emit(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          emit(static_cast<char>(0xE0 | (code >> 12)));
          emit(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          emit(static_cast<char>(0x80 | (code & 0x3F)));
        }
        continue;
      }
      default: return false;
    }
    emit(decoded);
  }
}

bool skip_json_string(const std::string& text, std::size_t& pos) {
  return scan_json_string(text, pos, [](char) {});
}

/// The parser's whitespace (std::isspace, as in common/json_parse.cpp).
bool is_json_ws(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

void skip_json_ws(const std::string& text, std::size_t& pos) {
  while (pos < text.size() && is_json_ws(text[pos])) ++pos;
}

/// Skip one JSON value (string, nested container, or scalar token) without
/// materializing it.  Returns false on malformed input.
bool skip_json_value(const std::string& text, std::size_t& pos) {
  skip_json_ws(text, pos);
  if (pos >= text.size()) return false;
  const char c = text[pos];
  if (c == '"') return skip_json_string(text, pos);
  if (c == '{' || c == '[') {
    int depth = 0;
    while (pos < text.size()) {
      const char d = text[pos];
      if (d == '"') {
        if (!skip_json_string(text, pos)) return false;
        continue;
      }
      ++pos;
      if (d == '{' || d == '[') {
        ++depth;
      } else if (d == '}' || d == ']') {
        if (--depth == 0) return true;
      }
    }
    return false;
  }
  // Number / true / false / null: consume up to the next separator.
  const std::size_t start = pos;
  while (pos < text.size() && text[pos] != ',' && text[pos] != '}' && text[pos] != ']' &&
         !is_json_ws(text[pos])) {
    ++pos;
  }
  return pos > start;
}

/// Locate the raw byte span [begin, end) of the value of the request
/// object's *last* "id" member — the one the parser keeps when a key
/// repeats (common/json_parse.cpp assigns members in order).  Keys are
/// compared unescaped, as the parser reads them, so "\u0069d" is "id" too;
/// nothing is materialized.  Returns false when the line is not one
/// well-formed object or has no "id" member.
bool find_last_id_span(const std::string& line, std::size_t& begin, std::size_t& end) {
  bool found = false;
  std::size_t pos = 0;
  skip_json_ws(line, pos);
  if (pos >= line.size() || line[pos] != '{') return false;
  ++pos;
  skip_json_ws(line, pos);
  if (pos < line.size() && line[pos] == '}') return false;  // empty object
  while (true) {
    skip_json_ws(line, pos);
    std::size_t key_len = 0;
    bool key_is_id = true;
    if (!scan_json_string(line, pos, [&](char c) {
          key_is_id = key_is_id && key_len < 2 && c == "id"[key_len];
          ++key_len;
        })) {
      return false;
    }
    key_is_id = key_is_id && key_len == 2;
    skip_json_ws(line, pos);
    if (pos >= line.size() || line[pos] != ':') return false;
    ++pos;
    skip_json_ws(line, pos);
    const std::size_t value_begin = pos;
    if (!skip_json_value(line, pos)) return false;
    if (key_is_id) {
      found = true;
      begin = value_begin;
      end = pos;
    }
    skip_json_ws(line, pos);
    if (pos >= line.size()) return false;
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] != '}') return false;
    ++pos;
    skip_json_ws(line, pos);
    return found && pos == line.size();  // nothing may follow the object
  }
}

}  // namespace

bool extract_request_id(const std::string& line, std::string& id_out) {
  id_out.clear();
  std::size_t begin = 0;
  std::size_t end = 0;
  if (!find_last_id_span(line, begin, end) || line[begin] != '"') return false;
  std::size_t pos = begin;  // the walk already validated this string
  scan_json_string(line, pos, [&](char c) { id_out.push_back(c); });
  return true;
}

std::uint64_t request_shape_hash(const std::string& line) {
  std::size_t skip_begin = 0;
  std::size_t skip_end = 0;
  if (!find_last_id_span(line, skip_begin, skip_end)) skip_begin = skip_end = 0;
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (i >= skip_begin && i < skip_end) continue;
    h ^= static_cast<unsigned char>(line[i]);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

namespace {

void write_intra(JsonWriter& w, const IntraOptResult& r) {
  w.field("rule", r.rule);
  w.field("nra", static_cast<int>(r.nra));
  w.field("buffer_class", to_string(r.buffer_class));
  w.field("total_access", static_cast<std::int64_t>(r.access.total));
  w.key("per_tensor");
  w.begin_array();
  for (AccessCount a : r.access.per_tensor) w.value(static_cast<std::int64_t>(a));
  w.end_array();
  w.field("buffer_footprint", static_cast<std::int64_t>(r.access.buffer_footprint));
  w.key("loop_order");
  w.begin_array();
  for (int d : r.dataflow.loop_order) w.value(d);
  w.end_array();
  w.key("tile");
  w.begin_array();
  for (Index t : r.dataflow.tile) w.value(static_cast<std::int64_t>(t));
  w.end_array();
}

void write_fused(JsonWriter& w, bool fusable, const std::optional<FusedOptResult>& r) {
  w.field("fusable", fusable);
  if (!fusable || !r) return;
  w.field("rule", r->chosen.rule);
  w.field("total_access", static_cast<std::int64_t>(r->access.total));
  w.field("op1_external", static_cast<std::int64_t>(r->access.op1_external));
  w.field("op2_external", static_cast<std::int64_t>(r->access.op2_external));
  w.field("buffer_footprint", static_cast<std::int64_t>(r->access.buffer_footprint));
  w.field("regime1", static_cast<int>(r->regime1));
  w.field("regime2", static_cast<int>(r->regime2));
}

}  // namespace

std::string PlanResponse::to_json() const {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("id", id);
    w.field("ok", ok);
    if (!ok) {
      w.field("error", error);
    } else {
      w.field("kind", kind == PlanRequest::Kind::kMatmul ? "matmul" : "fused_pair");
      if (kind == PlanRequest::Kind::kMatmul && intra) {
        write_intra(w, *intra);
      } else if (kind == PlanRequest::Kind::kFusedPair) {
        write_fused(w, fusable, fused);
      }
      w.field("cached", cached);
    }
    w.end_object();
  }
  return os.str();
}

PlanResponse error_response(const std::string& id, const std::string& message) {
  PlanResponse r;
  r.id = id;
  r.ok = false;
  r.error = message;
  return r;
}

std::string overload_response_json(const std::string& id, const std::string& message,
                                   std::int64_t retry_after_ms) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.field("id", id);
    w.field("ok", false);
    w.field("error", message);
    w.field("retry_after_ms", retry_after_ms);
    w.end_object();
  }
  return os.str();
}

std::string oversized_line_message(const std::string& source, int lineno,
                                   std::size_t max_line_bytes) {
  return ParseError::format(source, lineno, 1,
                            "a request line of at most " + std::to_string(max_line_bytes) +
                                " bytes (--max-line-bytes)",
                            "");
}

}  // namespace fusecu
