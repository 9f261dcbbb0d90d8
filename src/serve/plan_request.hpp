#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fusion/fusion_principles.hpp"
#include "principles/principle_optimizer.hpp"
#include "tensor/tensor_op.hpp"

/// \file plan_request.hpp
/// Wire format of the planning service: one JSON object per line (JSONL).
///
/// Request line:
///
///   {"id":"r1","op":"matmul","m":1024,"k":768,"l":768,
///    "buffer":"512KB","elem_bytes":2}
///   {"id":"r2","op":"matmul","m":128,"k":64,"l":256,"batch":8,
///    "shared_weight":true,"buffer_elems":65536}
///   {"id":"r3","op":"fused_pair","m":512,"k":512,"l":512,"n":512,
///    "buffer_elems":262144}
///
/// `buffer` takes a byte size with KB/MB suffixes and is divided by
/// `elem_bytes` (default 2, the bf16 datapath); `buffer_elems` gives the
/// element count directly and wins when both are present.  A fractional
/// `buffer_elems` is truncated (65536.7 plans 65536 elements); integer
/// fields (m, k, l, n, batch, elem_bytes) must be whole numbers in
/// [1, 2^63), and every numeric field is range-checked before it is
/// converted.  A repeated key keeps its last value.  Batched matmuls
/// must be shared-weight (the projection case) — they fold exactly into the
/// 3-dim view the principles optimize; per-slice weights are rejected.
/// Every product the planner forms must fit in 64 bits: a matmul needs
/// batch*m*k*l <= 2^59, and a buffer above 2^59 elements is planned at
/// the full-fit point m*k + k*l + m*l (the plan is the same); a fused pair
/// needs m*l*(k+n) <= 2^59, (k+n)^2 <= 2^59 and at most 2^59 buffer
/// elements.  Anything past these limits is a field-rule error.
///
/// Response line (see PlanResponse::to_json):
///
///   {"id":"r1","ok":true,"kind":"matmul","rule":"P2(untile=K)","nra":2,
///    "buffer_class":"Medium","total_access":2359296,
///    "per_tensor":[786432,589824,786432],"buffer_footprint":65536,
///    "loop_order":[0,1,2],"tile":[64,768,64],"cached":false}
///
/// Errors keep the request id and come back as {"id":...,"ok":false,
/// "error":"..."} — a malformed line still produces a response line, so the
/// stream stays 1:1 with the input.

namespace fusecu {

class JsonValue;

/// A parsed planning request.
struct PlanRequest {
  enum class Kind { kMatmul, kFusedPair };

  std::string id;
  Kind kind = Kind::kMatmul;
  Index m = 0, k = 0, l = 0;
  Index n = 0;      ///< fused_pair only
  Index batch = 1;  ///< matmul only; folds into M
  BufferSize buffer_elems = 0;

  /// The operator this request describes (batch already folded).  Only
  /// valid for kMatmul.
  TensorOp to_op() const;
  /// to_op()'s shape, without building the op; throws what to_op() throws.
  MatmulShape shape() const;
  /// to_op()'s labels from fixed name tables: dims M, K, L and tensors A,
  /// B, C, or A, W, C when the batch is folded; named after the id (or
  /// "request"), with ".folded" when the batch is folded.  Views of the id,
  /// which must outlive them.
  MatmulLabels labels() const;
  /// The fused pair this request describes.  Only valid for kFusedPair.
  FusedPair to_pair() const;
};

/// Parse one JSONL request line in one pass of the common/json_parse
/// walker: the typed sink keeps the last value of each known top-level
/// member as a view into \p line and builds no tree; the only allocation is
/// the id string.  Throws ParseError carrying \p source and \p lineno for
/// malformed JSON (the walker's column and expected text, the same as
/// parse_json's), and std::invalid_argument for well-formed JSON with bad
/// fields.
PlanRequest parse_plan_request(const std::string& line, const std::string& source = "<request>",
                               int lineno = 1);

/// parse_plan_request() into a caller-owned request, so a thread that
/// decodes every line (a net/ reactor) reuses the id's capacity instead of
/// allocating one per request.  Every field of \p out is assigned on
/// success; on a throw its contents are unspecified.
void decode_plan_request(const std::string& line, PlanRequest& out,
                         const std::string& source = "<request>", int lineno = 1);

/// The rules on the planner's products (see the limits above), which both
/// decoders apply once every field has passed its own rule and
/// PlanService::plan applies to a typed request, so every request it
/// accepts plans within Index.  Throws std::invalid_argument past a limit.
/// A matmul buffer above 2^59 elements is set to the full-fit point, past
/// which the plan no longer changes (DESIGN.md §5.8, "Request limits");
/// smaller buffers are kept.  Extents below 1 are left to to_op() /
/// shape() / to_pair(), which reject them, and a batch below 2 counts as 1,
/// as to_op() counts it.
void apply_plan_limits(PlanRequest& request);

/// The reference decoder: the same field rules and messages over a
/// parse_json tree.  No server path calls it; the differential test and the
/// fuzz_plan_request target check parse_plan_request against it.
PlanRequest plan_request_from_json(const JsonValue& doc);

/// A planning answer, ready to serialize.
struct PlanResponse {
  std::string id;
  bool ok = false;
  std::string error;  ///< set when !ok

  PlanRequest::Kind kind = PlanRequest::Kind::kMatmul;
  bool cached = false;  ///< answered from the plan cache

  /// kMatmul payload.
  std::optional<IntraOptResult> intra;
  /// kFusedPair payload; nullopt inside ok=true means "pair not fusable at
  /// this buffer size" (a legitimate planning answer, not an error).
  std::optional<FusedOptResult> fused;
  bool fusable = false;

  /// One JSON object, no trailing newline (the caller owns framing): the
  /// escaped id, append_ok_body() and the "cached" tail, or
  /// append_error_response() when !ok.  A fused payload is rendered only
  /// when fusable is set.
  std::string to_json() const;
};

/// The body of an ok response, appended to \p out: every byte after its
/// `{"id":"..."` prefix up to, not including, its "cached" member
/// (`,"ok":true,"kind":"matmul",...,"tile":[...],`).  PlanResponse::to_json
/// renders the typed results and the plan cache renders its records, byte
/// for byte alike.
void append_ok_body(std::string& out, const IntraOptResult& plan);
/// The same body from a plan record, its rule spelled in \p labels.
void append_ok_body(std::string& out, const IntraPlanRecord& plan, const MatmulLabels& labels);
/// The fused-pair body; nullptr renders "fusable":false.
void append_ok_body(std::string& out, const FusedOptResult* plan);
void append_ok_body(std::string& out, const FusedPlanRecord* plan);

/// An ok response line around a body from append_ok_body(), appended to
/// \p out: `{"id":"<escaped id>"` + body + `"cached":<cached>}`.
void append_ok_response(std::string& out, std::string_view id, std::string_view body,
                        bool cached);

/// `{"id":...,"ok":false,"error":...}` appended to \p out.
void append_error_response(std::string& out, std::string_view id, std::string_view message);

/// Error response preserving the request id (empty when unknown).
PlanResponse error_response(const std::string& id, const std::string& message);

/// ParseError-style message for a request line that crossed the
/// --max-line-bytes cap, e.g. "<stdin>:7:1: expected a request line of at
/// most 1048576 bytes (--max-line-bytes)".  Shared by the stdin stream and
/// the TCP connection path so both shed oversized lines identically.
std::string oversized_line_message(const std::string& source, int lineno,
                                   std::size_t max_line_bytes);

}  // namespace fusecu
