#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
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
/// element count directly and wins when both are present.  Batched matmuls
/// must be shared-weight (the projection case) — they fold exactly into the
/// 3-dim view the principles optimize; per-slice weights are rejected.
///
/// Response line (see write_json on PlanResponse):
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
  /// The fused pair this request describes.  Only valid for kFusedPair.
  FusedPair to_pair() const;
};

/// Parse one JSONL request line.  Throws ParseError carrying \p source and
/// \p lineno for malformed JSON, and std::invalid_argument for well-formed
/// JSON with bad fields.
PlanRequest parse_plan_request(const std::string& line, const std::string& source = "<request>",
                               int lineno = 1);

/// Same, from an already parsed JSON object.
PlanRequest plan_request_from_json(const JsonValue& doc);

/// Allocation-light scan for the top-level "id" string field of a request
/// line, used by the net/ reactors to label shed, timed-out and cancelled
/// responses without running the full JSON parser on the event-loop thread
/// (parsing happens pool-side).  Agrees with the parser wherever the parse
/// succeeds: the *last* member whose unescaped key is "id" wins, as in
/// json_parse, and the value is unescaped exactly like the real parser
/// (common escapes plus \uXXXX as UTF-8).  Writes into the caller-owned
/// \p id_out, so steady-state calls reuse its capacity and never allocate.
/// Returns false (leaving \p id_out cleared) when the line is not one
/// well-formed object, has no "id", or its id is not a string; the
/// pool-side parse still produces the authoritative error response in
/// those cases.
bool extract_request_id(const std::string& line, std::string& id_out);

/// FNV-1a hash of a request line with the value bytes of the id
/// extract_request_id() reads masked out, so two requests that differ only
/// in their id — the shape the plan cache keys on — hash identically.  Used
/// by the net/ reactors' brownout path to predict suffix-splice cache hits
/// without parsing on the loop thread: a shape seen completing successfully
/// before is "warm".  Falls back to hashing the whole line when the id
/// cannot be located (the authoritative parse happens pool-side either
/// way).  Allocation-free.
std::uint64_t request_shape_hash(const std::string& line);

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

  /// One JSON object, no trailing newline (the caller owns framing).
  std::string to_json() const;
};

/// Error response preserving the request id (empty when unknown).
PlanResponse error_response(const std::string& id, const std::string& message);

/// Serialized overload-shed response carrying a client backoff hint:
/// {"id":...,"ok":false,"error":<message>,"retry_after_ms":N}.  Used by the
/// reactors when adaptive admission is armed; serve_loadgen honors the hint
/// with capped exponential backoff.  No trailing newline.
std::string overload_response_json(const std::string& id, const std::string& message,
                                   std::int64_t retry_after_ms);

/// ParseError-style message for a request line that crossed the
/// --max-line-bytes cap, e.g. "<stdin>:7:1: expected a request line of at
/// most 1048576 bytes (--max-line-bytes)".  Shared by the stdin stream and
/// the TCP connection path so both shed oversized lines identically.
std::string oversized_line_message(const std::string& source, int lineno,
                                   std::size_t max_line_bytes);

}  // namespace fusecu
