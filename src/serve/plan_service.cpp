#include "serve/plan_service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <istream>
#include <ostream>
#include <streambuf>
#include <thread>
#include <utility>

#include "common/fault.hpp"
#include "common/json_writer.hpp"
#include "fusion/fusion_principles.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "principles/principle_optimizer.hpp"
#include "serve/line_decoder.hpp"

namespace fusecu {

namespace {

/// Fault seam for planning (common/fault.hpp): a scheduled kPoolStall or
/// kWorkerHang event makes this plan sleep before it starts, modeling a
/// pathologically slow or hung plan.  Runs at the top of every line's
/// planning half, on the thread that read the line (a reactor for TCP,
/// serve_stream's caller for stdin); disarmed cost is a single relaxed load.
void maybe_inject_plan_stall() {
  if (!fault::armed()) return;
  if (const std::uint64_t stall_us = fault::on_pool_task()) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

/// What one cached answer is charged: what it cost while the cache held
/// typed results (the result struct, its vectors and rule string, and the
/// body), doubled, since those allocations (shared block, plan vectors and
/// strings, body, allocator rounding) measured about twice that estimate.
/// An answer is now one block of record and body, well under its charge,
/// but the charge is kept: it leaves the cache's entries, evictions and
/// "cached" flags as they were, and the bytes no longer allocated show as
/// lower RSS.  Re-pricing it is a capacity policy of its own, to be
/// measured on a workload with reuse.
std::size_t answer_cost(const IntraPlanRecord& plan, const MatmulLabels& labels,
                        std::size_t body_size) {
  // The result's three loop indices, tiles and per-tensor counts.
  const std::size_t typed = sizeof(IntraOptResult) + rule_text(plan.rule, labels).size() +
                            3 * (sizeof(int) + sizeof(Index) + sizeof(AccessCount));
  return 2 * (typed + body_size);
}

std::size_t answer_cost(const std::optional<FusedPlanRecord>& plan, std::size_t body_size) {
  std::size_t typed = sizeof(FusedOptResult);
  if (plan) {
    typed += plan->rule.size();
    // A resident plan's two dataflows: three tiles and three loop indices each.
    if (plan->resident) typed += 6 * (sizeof(Index) + sizeof(int));
  }
  return 2 * (typed + body_size);
}

/// A per-thread string the bodies are rendered into before they are copied
/// into their blocks; it keeps its capacity, so rendering allocates nothing.
std::string& body_scratch() {
  thread_local std::string scratch;
  scratch.clear();
  return scratch;
}

template <typename Cache>
typename Cache::Options cache_options(const ServeOptions& o, std::size_t capacity,
                                      const std::string& prefix) {
  typename Cache::Options opts;
  opts.shards = o.shards;
  opts.capacity_bytes = capacity;
  opts.metric_prefix = prefix;
  return opts;
}

}  // namespace

PlanService::PlanService(ServeOptions options)
    : options_(options),
      intra_cache_(cache_options<decltype(intra_cache_)>(options_, options_.cache_bytes / 2,
                                                         "serve/cache/intra")),
      fused_cache_(cache_options<decltype(fused_cache_)>(options_, options_.cache_bytes / 4,
                                                         "serve/cache/fused")),
      duplicate_plans_(MetricsRegistry::global().counter("serve/duplicate_plans")),
      requests_(MetricsRegistry::global().counter("serve/requests")),
      request_errors_(MetricsRegistry::global().counter("serve/request_errors")),
      latency_matmul_us_(MetricsRegistry::global().histogram("serve/latency_us/matmul")),
      latency_fused_us_(MetricsRegistry::global().histogram("serve/latency_us/fused_pair")),
      latency_hit_us_(MetricsRegistry::global().histogram("serve/latency_us/hit")),
      latency_miss_us_(MetricsRegistry::global().histogram("serve/latency_us/miss")) {}

PlanService::IntraAnswer PlanService::render(const IntraPlanRecord& plan,
                                             const MatmulLabels& labels) {
  std::string& body = body_scratch();
  append_ok_body(body, plan, labels);
  return IntraAnswer::make(plan, body, answer_cost(plan, labels, body.size()));
}

PlanService::FusedAnswer PlanService::render(const std::optional<FusedPlanRecord>& plan) {
  std::string& body = body_scratch();
  append_ok_body(body, plan ? &*plan : nullptr);
  return FusedAnswer::make(plan, body, answer_cost(plan, body.size()));
}

template <typename Record>
PlanService::Rendered<Record> PlanService::probe(AnswerCache<Record>& cache,
                                                 const std::string& key) {
  ScopedSpan span("cache_lookup");
  std::optional<Rendered<Record>> hit = cache.get(key);
  span.note(hit ? "hit" : "miss");
  return hit ? std::move(*hit) : Rendered<Record>();
}

template <typename Record>
PlanService::Rendered<Record> PlanService::insert(AnswerCache<Record>& cache,
                                                  const std::string& key,
                                                  Rendered<Record> answer) {
  if (cache.put(key, answer, answer.charge())) duplicate_plans_.add();
  return answer;
}

namespace {

/// Open \p request's "request/<class>" span root, unless span recording is
/// off or a span is already ambient (the caller's tree then holds the
/// request's spans).  Opened on the thread that plans, so every span below
/// it, the closed-form optimize spans included, joins one connected tree.
void open_request_root(std::optional<ScopedSpan>& root, const PlanRequest& request) {
  if (!span_recording_enabled() || current_span().valid()) return;
  root.emplace(request.kind == PlanRequest::Kind::kMatmul ? "request/matmul"
                                                          : "request/fused_pair");
}

/// Spell \p keyed's key in a canonicalize span.
void spell_key(KeyedRequest& keyed) {
  ScopedSpan canon("canonicalize");
  spell_request_key(keyed.request, keyed.key);
}

}  // namespace

PlanService::Served PlanService::probe(const KeyedRequest& keyed) {
  Served served;
  if (keyed.key.empty()) return served;
  if (keyed.request.kind == PlanRequest::Kind::kMatmul) {
    served.intra = probe(intra_cache_, keyed.key);
  } else {
    served.fused = probe(fused_cache_, keyed.key);
  }
  served.cached = served.ok();
  return served;
}

PlanService::Served PlanService::plan_missed(const KeyedRequest& keyed) {
  const PlanRequest& request = keyed.request;
  const BufferSize bs = request.buffer_elems;
  Served served;
  // Out of the cache's scope means malformed: the closed form throws.  The
  // closed forms run straight from the request's fields: no TensorOp.
  if (request.kind == PlanRequest::Kind::kMatmul) {
    const MatmulLabels labels = request.labels();
    IntraAnswer answer = render(optimize_intra_record(request.shape(), bs, labels), labels);
    served.intra =
        keyed.key.empty() ? std::move(answer) : insert(intra_cache_, keyed.key, std::move(answer));
  } else {
    FusedAnswer answer = render(optimize_fused_record(request.to_pair(), bs));
    served.fused =
        keyed.key.empty() ? std::move(answer) : insert(fused_cache_, keyed.key, std::move(answer));
  }
  return served;
}

PlanService::Served PlanService::failed(const PlanRequest& request, const std::exception& e) {
  Served served;
  served.error = e.what();
  request_errors_.add();
  log_error("serve", e.what(), {{"id", request.id}});
  return served;
}

void PlanService::count(const PlanRequest& request, const Served& served,
                        std::chrono::steady_clock::time_point start) {
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start).count();
  requests_.add();
  (request.kind == PlanRequest::Kind::kMatmul ? latency_matmul_us_ : latency_fused_us_).observe(us);
  (served.cached ? latency_hit_us_ : latency_miss_us_).observe(us);
}

PlanService::Served PlanService::serve(const PlanRequest& request) {
  std::optional<ScopedSpan> root;
  open_request_root(root, request);
  const auto start = std::chrono::steady_clock::now();
  KeyedRequest keyed;
  keyed.request = request;
  Served served;
  try {
    apply_plan_limits(keyed.request);  // the decoders' rule on the planner's products
    spell_key(keyed);
    served = probe(keyed);
    if (!served.ok()) served = plan_missed(keyed);
  } catch (const std::exception& e) {
    served = failed(request, e);
  }
  count(request, served, start);
  if (root) root->note(served.ok() ? (served.cached ? "ok cached" : "ok") : "error");
  return served;
}

PlanResponse PlanService::to_response(const PlanRequest& request, const Served& served) {
  if (!served.ok()) return error_response(request.id, served.error);
  PlanResponse response;
  response.id = request.id;
  response.ok = true;
  response.kind = request.kind;
  response.cached = served.cached;
  if (served.intra) {
    response.intra = materialize(served.intra.record(), request.labels());
  } else if (const std::optional<FusedPlanRecord>& plan = served.fused.record()) {
    response.fused = materialize(*plan);
    response.fusable = true;
  }
  return response;
}

void PlanService::response_line(const std::string& id, const Served& served, std::string& line) {
  line.clear();
  if (!served.ok()) {
    append_error_response(line, id, served.error);
    return;
  }
  const std::string_view body = served.intra ? served.intra.body() : served.fused.body();
  // The {"id":"" prefix and "cached":false} tail around the body, +1 for
  // the caller's newline framing, so a fresh line allocates once.
  line.reserve(id.size() + body.size() + 24);
  append_ok_response(line, id, body, served.cached);
}

PlanResponse PlanService::plan(const PlanRequest& request) {
  return to_response(request, serve(request));
}

LineOutcome PlanService::probe_line(const std::string& line, const std::string& source,
                                    int lineno, KeyedRequest& keyed, std::string& response,
                                    std::optional<ScopedSpan>& root) {
  try {
    decode_plan_request(line, keyed.request, source, lineno);
  } catch (const std::exception& e) {
    requests_.add();
    request_errors_.add();
    log_warn("serve", "malformed request line", {{"source", source}, {"error", e.what()}});
    response.clear();
    append_error_response(response, "", e.what());
    return LineOutcome::kMalformed;
  }
  open_request_root(root, keyed.request);
  const auto start = std::chrono::steady_clock::now();
  spell_key(keyed);
  const Served served = probe(keyed);
  if (!served.ok()) return LineOutcome::kMiss;
  count(keyed.request, served, start);
  if (root) root->note("ok cached");
  ScopedSpan serialize("serialize");
  response_line(keyed.request.id, served, response);
  return LineOutcome::kHit;
}

void PlanService::plan_line(const KeyedRequest& keyed, std::optional<ScopedSpan>& root,
                            std::string& response) {
  maybe_inject_plan_stall();
  const auto start = std::chrono::steady_clock::now();
  Served served;
  try {
    served = plan_missed(keyed);
  } catch (const std::exception& e) {
    served = failed(keyed.request, e);
  }
  count(keyed.request, served, start);
  if (root) root->note(served.ok() ? "ok" : "error");
  ScopedSpan serialize("serialize");
  response_line(keyed.request.id, served, response);
}

LineOutcome PlanService::answer_line(const std::string& line, const std::string& source,
                                     int lineno, KeyedRequest& keyed, std::string& response,
                                     bool plan_miss) {
  std::optional<ScopedSpan> root;
  const LineOutcome outcome = probe_line(line, source, lineno, keyed, response, root);
  if (outcome != LineOutcome::kMiss) return outcome;
  if (plan_miss) {
    plan_line(keyed, root, response);
  } else if (root) {
    root->note("miss");
  }
  return outcome;
}

void PlanService::reject_oversized_line(const std::string& source, int lineno,
                                        std::size_t max_line_bytes, std::string& response) {
  requests_.add();
  request_errors_.add();
  log_warn("serve", "oversized request line",
           {{"source", source}, {"line", std::to_string(lineno)}});
  response.clear();
  append_error_response(response, "", oversized_line_message(source, lineno, max_line_bytes));
}

std::string PlanService::plan_line_json(const std::string& line, const std::string& source,
                                        int lineno, std::int64_t /*enqueue_us*/,
                                        bool* parse_error) {
  KeyedRequest keyed;
  std::string response;
  const LineOutcome outcome =
      answer_line(line, source, lineno, keyed, response, /*plan_miss=*/true);
  if (parse_error != nullptr) *parse_error = outcome == LineOutcome::kMalformed;
  return response;
}

int PlanService::serve_stream(std::istream& in, std::ostream& out, const std::string& source) {
  LineDecoder decoder(options_.max_line_bytes);
  KeyedRequest keyed;
  std::string response;
  int lineno = 0;
  int answered = 0;
  const auto handle_line = [&](const LineDecoder::DecodedLine& line) {
    ++lineno;
    if (line.oversized) {
      reject_oversized_line(source, lineno, options_.max_line_bytes, response);
    } else if (line.text.find_first_not_of(" \t\r") == std::string::npos) {
      return;
    } else {
      answer_line(line.text, source, lineno, keyed, response, /*plan_miss=*/true);
    }
    response.push_back('\n');
    out.write(response.data(), static_cast<std::streamsize>(response.size()));
    ++answered;
  };
  // A read of a whole chunk would block until the chunk fills or the input
  // ends, keeping a client that holds the stream open from answers it is
  // owed.  So block for one byte (sgetc), then take only the bytes already
  // available, at least that one.
  std::streambuf& buf = *in.rdbuf();
  constexpr std::streamsize kChunk = 64 * 1024;
  char chunk[kChunk];
  LineDecoder::DecodedLine line;
  while (buf.sgetc() != std::streambuf::traits_type::eof()) {
    const std::streamsize want = std::clamp<std::streamsize>(buf.in_avail(), 1, kChunk);
    decoder.feed(chunk, static_cast<std::size_t>(buf.sgetn(chunk, want)));
    while (decoder.next(line)) handle_line(line);
    if (buf.in_avail() <= 0) out.flush();
  }
  if (decoder.finish(line)) handle_line(line);
  out.flush();
  return answered;
}

PlanService::Stats PlanService::stats() const {
  Stats s;
  s.intra = intra_cache_.stats();
  s.fused = fused_cache_.stats();
  s.duplicate_plans = duplicate_plans_.value();
  return s;
}

}  // namespace fusecu
