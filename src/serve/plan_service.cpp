#include "serve/plan_service.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <istream>
#include <ostream>
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
/// pathologically slow or hung plan.  Runs at the top of every finish_line
/// (on the reactor for TCP, on a pool worker for serve_stream) and every
/// plan_batch task; disarmed cost is a single relaxed load.
void maybe_inject_pool_stall() {
  if (!fault::armed()) return;
  if (const std::uint64_t stall_us = fault::on_pool_task()) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

std::size_t approx_bytes(const IntraOptResult& r) {
  return sizeof(IntraOptResult) + r.rule.size() +
         r.dataflow.loop_order.size() * sizeof(int) + r.dataflow.tile.size() * sizeof(Index) +
         r.access.per_tensor.size() * sizeof(AccessCount);
}

std::size_t approx_bytes(const std::optional<FusedOptResult>& r) {
  if (!r) return sizeof(FusedOptResult);
  std::size_t n = sizeof(FusedOptResult) + r->chosen.rule.size();
  if (r->chosen.resident) {
    n += (r->chosen.resident->df1.tile.size() + r->chosen.resident->df2.tile.size()) *
         (sizeof(Index) + sizeof(int));
  }
  return n;
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
      pool_(options_.threads),
      shared_flights_(MetricsRegistry::global().counter("serve/single_flight/shared")),
      requests_(MetricsRegistry::global().counter("serve/requests")),
      request_errors_(MetricsRegistry::global().counter("serve/request_errors")),
      latency_matmul_us_(MetricsRegistry::global().histogram("serve/latency_us/matmul")),
      latency_fused_us_(MetricsRegistry::global().histogram("serve/latency_us/fused_pair")),
      latency_hit_us_(MetricsRegistry::global().histogram("serve/latency_us/hit")),
      latency_miss_us_(MetricsRegistry::global().histogram("serve/latency_us/miss")) {}

bool PlanService::begin_flight(const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) {
      flights_.emplace(key, std::make_shared<Flight>());
      return true;
    }
    flight = it->second;
  }
  shared_flights_.add();
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&]() { return flight->done; });
  return false;
}

void PlanService::end_flight(const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    flight = it->second;
    flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
  }
  flight->cv.notify_all();
}

namespace {

/// \p plan's response body at its exact size: the cache charges an entry
/// by body.size(), so the stored string carries no growth slack.  The body
/// is rendered into a per-thread scratch string and copied out once.
template <typename Plan>
std::string exact_body(const Plan& plan) {
  thread_local std::string scratch;
  scratch.clear();
  append_ok_body(scratch, plan);
  return scratch;
}

}  // namespace

PlanService::IntraAnswer PlanService::render(IntraOptResult plan) {
  std::string body = exact_body(plan);
  return IntraAnswer{std::move(plan), std::move(body)};
}

PlanService::FusedAnswer PlanService::render(std::optional<FusedOptResult> plan) {
  std::string body = exact_body(plan ? &*plan : nullptr);
  return FusedAnswer{std::move(plan), std::move(body)};
}

template <typename Answer, std::size_t N>
std::shared_ptr<const Answer> PlanService::probe(SlotCache<Answer, N>& cache,
                                                 const std::string& key, std::size_t slot) {
  ScopedSpan span("cache_lookup");
  std::shared_ptr<const Answer> hit =
      cache.find(key, [slot](const auto& entry) { return entry[slot]; });
  span.note(hit ? "hit" : "miss");
  return hit;
}

template <typename Answer, std::size_t N, typename Plan>
std::shared_ptr<const Answer> PlanService::insert(SlotCache<Answer, N>& cache,
                                                  const std::string& key, std::size_t slot,
                                                  Plan plan) {
  auto answer = std::make_shared<const Answer>(render(std::move(plan)));
  // An entry's allocations (shared block, plan vectors and strings, body,
  // allocator rounding) measure about twice the plan-plus-body estimate.
  const std::size_t cost = 2 * (approx_bytes(answer->plan) + answer->body.size());
  cache.upsert(key, [&](auto& entry, bool) { entry[slot] = answer; }, cost);
  return answer;
}

template <typename Answer, std::size_t N, typename ClosedForm>
std::shared_ptr<const Answer> PlanService::plan_after_miss(SlotCache<Answer, N>& cache,
                                                           const std::string& key,
                                                           std::size_t slot,
                                                           ClosedForm&& closed_form,
                                                           bool* cached) {
  const std::string flight_key = N == 1 ? key : key + (slot == 0 ? "#0" : "#1");
  const bool recording = span_recording_enabled();
  const std::int64_t flight_start_us = recording ? span_clock_us() : 0;
  const bool leader = begin_flight(flight_key);
  if (!leader && recording) {
    record_span("single_flight_join", flight_start_us, span_clock_us(), "joined");
  }
  // A leader that finished this exact computation — the one we waited on,
  // or one that inserted and ended its flight between our probe and
  // begin_flight — left its answer in the cache.  It is missing only if it
  // was evicted or the leader threw; then compute (idempotent).
  if (auto answer = cache.peek(key, [slot](const auto& entry) { return entry[slot]; })) {
    if (leader) end_flight(flight_key);
    *cached = true;
    return answer;
  }
  *cached = false;
  try {
    auto answer = insert(cache, key, slot, closed_form());
    if (leader) end_flight(flight_key);
    return answer;
  } catch (...) {
    if (leader) end_flight(flight_key);
    throw;
  }
}

template <typename Answer, std::size_t N, typename ClosedForm>
std::shared_ptr<const Answer> PlanService::lookup_or_plan(SlotCache<Answer, N>& cache,
                                                          const std::string& key,
                                                          std::size_t slot,
                                                          ClosedForm&& closed_form,
                                                          bool* cached) {
  *cached = true;
  if (auto hit = probe(cache, key, slot)) return hit;
  return plan_after_miss(cache, key, slot, std::forward<ClosedForm>(closed_form), cached);
}

IntraPlanned PlanService::plan_intra(const TensorOp& op, BufferSize bs) {
  std::optional<CanonicalIntraKey> key;
  {
    ScopedSpan canon("canonicalize");
    key = try_canonical_intra_key(op, bs);
  }
  if (!key) return IntraPlanned{optimize_intra(op, bs), false};
  bool cached = false;
  auto answer = lookup_or_plan(
      intra_cache_, key->text, key->swapped ? 1 : 0,
      [&] { return optimize_intra(op, bs); }, &cached);
  return IntraPlanned{answer->plan, cached};
}

FusedPlanned PlanService::plan_fused(const FusedPair& pair, BufferSize bs) {
  std::string key;
  {
    ScopedSpan canon("canonicalize");
    key = canonical_fused_key(pair, bs);
  }
  bool cached = false;
  auto answer = lookup_or_plan(
      fused_cache_, key, 0, [&] { return optimize_fused_pair(pair, bs); }, &cached);
  return FusedPlanned{answer->plan, cached};
}

namespace {

const char* root_name(const PlanRequest& request) {
  return request.kind == PlanRequest::Kind::kMatmul ? "request/matmul" : "request/fused_pair";
}

/// Spell \p keyed's key in a canonicalize span.
void spell_key(KeyedRequest& keyed) {
  ScopedSpan canon("canonicalize");
  spell_request_key(keyed.request, keyed.key, keyed.swapped);
}

}  // namespace

PlanService::Served PlanService::probe(const KeyedRequest& keyed) {
  Served served;
  if (keyed.key.empty()) return served;
  if (keyed.request.kind == PlanRequest::Kind::kMatmul) {
    served.intra = probe(intra_cache_, keyed.key, keyed.swapped ? 1 : 0);
  } else {
    served.fused = probe(fused_cache_, keyed.key, 0);
  }
  served.cached = served.ok();
  return served;
}

PlanService::Served PlanService::plan_missed(const KeyedRequest& keyed) {
  const PlanRequest& request = keyed.request;
  const BufferSize bs = request.buffer_elems;
  Served served;
  // Out of the cache's scope means malformed: the closed form throws.
  if (request.kind == PlanRequest::Kind::kMatmul) {
    const auto closed_form = [&] { return optimize_intra(request.to_op(), bs); };
    served.intra = keyed.key.empty()
                       ? std::make_shared<const IntraAnswer>(render(closed_form()))
                       : plan_after_miss(intra_cache_, keyed.key, keyed.swapped ? 1 : 0,
                                         closed_form, &served.cached);
  } else {
    const auto closed_form = [&] { return optimize_fused_pair(request.to_pair(), bs); };
    served.fused = keyed.key.empty()
                       ? std::make_shared<const FusedAnswer>(render(closed_form()))
                       : plan_after_miss(fused_cache_, keyed.key, 0, closed_form, &served.cached);
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
  // Root the span tree here only for direct calls; plan_batch opens the
  // request root inside the pool task (anchored at enqueue time, with a
  // queue_wait child), and this call inherits it as ambient.
  std::optional<ScopedSpan> root;
  if (span_recording_enabled() && !current_span().valid()) root.emplace(root_name(request));
  const auto start = std::chrono::steady_clock::now();
  KeyedRequest keyed;
  keyed.request = request;
  spell_key(keyed);
  Served served;
  try {
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
    response.intra = served.intra->plan;
  } else {
    response.fused = served.fused->plan;
    response.fusable = response.fused.has_value();
  }
  return response;
}

void PlanService::response_line(const std::string& id, const Served& served, std::string& line) {
  line.clear();
  if (!served.ok()) {
    append_error_response(line, id, served.error);
    return;
  }
  const std::string& body = served.intra ? served.intra->body : served.fused->body;
  // The {"id":"" prefix and "cached":false} tail around the body, +1 for
  // the caller's newline framing, so a fresh line allocates once.
  line.reserve(id.size() + body.size() + 24);
  append_ok_response(line, id, body, served.cached);
}

PlanResponse PlanService::plan(const PlanRequest& request) {
  return to_response(request, serve(request));
}

std::vector<PlanResponse> PlanService::plan_batch(const std::vector<PlanRequest>& requests) {
  std::vector<std::future<PlanResponse>> futures;
  futures.reserve(requests.size());
  for (const PlanRequest& request : requests) {
    const std::int64_t enqueue_us = span_recording_enabled() ? span_clock_us() : 0;
    futures.push_back(pool_.submit([this, request, enqueue_us]() {
      return plan_enqueued(request, enqueue_us);
    }));
  }
  std::vector<PlanResponse> responses;
  responses.reserve(requests.size());
  for (std::future<PlanResponse>& f : futures) responses.push_back(f.get());
  return responses;
}

void PlanService::open_request_root(std::optional<ScopedSpan>& root, const PlanRequest& request,
                                    std::int64_t enqueue_us) {
  // The planning half of a request runs on one thread, so opening the root
  // here makes every span below it — including the closed-form optimize
  // spans — part of one connected tree.
  if (!span_recording_enabled()) return;
  if (enqueue_us == kNotQueued) {
    root.emplace(root_name(request));
    return;
  }
  // Recording may have been armed after the request was enqueued; fall
  // back to "now" rather than anchoring at the clock origin.
  const std::int64_t anchor_us = enqueue_us > 0 ? enqueue_us : span_clock_us();
  root.emplace(root_name(request), anchor_us);
  record_span("queue_wait", anchor_us, span_clock_us());
}

PlanResponse PlanService::plan_enqueued(const PlanRequest& request, std::int64_t enqueue_us) {
  maybe_inject_pool_stall();
  std::optional<ScopedSpan> root;
  open_request_root(root, request, enqueue_us);
  return plan(request);
}

LineOutcome PlanService::probe_line(const std::string& line, const std::string& source,
                                    int lineno, std::int64_t enqueue_us, KeyedRequest& keyed,
                                    std::string& response, std::optional<ScopedSpan>& root) {
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
  if (!current_span().valid()) open_request_root(root, keyed.request, enqueue_us);
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
  maybe_inject_pool_stall();
  const auto start = std::chrono::steady_clock::now();
  Served served;
  try {
    served = plan_missed(keyed);
  } catch (const std::exception& e) {
    served = failed(keyed.request, e);
  }
  count(keyed.request, served, start);
  if (root) root->note(served.ok() ? (served.cached ? "ok cached" : "ok") : "error");
  ScopedSpan serialize("serialize");
  response_line(keyed.request.id, served, response);
}

LineOutcome PlanService::begin_line(const std::string& line, const std::string& source,
                                    int lineno, KeyedRequest& keyed, std::string& response) {
  return answer_line(line, source, lineno, keyed, response, /*plan_miss=*/false);
}

LineOutcome PlanService::answer_line(const std::string& line, const std::string& source,
                                     int lineno, KeyedRequest& keyed, std::string& response,
                                     bool plan_miss) {
  std::optional<ScopedSpan> root;
  const LineOutcome outcome =
      probe_line(line, source, lineno, kNotQueued, keyed, response, root);
  if (outcome != LineOutcome::kMiss) return outcome;
  if (plan_miss) {
    plan_line(keyed, root, response);
  } else if (root) {
    root->note("miss");
  }
  return outcome;
}

void PlanService::finish_line(const KeyedRequest& keyed, std::int64_t enqueue_us,
                              std::string& response) {
  std::optional<ScopedSpan> root;
  open_request_root(root, keyed.request, enqueue_us);
  plan_line(keyed, root, response);
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
                                        int lineno, std::int64_t enqueue_us, bool* parse_error) {
  KeyedRequest keyed;
  std::string response;
  std::optional<ScopedSpan> root;
  const LineOutcome outcome =
      probe_line(line, source, lineno, enqueue_us, keyed, response, root);
  if (parse_error != nullptr) *parse_error = outcome == LineOutcome::kMalformed;
  if (outcome == LineOutcome::kMiss) plan_line(keyed, root, response);
  return response;
}

int PlanService::serve_stream(std::istream& in, std::ostream& out, const std::string& source) {
  // Lines are decoded and probed here, in input order, so a hit is answered
  // at once and an earlier miss reaches the pool (and leads the single
  // flight of a repeated shape) first.
  struct Slot {
    std::string immediate;
    std::future<std::string> pending;
  };
  std::vector<Slot> slots;
  LineDecoder decoder(options_.max_line_bytes);
  int lineno = 0;
  const auto handle_line = [&](const LineDecoder::DecodedLine& line) {
    ++lineno;
    Slot slot;
    if (line.oversized) {
      reject_oversized_line(source, lineno, options_.max_line_bytes, slot.immediate);
      slots.push_back(std::move(slot));
      return;
    }
    if (line.text.find_first_not_of(" \t\r") == std::string::npos) return;
    KeyedRequest keyed;
    if (begin_line(line.text, source, lineno, keyed, slot.immediate) == LineOutcome::kMiss) {
      const std::int64_t enqueue_us = span_recording_enabled() ? span_clock_us() : 0;
      slot.pending = pool_.submit([this, keyed = std::move(keyed), enqueue_us]() {
        std::string response;
        finish_line(keyed, enqueue_us, response);
        return response;
      });
    }
    slots.push_back(std::move(slot));
  };
  char chunk[64 * 1024];
  LineDecoder::DecodedLine line;
  while (in.read(chunk, sizeof(chunk)), in.gcount() > 0) {
    decoder.feed(chunk, static_cast<std::size_t>(in.gcount()));
    while (decoder.next(line)) handle_line(line);
  }
  if (decoder.finish(line)) handle_line(line);
  for (Slot& slot : slots) {
    out << (slot.pending.valid() ? slot.pending.get() : slot.immediate) << '\n';
  }
  return static_cast<int>(slots.size());
}

PlanService::Stats PlanService::stats() const {
  Stats s;
  s.intra = intra_cache_.stats();
  s.fused = fused_cache_.stats();
  s.single_flight_shared = shared_flights_.value();
  return s;
}

}  // namespace fusecu
