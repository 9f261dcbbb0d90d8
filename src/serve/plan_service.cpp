#include "serve/plan_service.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <istream>
#include <ostream>
#include <string_view>
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

/// Fault seam for the worker pool (common/fault.hpp): a scheduled
/// kPoolStall event makes this task sleep briefly before planning,
/// modeling a stalled pool / pathologically slow plan.  Runs at the top of
/// every pooled request; disarmed cost is a single relaxed load.
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

/// The {"id":"" prefix and "cached":false} tail of an ok response rendered
/// with an empty id; the body is everything between them.
constexpr std::string_view kEmptyIdPrefix = "{\"id\":\"\"";
constexpr std::string_view kMissTail = "\"cached\":false}";
constexpr std::string_view kHitTail = "\"cached\":true}";

std::string body_of(const PlanResponse& response) {
  const std::string line = response.to_json();
  return line.substr(kEmptyIdPrefix.size(),
                     line.size() - kEmptyIdPrefix.size() - kMissTail.size());
}

}  // namespace

PlanService::IntraAnswer PlanService::render(IntraOptResult plan) {
  PlanResponse response;
  response.ok = true;
  response.kind = PlanRequest::Kind::kMatmul;
  response.intra = std::move(plan);
  std::string body = body_of(response);
  return IntraAnswer{*std::move(response.intra), std::move(body)};
}

PlanService::FusedAnswer PlanService::render(std::optional<FusedOptResult> plan) {
  PlanResponse response;
  response.ok = true;
  response.kind = PlanRequest::Kind::kFusedPair;
  response.fusable = plan.has_value();
  response.fused = std::move(plan);
  std::string body = body_of(response);
  return FusedAnswer{std::move(response.fused), std::move(body)};
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
std::shared_ptr<const Answer> PlanService::lookup_or_plan(SlotCache<Answer, N>& cache,
                                                          const std::string& key,
                                                          std::size_t slot,
                                                          ClosedForm&& closed_form,
                                                          bool* cached) {
  *cached = true;
  if (auto hit = probe(cache, key, slot)) return hit;
  const std::string flight_key = N == 1 ? key : key + (slot == 0 ? "#0" : "#1");
  const bool recording = span_recording_enabled();
  const std::int64_t flight_start_us = recording ? span_clock_us() : 0;
  bool leader = begin_flight(flight_key);
  if (!leader) {
    if (recording) record_span("single_flight_join", flight_start_us, span_clock_us(), "joined");
  } else if (cache.contains(key, [slot](const auto& entry) { return entry[slot] != nullptr; })) {
    // Another leader inserted this answer and ended its flight between our
    // probe and begin_flight: take its answer as a joiner would.
    end_flight(flight_key);
    leader = false;
  }
  if (!leader) {
    // A leader finished this exact computation; its answer is in the cache
    // unless it was evicted or the leader threw — fall through to compute
    // (idempotent) in those rare cases.
    if (auto hit = probe(cache, key, slot)) return hit;
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

PlanService::Served PlanService::serve(const PlanRequest& request) {
  const bool matmul = request.kind == PlanRequest::Kind::kMatmul;
  // Root the span tree here only for direct calls; pooled requests open the
  // request root inside the pool task (anchored at enqueue time, with a
  // queue_wait child), and this call inherits it as ambient.
  std::optional<ScopedSpan> root;
  if (span_recording_enabled() && !current_span().valid()) {
    root.emplace(matmul ? "request/matmul" : "request/fused_pair");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const BufferSize bs = request.buffer_elems;
  Served served;
  try {
    if (matmul) {
      std::optional<CanonicalIntraKey> key;
      {
        ScopedSpan canon("canonicalize");
        key = try_request_intra_key(request);
      }
      const auto closed_form = [&] { return optimize_intra(request.to_op(), bs); };
      // Out of the cache's scope means malformed: the closed form throws.
      served.intra = key ? lookup_or_plan(intra_cache_, key->text, key->swapped ? 1 : 0,
                                          closed_form, &served.cached)
                         : std::make_shared<const IntraAnswer>(render(closed_form()));
    } else {
      std::optional<std::string> key;
      {
        ScopedSpan canon("canonicalize");
        key = try_request_fused_key(request);
      }
      const auto closed_form = [&] { return optimize_fused_pair(request.to_pair(), bs); };
      served.fused = key ? lookup_or_plan(fused_cache_, *key, 0, closed_form, &served.cached)
                         : std::make_shared<const FusedAnswer>(render(closed_form()));
    }
  } catch (const std::exception& e) {
    served = Served{};
    served.error = e.what();
    request_errors_.add();
    log_error("serve", e.what(), {{"id", request.id}});
  }
  const double us = std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                              wall_start)
                        .count();
  requests_.add();
  (matmul ? latency_matmul_us_ : latency_fused_us_).observe(us);
  (served.cached ? latency_hit_us_ : latency_miss_us_).observe(us);
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

std::string PlanService::response_line(const std::string& id, const Served& served) {
  if (!served.ok()) return error_response(id, served.error).to_json();
  const std::string& body = served.intra ? served.intra->body : served.fused->body;
  const std::string escaped = JsonWriter::escape(id);
  const std::string_view tail = served.cached ? kHitTail : kMissTail;
  std::string line;
  // +1: room for the caller's newline framing without a reallocation.
  line.reserve(kEmptyIdPrefix.size() + escaped.size() + body.size() + tail.size() + 1);
  line.append("{\"id\":\"").append(escaped).append("\"").append(body).append(tail);
  return line;
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
  // Pool workers run the whole request on one thread, so opening the root
  // here (anchored at enqueue time) makes every span below it — including
  // the closed-form optimize spans — part of one connected tree.
  if (!span_recording_enabled()) return;
  const bool matmul = request.kind == PlanRequest::Kind::kMatmul;
  // Recording may have been armed after the request was enqueued; fall
  // back to "now" rather than anchoring at the clock origin.
  const std::int64_t anchor_us = enqueue_us > 0 ? enqueue_us : span_clock_us();
  root.emplace(matmul ? "request/matmul" : "request/fused_pair", anchor_us);
  record_span("queue_wait", anchor_us, span_clock_us());
}

PlanResponse PlanService::plan_enqueued(const PlanRequest& request, std::int64_t enqueue_us) {
  maybe_inject_pool_stall();
  std::optional<ScopedSpan> root;
  open_request_root(root, request, enqueue_us);
  return plan(request);
}

std::optional<PlanRequest> PlanService::parse_line(const std::string& line,
                                                   const std::string& source, int lineno,
                                                   std::string& error_line) {
  try {
    return parse_plan_request(line, source, lineno);
  } catch (const std::exception& e) {
    requests_.add();
    request_errors_.add();
    log_warn("serve", "malformed request line", {{"source", source}, {"error", e.what()}});
    error_line = error_response("", e.what()).to_json();
    return std::nullopt;
  }
}

std::string PlanService::answer_line(const PlanRequest& request, std::int64_t enqueue_us) {
  std::optional<ScopedSpan> root;
  open_request_root(root, request, enqueue_us);
  const Served served = serve(request);
  ScopedSpan serialize("serialize");
  return response_line(request.id, served);
}

std::string PlanService::plan_line_json(const std::string& line, const std::string& source,
                                        int lineno, std::int64_t enqueue_us, bool* parse_error) {
  maybe_inject_pool_stall();
  std::string error_line;
  const std::optional<PlanRequest> request = parse_line(line, source, lineno, error_line);
  if (parse_error != nullptr) *parse_error = !request;
  return request ? answer_line(*request, enqueue_us) : error_line;
}

int PlanService::serve_stream(std::istream& in, std::ostream& out, const std::string& source) {
  // Lines are parsed here, in input order, so an earlier line reaches the
  // pool (and leads the single flight of a repeated shape) first.
  struct Slot {
    std::string immediate;
    std::future<std::string> pending;
  };
  std::vector<Slot> slots;
  LineDecoder decoder(options_.max_line_bytes);
  int lineno = 0;
  const auto handle_line = [&](LineDecoder::DecodedLine&& line) {
    ++lineno;
    Slot slot;
    if (line.oversized) {
      request_errors_.add();
      log_warn("serve", "oversized request line", {{"line", std::to_string(lineno)}});
      slot.immediate = error_response("", oversized_line_message(source, lineno,
                                                                options_.max_line_bytes))
                           .to_json();
      slots.push_back(std::move(slot));
      return;
    }
    if (line.text.find_first_not_of(" \t\r") == std::string::npos) return;
    if (std::optional<PlanRequest> request = parse_line(line.text, source, lineno, slot.immediate)) {
      const std::int64_t enqueue_us = span_recording_enabled() ? span_clock_us() : 0;
      slot.pending = pool_.submit([this, request = *std::move(request), enqueue_us]() {
        maybe_inject_pool_stall();
        return answer_line(request, enqueue_us);
      });
    }
    slots.push_back(std::move(slot));
  };
  char chunk[64 * 1024];
  LineDecoder::DecodedLine line;
  while (in.read(chunk, sizeof(chunk)), in.gcount() > 0) {
    decoder.feed(chunk, static_cast<std::size_t>(in.gcount()));
    while (decoder.next(line)) handle_line(std::move(line));
  }
  if (decoder.finish(line)) handle_line(std::move(line));
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
