#include "check/chaos.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check/harness.hpp"
#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/canonical.hpp"
#include "serve/plan_service.hpp"

namespace fusecu {

namespace {

/// The requests one client connection pipelines, with their expected-id
/// sequence alongside.
struct ConnScript {
  std::vector<std::string> lines;  ///< request lines, no trailing '\n'
  std::vector<std::string> ids;
};

/// One trial's workload: planning budget and per-connection scripts — a
/// pure function of the trial seed.
struct TrialScript {
  int queue_depth = 64;
  std::vector<ConnScript> conns;
};

TrialScript script_for(std::uint64_t seed) {
  // Decorrelate from FaultPlan::generate(seed), which consumes the same
  // seed through the same engine.
  Rng rng(seed ^ 0xc4a05f0c9d1e2b37ull);
  TrialScript script;
  // Small budgets force sheds when a turn reads several pipelined misses;
  // 64 exercises the steady state.
  static constexpr int kDepths[] = {2, 4, 8, 64};
  script.queue_depth = kDepths[rng.pick(4)];
  const int conns = static_cast<int>(rng.uniform(2, 4));
  // Global request index: every request gets a distinct M, so no two
  // requests share a cache key.  Every response is
  // then a deterministic cache miss ("cached":false) and byte-identity
  // against the reference stream is exact regardless of arrival order.
  int g = 0;
  for (int c = 0; c < conns; ++c) {
    ConnScript conn;
    const int requests = static_cast<int>(rng.uniform(3, 12));
    for (int r = 0; r < requests; ++r, ++g) {
      const bool fused = rng.chance(0.25);
      const long long m = 4 + g;
      const long long k = 3 + static_cast<long long>(rng.uniform(0, 6));
      const long long l = m + 1 + static_cast<long long>(rng.uniform(0, 4));
      static constexpr long long kBuffers[] = {1024, 2048, 4096};
      const long long buffer_elems = kBuffers[rng.pick(3)];
      std::string id = "c" + std::to_string(c) + "-r" + std::to_string(r);
      std::string line = "{\"id\":\"" + id + "\",\"op\":\"" +
                         (fused ? "fused_pair" : "matmul") + "\",\"m\":" + std::to_string(m) +
                         ",\"k\":" + std::to_string(k) + ",\"l\":" + std::to_string(l);
      if (fused) {
        line += ",\"n\":" + std::to_string(3 + static_cast<long long>(rng.uniform(0, 3)));
      }
      line += ",\"buffer_elems\":" + std::to_string(buffer_elems) + "}";
      conn.lines.push_back(std::move(line));
      conn.ids.push_back(std::move(id));
    }
    script.conns.push_back(std::move(conn));
  }
  return script;
}

/// What one client thread observed.  Clients use the raw syscalls — the
/// injection shims are server-side only, so faults always land on the code
/// under test.
struct ClientResult {
  std::vector<std::string> lines;  ///< complete response lines received
  bool connect_failed = false;
  bool send_error = false;   ///< server cut the connection while we wrote
  bool clean_eof = false;
  bool hit_watchdog = false;
  std::string error;
};

bool send_all_raw(int fd, const std::string& data, std::string& error) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

ClientResult run_client(std::uint16_t port, const ConnScript& script, std::int64_t watchdog_ms) {
  ClientResult result;
  std::string error;
  const int fd = connect_tcp("127.0.0.1", port, error);
  if (fd < 0) {
    result.connect_failed = true;
    result.error = "connect: " + error;
    return result;
  }
  std::string payload;
  for (const std::string& line : script.lines) {
    payload += line;
    payload += '\n';
  }
  if (!send_all_raw(fd, payload, result.error)) {
    // A send error (EPIPE/ECONNRESET) means the server tore the connection
    // down under us; keep reading — responses already in flight still count
    // toward the ordering prefix.
    result.send_error = true;
  } else {
    ::shutdown(fd, SHUT_WR);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(watchdog_ms);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      result.hit_watchdog = true;
      break;
    }
    pollfd p = {};
    p.fd = fd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left, 200)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      result.error = std::strerror(errno);
      break;
    }
    if (pr == 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      result.clean_eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      // ECONNRESET here is the expected shape of an injected reset.
      result.error = std::strerror(errno);
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  close_fd(fd);
  // Only complete lines count as delivered; a trailing partial line means
  // the connection died mid-response.
  std::size_t start = 0;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    if (buffer[i] == '\n') {
      result.lines.push_back(buffer.substr(start, i - start));
      start = i + 1;
    }
  }
  return result;
}

/// Extract the "id" of a response line without a full JSON parse — the ids
/// are the harness's own escape-free "cN-rM" strings.
std::string id_of(const std::string& line) {
  const std::size_t pos = line.find("\"id\":\"");
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + 6;
  const std::size_t end = line.find('"', start);
  return end == std::string::npos ? std::string() : line.substr(start, end - start);
}

bool is_ok_response(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

/// How many of \p script's request lines spell a cache key: on a trial that
/// decoded every line, the lines that reached a cache probe.
std::int64_t keyed_lines(const TrialScript& script) {
  std::int64_t keyed = 0;
  PlanRequest request;
  std::string key;
  for (const ConnScript& conn : script.conns) {
    for (const std::string& line : conn.lines) {
      decode_plan_request(line, request, "<chaos-script>");
      if (spell_request_key(request, key)) ++keyed;
    }
  }
  return keyed;
}

/// The intra + fused cache counters that moved from \p before to \p after.
CacheStats cache_delta(const PlanService::Stats& before, const PlanService::Stats& after) {
  const CacheStats b = before.combined();
  const CacheStats a = after.combined();
  CacheStats delta;
  delta.hits = a.hits - b.hits;
  delta.misses = a.misses - b.misses;
  delta.insertions = a.insertions - b.insertions;
  return delta;
}

}  // namespace

ChaosTrialReport run_chaos_trial(std::uint64_t trial_seed, const fault::FaultPlan& plan,
                                 const ChaosOptions& opts) {
  ChaosTrialReport report;
  const TrialScript script = script_for(trial_seed);
  std::vector<ClientResult> results(script.conns.size());
  NetServer::Stats stats;
  std::int64_t served_requests = 0;  ///< this trial's delta of serve/requests
  std::int64_t failed_requests = 0;  ///< this trial's delta of serve/request_errors
  CacheStats cache;                  ///< this trial's deltas of the cache counters
  std::int64_t duplicate_plans = 0;  ///< this trial's delta of serve/duplicate_plans
  std::int64_t stalls = 0;           ///< reactor stalls the watchdog reported
  bool drain_stuck = false;
  {
    // Armed first, disarmed last: the whole serving lifetime runs under
    // the plan.
    fault::ScopedFaultPlan armed(plan, opts.bug);
    Counter& requests_counter = MetricsRegistry::global().counter("serve/requests");
    const std::int64_t requests_before = requests_counter.value();
    Counter& errors_counter = MetricsRegistry::global().counter("serve/request_errors");
    const std::int64_t errors_before = errors_counter.value();
    PlanService service;
    const PlanService::Stats cache_before = service.stats();
    NetServerOptions net_opts;
    net_opts.host = "127.0.0.1";
    net_opts.port = 0;
    net_opts.queue_depth = script.queue_depth;
    net_opts.reactors = opts.reactors;
    // Supervision is part of the surface under chaos: the watchdog reports
    // a reactor stalled by an injected stall or a hung plan.
    net_opts.watchdog_ms = opts.server_watchdog_ms;
    // Far above the watchdog plus any accumulated injected skew (<= 3 s per
    // event), so clock jumps can never idle-close a live connection.
    net_opts.idle_timeout_ms = 600'000;
    NetServer server(service, net_opts);
    const std::uint16_t port = server.port();
    std::atomic<bool> loop_done{false};
    std::thread loop([&] {
      server.run();
      loop_done.store(true, std::memory_order_release);
    });
    std::vector<std::thread> clients;
    clients.reserve(script.conns.size());
    for (std::size_t c = 0; c < script.conns.size(); ++c) {
      clients.emplace_back([&, c] { results[c] = run_client(port, script.conns[c], opts.watchdog_ms); });
    }
    for (std::thread& t : clients) t.join();
    server.request_drain();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(opts.watchdog_ms);
    while (!loop_done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!loop_done.load(std::memory_order_acquire)) {
      drain_stuck = true;
      server.request_drain();  // second request: hard stop
    }
    loop.join();
    stats = server.stats();
    served_requests = requests_counter.value() - requests_before;
    failed_requests = errors_counter.value() - errors_before;
    const PlanService::Stats cache_after = service.stats();
    cache = cache_delta(cache_before, cache_after);
    duplicate_plans = cache_after.duplicate_plans - cache_before.duplicate_plans;
    stalls = server.supervisor().stalls_detected();
  }

  report.checks_run = 8;

  // 1. Graceful drain: the loop returned inside the watchdog and closed
  // every connection it accepted.
  if (drain_stuck) {
    report.violations.push_back(
        {"net/drain_stuck", "request_drain() did not complete within the watchdog"});
  }
  if (stats.accepted != stats.closed) {
    report.violations.push_back(
        {"net/drain_leak", "accepted " + std::to_string(stats.accepted) + " connections, closed " +
                               std::to_string(stats.closed)});
  }

  // 2. Per-connection response order and id preservation (sheds included):
  // what each client read must be exactly a prefix of its request ids.
  int cut_conns = 0;
  for (std::size_t c = 0; c < script.conns.size(); ++c) {
    const ConnScript& conn = script.conns[c];
    const ClientResult& got = results[c];
    const std::string tag = "conn " + std::to_string(c);
    if (got.connect_failed) {
      report.violations.push_back({"net/connect_failed", tag + ": " + got.error});
      continue;
    }
    if (got.hit_watchdog) {
      report.violations.push_back(
          {"net/client_stuck", tag + " hit the read watchdog before EOF"});
    }
    if (got.lines.size() > conn.ids.size()) {
      report.violations.push_back(
          {"net/extra_response", tag + " received " + std::to_string(got.lines.size()) +
                                     " responses for " + std::to_string(conn.ids.size()) +
                                     " requests"});
    }
    const std::size_t prefix = std::min(got.lines.size(), conn.ids.size());
    for (std::size_t i = 0; i < prefix; ++i) {
      const std::string id = id_of(got.lines[i]);
      if (id != conn.ids[i]) {
        report.violations.push_back(
            {"net/response_order", tag + " position " + std::to_string(i) + ": expected id \"" +
                                       conn.ids[i] + "\", got \"" + id + "\""});
        break;  // every later slot is off by the same shift; one report
      }
    }
    if (got.lines.size() < conn.ids.size()) ++cut_conns;
  }

  // 3. No lost responses: a connection may come up short only when the plan
  // schedules a connection-killing fault, each of which cuts at most one
  // connection.
  if (cut_conns > plan.reset_events()) {
    report.violations.push_back(
        {"net/lost_response", std::to_string(cut_conns) + " connections missing responses, but the "
                                  "plan schedules only " +
                                  std::to_string(plan.reset_events()) +
                                  " connection-killing faults"});
  }

  // 4 + 5. Byte identity and overload shape.  The reference runs on a fresh
  // PlanService after teardown, when the injector is disarmed, so the
  // reference stream is the clean stdin-path output.
  std::map<std::string, std::string> expected;
  {
    ServeOptions ref_opts;
    ref_opts.threads = 1;
    PlanService reference(ref_opts);
    std::stringstream in, out;
    for (const ConnScript& conn : script.conns) {
      for (const std::string& line : conn.lines) in << line << '\n';
    }
    reference.serve_stream(in, out, "<chaos-ref>");
    std::string line;
    while (std::getline(out, line)) expected[id_of(line)] = line;
  }
  for (std::size_t c = 0; c < script.conns.size(); ++c) {
    const std::string tag = "conn " + std::to_string(c);
    for (const std::string& line : results[c].lines) {
      const std::string id = id_of(line);
      if (is_ok_response(line)) {
        const auto it = expected.find(id);
        if (it == expected.end()) {
          report.violations.push_back(
              {"net/byte_identity", tag + " response \"" + id + "\" has no reference line"});
        } else if (it->second != line) {
          report.violations.push_back(
              {"net/byte_identity", tag + " response \"" + id +
                                        "\" differs from the serve_stream reference: got " + line +
                                        ", want " + it->second});
        }
      } else if (line.find("overloaded") == std::string::npos) {
        report.violations.push_back(
            {"net/unexpected_error", tag + " non-ok response is not an overload shed: " + line});
      }
    }
  }

  // 6. Shed accounting and the watchdog.  These apply when nothing cut a
  // connection short and the drain did not get stuck.  (a) Every shed the
  // server counted reached a client as exactly one in-order response.
  // (b) The watchdog fires deterministically per plan: a worker hang stalls
  // the reactor planning the miss it hit, so a fired hang of at least twice
  // the budget (detection lags the budget by up to one sample period) must
  // have been reported as a stall.
  const bool whole = !drain_stuck && cut_conns == 0 && plan.reset_events() == 0;
  std::int64_t client_shed = 0;
  for (const ClientResult& got : results) {
    for (const std::string& line : got.lines) {
      if (!is_ok_response(line) && line.find("overloaded") != std::string::npos) ++client_shed;
    }
  }
  if (whole && client_shed != stats.shed) {
    report.violations.push_back(
        {"net/shed_accounting", "clients read " + std::to_string(client_shed) +
                                    " overload sheds but the server counted " +
                                    std::to_string(stats.shed)});
  }
  if (whole && opts.server_watchdog_ms > 0) {
    const std::uint64_t stall_us = static_cast<std::uint64_t>(2 * opts.server_watchdog_ms) * 1000;
    bool has_hang = false;
    bool all_hangs_long = true;
    for (const fault::FaultEvent& e : plan.events) {
      if (e.kind != fault::Kind::kWorkerHang) continue;
      has_hang = true;
      if (e.arg < stall_us) all_hangs_long = false;
    }
    if (has_hang && all_hangs_long && fault::fired_count(fault::Kind::kWorkerHang) > 0 &&
        stalls == 0) {
      report.violations.push_back(
          {"net/watchdog_missed", "a worker hang of >= " + std::to_string(stall_us) +
                                      " us fired on an uncut connection but the watchdog "
                                      "reported no reactor stall"});
    }
  }

  // 7. The request ledger, on the same whole trials: every response the
  // server wrote was a counted request or a shed, and every decoded request
  // line got exactly one response.
  if (whole && served_requests + stats.shed != stats.responses) {
    report.violations.push_back(
        {"net/ledger", "serve/requests " + std::to_string(served_requests) + " + shed " +
                           std::to_string(stats.shed) + " != responses " +
                           std::to_string(stats.responses)});
  }
  if (whole && stats.requests != stats.responses) {
    report.violations.push_back(
        {"net/ledger", "decoded " + std::to_string(stats.requests) + " request lines but wrote " +
                           std::to_string(stats.responses) + " responses"});
  }

  // 8. The cache ledger, on the same whole trials: every line that reached
  // the probe with a key made one counted lookup, and every miss that was
  // planned, neither shed nor failed, was stored once: an insertion, or a
  // duplicate plan when another reactor stored its key first.  Every script
  // line spells a key, so every shed is a miss, and a request error that is
  // not a malformed or oversized line is a planned miss that failed.
  if (whole) {
    const std::int64_t keyed = keyed_lines(script);
    if (cache.hits + cache.misses != keyed) {
      report.violations.push_back(
          {"serve/cache_ledger", "cache hits " + std::to_string(cache.hits) + " + misses " +
                                     std::to_string(cache.misses) + " != keyed request lines " +
                                     std::to_string(keyed)});
    }
    const std::int64_t failed = failed_requests - stats.parse_errors - stats.oversized_lines;
    const std::int64_t planned = cache.misses - stats.shed - failed;
    if (cache.insertions + duplicate_plans != planned) {
      report.violations.push_back(
          {"serve/cache_ledger", "cache insertions " + std::to_string(cache.insertions) +
                                     " + duplicate plans " + std::to_string(duplicate_plans) +
                                     " != planned misses " + std::to_string(planned)});
    }
  }
  return report;
}

ChaosResult run_chaos(const ChaosOptions& opts, std::ostream* progress) {
  ChaosResult result;
  Counter& trials_counter = MetricsRegistry::global().counter("chaos/trials");
  Counter& violations_counter = MetricsRegistry::global().counter("chaos/violations");
  static CounterFamily<fault::kNumKinds> fired_counters("chaos/fired/");
  for (int trial = 0; trial < opts.trials; ++trial) {
    const std::uint64_t seed = trial_seed(opts.seed, trial);
    const fault::FaultPlan plan = fault::FaultPlan::generate(seed, opts.max_events);
    const ChaosTrialReport report = run_chaos_trial(seed, plan, opts);
    trials_counter.add();
    // Fired counters survive disarm until the next arm: publish per-kind
    // coverage.  Which events fire depends on thread scheduling, so this is
    // metrics-only — the printed report carries plan-derived facts only and
    // stays byte-identical across runs.
    for (int k = 0; k < fault::kNumKinds; ++k) {
      const auto kind = static_cast<fault::Kind>(k);
      if (const std::int64_t fired = fault::fired_count(kind)) {
        fired_counters.at(static_cast<std::size_t>(k), fault::to_string(kind)).add(fired);
      }
    }
    ++result.trials_run;
    result.checks_run += report.checks_run;
    if (report.ok()) {
      if (progress) {
        *progress << "ok   chaos trial " << trial << " (seed " << seed << ", "
                  << plan.events.size() << " fault events)\n";
      }
      continue;
    }
    ++result.failed_trials;
    violations_counter.add(static_cast<std::int64_t>(report.violations.size()));
    log_warn("chaos", "trial failed",
             {{"trial", std::to_string(trial)},
              {"seed", std::to_string(seed)},
              {"events", std::to_string(plan.events.size())},
              {"first_invariant", report.violations.front().invariant}});
    if (progress) {
      *progress << "FAIL chaos trial " << trial << " (seed " << seed << ", "
                << plan.events.size() << " fault events): "
                << report.violations.front().invariant << ": "
                << report.violations.front().detail << "\n";
    }
    if (static_cast<int>(result.failures.size()) >= opts.max_failures) continue;
    ChaosFailure failure;
    failure.trial = trial;
    failure.seed = seed;
    failure.reactors = opts.reactors;
    failure.plan = plan;
    failure.violations = report.violations;
    if (opts.shrink) {
      failure.shrunk =
          shrink_fault_plan(seed, plan, report.violations.front().invariant, opts);
      if (progress) {
        *progress << "  shrunk to " << failure.shrunk.plan.events.size() << " fault events ("
                  << failure.shrunk.attempts << " attempts)\n";
      }
    } else {
      failure.shrunk.plan = plan;
      failure.shrunk.invariant = report.violations.front().invariant;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

ChaosShrinkResult shrink_fault_plan(std::uint64_t trial_seed, const fault::FaultPlan& failing,
                                    const std::string& invariant, const ChaosOptions& opts,
                                    int max_passes) {
  ChaosShrinkResult result;
  result.plan = failing;
  result.invariant = invariant;
  const auto still_fails = [&](const fault::FaultPlan& candidate) {
    ++result.attempts;
    const ChaosTrialReport report = run_chaos_trial(trial_seed, candidate, opts);
    for (const ChaosViolation& v : report.violations) {
      if (invariant.empty() || v.invariant == invariant) return true;
    }
    return false;
  };
  // The empty schedule first: when the defect is in the server rather than
  // fault-triggered (an armed TestBug, a real regression on the clean
  // path), this single probe is already the fixpoint.
  if (!result.plan.events.empty()) {
    fault::FaultPlan candidate = result.plan;
    candidate.events.clear();
    if (still_fails(candidate)) {
      result.plan = std::move(candidate);
      ++result.accepted;
    }
  }
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    // Drop each event (greedy first-accept, as in shrink_workload).
    for (std::size_t i = 0; i < result.plan.events.size();) {
      fault::FaultPlan candidate = result.plan;
      candidate.events.erase(candidate.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        result.plan = std::move(candidate);
        ++result.accepted;
        changed = true;
      } else {
        ++i;
      }
    }
    // Halve triggers and magnitudes.  `arg` floors at 1 — an arg of 0 turns
    // a cap/skew/stall event into a no-op, which would shrink *past* the
    // failure instead of toward it.
    for (std::size_t i = 0; i < result.plan.events.size(); ++i) {
      for (const bool shrink_arg : {false, true}) {
        fault::FaultPlan candidate = result.plan;
        std::uint64_t& value = shrink_arg ? candidate.events[i].arg : candidate.events[i].at;
        if (value <= (shrink_arg ? 1u : 0u)) continue;
        value /= 2;
        if (still_fails(candidate)) {
          result.plan = std::move(candidate);
          ++result.accepted;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return result;
}

std::string chaos_repro_to_json(const ChaosFailure& failure) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", "fusecu_chaos_repro/1");
  w.field("tool", "fusecu_check --chaos-trials");
  w.field("trial", failure.trial);
  // Seeds are full-width uint64: serialized as strings, like the fault-plan
  // schema, so a double-typed JSON number can't round them.
  w.field("seed", std::to_string(failure.seed));
  w.field("reactors", failure.reactors);
  w.key("violations");
  w.begin_array();
  for (const ChaosViolation& v : failure.violations) {
    w.begin_object();
    w.field("invariant", v.invariant);
    w.field("detail", v.detail);
    w.end_object();
  }
  w.end_array();
  w.key("plan");
  w.raw_value(failure.plan.to_json());
  w.key("shrunk_plan");
  w.raw_value(failure.shrunk.plan.to_json());
  w.field("shrunk_invariant", failure.shrunk.invariant);
  w.end_object();
  return out;
}

ChaosFailure chaos_repro_from_json(const std::string& text, const std::string& source) {
  const JsonValuePtr doc = parse_json(text, source);
  const JsonValuePtr schema = doc->get("schema");
  if (!schema || !schema->is_string() || schema->as_string() != "fusecu_chaos_repro/1") {
    throw std::invalid_argument(source + ": expected schema \"fusecu_chaos_repro/1\"");
  }
  ChaosFailure failure;
  if (const JsonValuePtr trial = doc->get("trial")) {
    failure.trial = static_cast<int>(trial->as_number());
  }
  if (const JsonValuePtr seed = doc->get("seed")) {
    failure.seed = seed->is_string() ? std::stoull(seed->as_string())
                                    : static_cast<std::uint64_t>(seed->as_number());
  }
  if (const JsonValuePtr reactors = doc->get("reactors")) {
    const double n = reactors->is_number() ? reactors->as_number() : 0.0;
    if (!(n >= 1.0 && n <= 256.0 && n == std::floor(n))) {
      throw std::invalid_argument(source +
                                  ": \"reactors\" must be an integer from 1 to 256; use 1 "
                                  "to replay a repro recorded at 0, which ran the same "
                                  "one-reactor server");
    }
    failure.reactors = static_cast<int>(n);
  }
  if (const JsonValuePtr plan = doc->get("plan")) {
    failure.plan = fault::FaultPlan::from_json_value(*plan);
  }
  if (const JsonValuePtr shrunk = doc->get("shrunk_plan")) {
    failure.shrunk.plan = fault::FaultPlan::from_json_value(*shrunk);
  }
  if (const JsonValuePtr invariant = doc->get("shrunk_invariant")) {
    failure.shrunk.invariant = invariant->as_string();
  }
  if (const JsonValuePtr violations = doc->get("violations")) {
    for (const JsonValuePtr& v : violations->as_array()) {
      ChaosViolation violation;
      if (const JsonValuePtr inv = v->get("invariant")) violation.invariant = inv->as_string();
      if (const JsonValuePtr detail = v->get("detail")) violation.detail = detail->as_string();
      failure.violations.push_back(std::move(violation));
    }
  }
  return failure;
}

ChaosTrialReport replay_chaos_repro(const ChaosFailure& failure, const ChaosOptions& opts) {
  // The shrunk plan is the artifact's point; an empty shrunk schedule with
  // no preserved invariant means shrinking never ran — fall back to the
  // original plan.
  const bool have_shrunk =
      !failure.shrunk.invariant.empty() || !failure.shrunk.plan.events.empty();
  // Replay with the reactor count the failure was found at, not the
  // caller's default — sharding changes scheduling enough to matter.
  ChaosOptions replay_opts = opts;
  replay_opts.reactors = failure.reactors;
  return run_chaos_trial(failure.seed, have_shrunk ? failure.shrunk.plan : failure.plan,
                         replay_opts);
}

}  // namespace fusecu
