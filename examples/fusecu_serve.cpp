/// \file fusecu_serve.cpp
/// JSONL planning server front-end for the plan service.
///
///   fusecu_serve [--input FILE] [--threads N] [--cache-mb MB] [--shards N]
///                [--listen HOST:PORT] [--reactors N]
///                [--max-conns N] [--queue-depth N] [--idle-timeout-ms MS]
///                [--watchdog-ms MS] [--max-line-bytes BYTES] [--port-file FILE]
///                [--fault-plan FILE]
///                [--stats] [--stats-interval SEC] [--stats-out FILE]
///                [--metrics-out m.json] [--trace-out t.json]
///                [--log-out l.jsonl] [--log-level LEVEL] [--flight-out f.json]
///
/// Reads one JSON planning request per line (stdin by default), answers one
/// JSON response per request line on stdout, in request order.  Each line
/// is answered as it arrives: a cache miss is planned on the reading
/// thread, canonicalized repeats are served from the sharded plan cache,
/// and an answer is flushed whenever no more input is waiting, so a client
/// that keeps stdin open reads each answer before it writes the next line.
/// See src/serve/plan_request.hpp for the wire format.
///
/// A malformed line never kills the stream: it produces an ok=false response
/// whose error message names the input, line and expected token.  Lines
/// longer than --max-line-bytes (default 1 MiB) are answered the same way
/// instead of being buffered without bound.
///
///   $ echo '{"id":"q","op":"matmul","m":512,"k":512,"l":512,"buffer":"512KB"}' |
///       fusecu_serve
///   {"id":"q","ok":true,"kind":"matmul","rule":"P2(untile=K)",...}
///
/// With --listen HOST:PORT the same JSONL protocol is served over TCP by
/// --reactors N sharded event loops (src/net/server.hpp; default = hardware
/// threads, at least 1; reactor 0 runs on the main thread; it owns the
/// listener and hands accepted connections round-robin to every reactor):
/// pipelined requests per connection answered in order, each request
/// answered in the loop turn that read it — a plan-cache hit from the
/// cache, a miss planned by the reactor itself — a per-reactor planning
/// budget of --queue-depth misses per loop turn with ok=false "overloaded"
/// shedding past it, idle-connection timeouts (--idle-timeout-ms) and
/// SIGINT/SIGTERM graceful drain (stop accepting, flush every answer,
/// flush stats/metrics/trace; a second signal hard-stops).  --threads is
/// accepted and range-checked but sizes nothing: TCP scales over
/// --reactors, and stdin is answered on one thread.
/// Port 0 picks a free port; the bound address is printed to stderr and
/// written to --port-file when given.
///
/// --watchdog-ms MS (0 = off) arms supervision: a watchdog thread samples
/// each reactor's loop heartbeat and reports a loop that misses the budget
/// (`net/watchdog/stalls`, structured log, flight-recorder dump) — a plan
/// that hangs stalls its reactor and is reported this way.
///
///   $ fusecu_serve --listen 127.0.0.1:7411 --reactors 4 --queue-depth 256 &
///   $ printf '%s\n' '{"id":"q","op":"matmul",...}' | nc 127.0.0.1 7411
///
/// --fault-plan FILE arms a deterministic fault-injection schedule (a
/// fusecu_fault_plan/1 JSON document — see src/common/fault.hpp; a chaos
/// repro's "plan"/"shrunk_plan" member is one) before serving:
/// short reads/writes, EINTR, connection resets, deferred accepts, spurious
/// wakeups, clock skew, pool stalls, worker hangs and reactor stalls fire
/// at their scheduled sites (pool stalls and worker hangs at the top of a
/// miss's plan, on the thread that read its line).
///
/// Out-of-range numbers are usage errors: a count flag below 1 or a
/// timeout below 0 prints "error: --X must be at least N, got V" and the
/// usage text, and exits 2.
/// Debug/ops tooling only — never enable in production.
///
/// --stats prints cache hit/miss/eviction and duplicate-plan totals to
/// stderr on exit.
/// --stats-interval SEC emits one stats line per period while serving —
/// qps and cache hit rate over the period, latency p50/p95/p99 cumulative —
/// to stderr, or to --stats-out FILE when given; the final partial period
/// is flushed as one last line on shutdown.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include <sstream>

#include "common/cli.hpp"
#include "common/fault.hpp"
#include "net/server.hpp"
#include "obs/obs_session.hpp"
#include "serve/plan_service.hpp"
#include "serve/stats_reporter.hpp"

using namespace fusecu;

namespace {

const char* const kUsage =
    "usage: fusecu_serve [--input FILE] [--threads N] [--cache-mb MB] [--shards N]\n"
    "                    [--listen HOST:PORT] [--reactors N]\n"
    "                    [--max-conns N] [--queue-depth N] [--idle-timeout-ms MS]\n"
    "                    [--watchdog-ms MS] [--max-line-bytes BYTES] [--port-file FILE]\n"
    "                    [--fault-plan FILE]\n"
    "                    [--stats] [--stats-interval SEC] [--stats-out FILE]\n"
    "                    [--metrics-out FILE] [--trace-out FILE] [--log-out FILE]\n"
    "                    [--log-level LEVEL] [--flight-out FILE]\n"
    "Reads JSONL planning requests (stdin by default) and answers one JSON line each,\n"
    "as it arrives.  With --listen, each reactor answers hits from the cache and plans\n"
    "misses itself; --queue-depth caps the misses a reactor plans per loop turn and\n"
    "sheds the rest.  --threads sizes nothing (kept for compatibility).\n"
    "--threads, --cache-mb, --shards, --reactors, --max-conns, --queue-depth and\n"
    "--max-line-bytes must be at least 1; --idle-timeout-ms and --watchdog-ms at least 0.\n";

/// Signal-handler target: handlers may only do async-signal-safe work, and
/// NetServer::request_drain (atomic bump + pipe write) qualifies.
std::atomic<NetServer*> g_net_server{nullptr};

void on_stop_signal(int) {
  if (NetServer* server = g_net_server.load(std::memory_order_acquire)) {
    server->request_drain();
  }
}

void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the loop's poll should wake immediately
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A dead client mid-write must be a connection error, not process death.
  signal(SIGPIPE, SIG_IGN);
}

}  // namespace

int main(int argc, char** argv) {
  // std::cin gets its own buffer, so serve_stream can take the bytes already
  // read without blocking for more; serve_stream flushes std::cout itself.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  ObsSession obs(argc, argv);
  try {
    ArgParser args({"--stats"},
                   {"--input", "--threads", "--cache-mb", "--shards", "--stats-interval",
                    "--stats-out", "--listen", "--reactors", "--max-conns",
                    "--queue-depth", "--idle-timeout-ms", "--watchdog-ms",
                    "--max-line-bytes", "--port-file", "--fault-plan"});
    args.parse_or_exit(argc, argv, kUsage);
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const Index reactors = args.option_int("--reactors", std::max(1, hw));
    const Index threads = args.option_int("--threads", 4);
    const Index cache_mb = args.option_int("--cache-mb", 64);
    const Index shards = args.option_int("--shards", 8);
    const Index max_conns = args.option_int("--max-conns", 256);
    const Index queue_depth = args.option_int("--queue-depth", 128);
    const std::int64_t max_line_bytes = args.option_bytes("--max-line-bytes", 1 << 20);
    const Index idle_timeout_ms = args.option_int("--idle-timeout-ms", 60'000);
    const Index watchdog_ms = args.option_int("--watchdog-ms", 0);
    const auto at_least = [](const char* flag, std::int64_t value, std::int64_t min) {
      if (value >= min) return true;
      std::cerr << "error: " << flag << " must be at least " << min << ", got " << value << "\n"
                << kUsage;
      return false;
    };
    if (!at_least("--reactors", reactors, 1) || !at_least("--threads", threads, 1) ||
        !at_least("--cache-mb", cache_mb, 1) || !at_least("--shards", shards, 1) ||
        !at_least("--max-conns", max_conns, 1) || !at_least("--queue-depth", queue_depth, 1) ||
        !at_least("--max-line-bytes", max_line_bytes, 1) ||
        !at_least("--idle-timeout-ms", idle_timeout_ms, 0) ||
        !at_least("--watchdog-ms", watchdog_ms, 0)) {
      return 2;
    }

    // Armed before the service exists so plan-stall and worker-hang events
    // cover the whole serving lifetime; disarmed implicitly at process exit.
    if (auto fault_path = args.option("--fault-plan")) {
      std::ifstream fault_file(*fault_path);
      if (!fault_file) {
        std::cerr << "error: cannot open --fault-plan " << *fault_path << "\n";
        return 1;
      }
      std::stringstream fault_text;
      fault_text << fault_file.rdbuf();
      const fault::FaultPlan plan = fault::FaultPlan::from_json(fault_text.str(), *fault_path);
      fault::arm(plan);
      std::cerr << "fault plan armed: " << plan.events.size() << " events (seed " << plan.seed
                << ") — debug mode, not for production\n";
    }

    ServeOptions options;
    options.threads = static_cast<int>(threads);
    options.cache_bytes = static_cast<std::size_t>(cache_mb) * 1024 * 1024;
    options.shards = static_cast<int>(shards);
    options.max_line_bytes = static_cast<std::size_t>(max_line_bytes);
    PlanService service(options);

    std::unique_ptr<std::ofstream> stats_file;
    std::unique_ptr<StatsReporter> reporter;
    if (auto interval = args.option("--stats-interval")) {
      const double seconds = std::stod(*interval);
      if (!(seconds > 0.0)) {
        std::cerr << "error: --stats-interval expects a positive number of seconds\n";
        return 1;
      }
      std::ostream* sink = &std::cerr;
      if (auto stats_path = args.option("--stats-out")) {
        stats_file = std::make_unique<std::ofstream>(*stats_path);
        if (!*stats_file) {
          std::cerr << "error: cannot open " << *stats_path << "\n";
          return 1;
        }
        sink = stats_file.get();
      }
      reporter = std::make_unique<StatsReporter>(service, seconds, *sink);
    }

    std::int64_t served = 0;
    if (auto listen = args.option("--listen")) {
      std::optional<HostPort> hp = parse_host_port(*listen);
      if (!hp) {
        std::cerr << "error: --listen expects HOST:PORT, got \"" << *listen << "\"\n";
        return 1;
      }
      NetServerOptions net;
      net.host = hp->host.empty() ? "127.0.0.1" : hp->host;
      net.port = hp->port;
      net.max_conns = static_cast<int>(max_conns);
      net.queue_depth = static_cast<int>(queue_depth);
      net.idle_timeout_ms = idle_timeout_ms;
      net.watchdog_ms = watchdog_ms;
      net.max_line_bytes = options.max_line_bytes;
      net.reactors = static_cast<int>(reactors);
      NetServer server(service, net);
      std::cerr << "listening on " << server.bound().host << ":" << server.port() << " ("
                << server.reactor_count() << " reactor"
                << (server.reactor_count() == 1 ? "" : "s") << ")\n";
      if (auto port_path = args.option("--port-file")) {
        std::ofstream port_file(*port_path);
        if (!port_file) {
          std::cerr << "error: cannot open " << *port_path << "\n";
          return 1;
        }
        port_file << server.port() << "\n";
      }
      g_net_server.store(&server, std::memory_order_release);
      install_stop_handlers();
      server.run();  // returns after SIGINT/SIGTERM drain
      g_net_server.store(nullptr, std::memory_order_release);
      const NetServer::Stats net_stats = server.stats();
      served = net_stats.responses;
      std::cerr << "drained: " << net_stats.responses << " responses over "
                << net_stats.accepted << " connections; shed " << net_stats.shed
                << ", parse errors " << net_stats.parse_errors << "\n";
    } else if (auto path = args.option("--input")) {
      std::ifstream in(*path);
      if (!in) {
        std::cerr << "error: cannot open " << *path << "\n";
        return 1;
      }
      served = service.serve_stream(in, std::cout, *path);
    } else {
      served = service.serve_stream(std::cin, std::cout, "<stdin>");
    }
    reporter.reset();  // flushes the final partial stats period

    if (args.has_flag("--stats")) {
      const PlanService::Stats stats = service.stats();
      const CacheStats all = stats.combined();
      std::cerr << "served " << served << " requests; cache hits " << all.hits << ", misses "
                << all.misses << ", evictions " << all.evictions << ", entries " << all.entries
                << "; duplicate plans " << stats.duplicate_plans << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
