#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

/// \file fault.hpp
/// Deterministic, seeded fault injection for the net/serve stack.
///
/// A FaultPlan is a small schedule of one-shot fault events, each bound to a
/// *site class* (socket reads, socket writes, accept, the poller, the event
/// loop's clock, planning) and a *trigger*: either the Nth invocation of
/// that site since arm(), or — for the connection-killing errors — a
/// cumulative byte offset through that site.  The sites themselves are thin
/// shims (net/socket.hpp sys_recv/sys_send/sys_accept, Poller::wait,
/// Reactor::now_ms, the top of each plan in PlanService) that consult this
/// injector before touching the kernel.  The planning site runs at the top
/// of every miss's plan, on the thread that read the request line: a
/// reactor for TCP, serve_stream's caller for stdin.
///
/// Determinism and replay.  A plan is a pure function of its seed
/// (`FaultPlan::generate`), serializes to JSON, and round-trips through
/// `from_json` — the chaos harness (src/check/chaos.hpp) stores the plan in
/// its repro artifact and the shrinker re-runs trials with edited plans.
/// Which events actually *fire* in a multithreaded run can vary with
/// scheduling; the invariants the chaos harness asserts hold for every
/// firing pattern, so reports stay byte-identical across runs.
///
/// Cost when disarmed.  Every site hook begins with a single relaxed load
/// of a global atomic flag and returns immediately — the same discipline as
/// the obs/span.hpp instrumentation.  All heavier state (the plan, per-site
/// counters, a mutex) is only touched while a plan is armed.
///
/// Threading.  arm()/disarm() must not race with an armed server: arm
/// before starting the event loop (or while it is quiescent), disarm after
/// it stopped.  The site hooks themselves are thread-safe (every reactor
/// thread calls them).

namespace fusecu {
class JsonValue;
}

namespace fusecu::fault {

/// Injectable fault kinds.  The `at` trigger of an event is a site
/// invocation index for every kind except kReadReset/kWriteReset, where it
/// is a cumulative byte offset through that site.
enum class Kind {
  kShortRead,    ///< cap one recv to `arg` bytes (a short read, not an error)
  kShortWrite,   ///< cap one send to `arg` bytes
  kReadEintr,    ///< one recv returns -1/EINTR
  kWriteEintr,   ///< one send returns -1/EINTR
  kReadReset,    ///< recv fails ECONNRESET once >= `at` bytes were read
  kWriteReset,   ///< send fails EPIPE once >= `at` bytes were written
  kAcceptDefer,  ///< one accept reports EAGAIN (retried on next readiness)
  kAcceptEmfile, ///< one accept reports EMFILE (fd exhaustion)
  kSpuriousWake, ///< one poller wait returns no events without blocking
  kClockSkew,    ///< the loop clock jumps forward `arg` ms (permanently)
  kPoolStall,    ///< one plan sleeps `arg` microseconds before it starts
  kWorkerHang,   ///< one plan hangs `arg` microseconds (watchdog-scale)
  kReactorStall, ///< one reactor loop turn stalls `arg` microseconds
};
inline constexpr int kNumKinds = 13;

const char* to_string(Kind kind);
std::optional<Kind> kind_from_string(const std::string& name);

/// One scheduled one-shot fault.
struct FaultEvent {
  Kind kind = Kind::kShortRead;
  std::uint64_t at = 0;   ///< site invocation index, or byte offset (resets)
  std::uint64_t arg = 0;  ///< bytes cap / skew ms / stall us (kind-specific)
};

/// A JSON-serializable, seed-derived fault schedule.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Events of any of the connection-killing kinds (the chaos harness
  /// bounds "connections lost" by this).
  int reset_events() const;
  /// Per-kind event counts, indexed by static_cast<int>(Kind).
  std::vector<int> kind_counts() const;

  std::string to_json() const;
  /// Throws ParseError / std::invalid_argument on malformed input.
  static FaultPlan from_json(const std::string& text, const std::string& source = "<fault-plan>");
  /// Same, from an already-parsed JSON object (e.g. nested in a chaos repro).
  static FaultPlan from_json_value(const JsonValue& doc);

  /// Pure function of (seed, max_events): a splitmix64-seeded schedule with
  /// bounded, trial-friendly magnitudes (stalls <= 20 ms, skew <= 3 s,
  /// worker hangs <= 300 ms, reactor stalls <= 120 ms).
  static FaultPlan generate(std::uint64_t seed, int max_events = 12);
};

/// Intentional server bugs, armed alongside a plan so the chaos harness can
/// prove it *detects* broken invariants (mirrors CheckOptions::intra_mutator
/// for the optimizer oracles).  Never set in production runs.
enum class TestBug {
  kNone,
  kReorderResponses,  ///< NetServer flushes done slots back to front, out of request order
};

/// Injected outcome for one socket read/write.
struct IoFault {
  int error = 0;          ///< errno to fail with (EINTR/ECONNRESET/EPIPE); 0 = none
  std::uint64_t cap = 0;  ///< nonzero: cap the transfer length to this
};

/// True while a plan is armed — a single relaxed load; every site hook
/// checks it first.
bool armed();

/// Install \p plan (resetting all site counters and fired state) and start
/// injecting.  \p bug optionally arms an intentional server bug.
void arm(const FaultPlan& plan, TestBug bug = TestBug::kNone);

/// Stop injecting and clear the plan (fired counters survive until the next
/// arm() so callers can harvest them).
void disarm();

/// The armed intentional bug (kNone when disarmed).
TestBug test_bug();

// Site hooks.  Call only after a cheap armed() check (they recheck, but the
// caller owns the fast path).
IoFault on_read(std::size_t want_bytes);
IoFault on_write(std::size_t want_bytes);
void note_read_bytes(std::size_t n);   ///< cumulative; drives kReadReset
void note_write_bytes(std::size_t n);  ///< cumulative; drives kWriteReset
int on_accept();                       ///< errno to inject, or 0
bool on_poll();                        ///< true: report a spurious wakeup
std::int64_t clock_skew_ms();          ///< accumulated skew to add to now_ms
std::uint64_t on_pool_task();          ///< stall/hang in microseconds, or 0
std::uint64_t on_loop_turn();          ///< reactor-loop stall in microseconds, or 0

/// How many events of \p kind fired since the last arm().
std::int64_t fired_count(Kind kind);
std::int64_t fired_total();

/// RAII arm/disarm for tests and chaos trials.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan, TestBug bug = TestBug::kNone) {
    arm(plan, bug);
  }
  ~ScopedFaultPlan() { disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace fusecu::fault
