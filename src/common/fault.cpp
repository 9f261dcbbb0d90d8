#include "common/fault.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"

namespace fusecu::fault {

namespace {

const char* const kKindNames[kNumKinds] = {
    "short_read",  "short_write",   "read_eintr",    "write_eintr",
    "read_reset",  "write_reset",   "accept_defer",  "accept_emfile",
    "spurious_wake", "clock_skew",  "pool_stall",    "worker_hang",
    "reactor_stall",
};

/// Site classes with independent invocation counters.
enum class Site { kRead, kWrite, kAccept, kPoll, kClock, kPool, kLoop };
inline constexpr int kNumSites = 7;

bool is_byte_triggered(Kind kind) {
  return kind == Kind::kReadReset || kind == Kind::kWriteReset;
}

// Fast-path flag plus cheap read-side atomics.  Everything else lives in
// the mutex-guarded State and is only touched while armed.
std::atomic<bool> g_armed{false};
std::atomic<int> g_test_bug{static_cast<int>(TestBug::kNone)};
std::atomic<std::int64_t> g_skew_ms{0};
std::atomic<std::int64_t> g_fired[kNumKinds] = {};

struct State {
  std::mutex mu;
  std::vector<FaultEvent> events;
  std::vector<bool> fired;
  std::uint64_t calls[kNumSites] = {};
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};

State& state() {
  static State s;
  return s;
}

void mark_fired(State& s, std::size_t i) {
  s.fired[i] = true;
  g_fired[static_cast<int>(s.events[i].kind)].fetch_add(1, std::memory_order_relaxed);
}

/// First unfired event of \p kind due at this site invocation (or, for
/// byte-triggered kinds, at the current cumulative byte count).  Call with
/// s.mu held; the invocation index was already consumed by the caller.
std::optional<std::size_t> due_event(State& s, Kind kind, std::uint64_t index,
                                     std::uint64_t cum_bytes) {
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.fired[i] || s.events[i].kind != kind) continue;
    if (is_byte_triggered(kind) ? cum_bytes >= s.events[i].at : s.events[i].at == index) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace

const char* to_string(Kind kind) { return kKindNames[static_cast<int>(kind)]; }

std::optional<Kind> kind_from_string(const std::string& name) {
  for (int i = 0; i < kNumKinds; ++i) {
    if (name == kKindNames[i]) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

int FaultPlan::reset_events() const {
  int n = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == Kind::kReadReset || e.kind == Kind::kWriteReset) ++n;
  }
  return n;
}

std::vector<int> FaultPlan::kind_counts() const {
  std::vector<int> counts(kNumKinds, 0);
  for (const FaultEvent& e : events) ++counts[static_cast<int>(e.kind)];
  return counts;
}

std::string FaultPlan::to_json() const {
  std::string out;
  JsonWriter jw(out);
  jw.begin_object();
  jw.field("schema", "fusecu_fault_plan/1");
  // Seeds are full 64-bit splitmix64 outputs; a string survives the JSON
  // number path (double) losslessly.
  jw.field("seed", std::to_string(seed));
  jw.key("events");
  jw.begin_array();
  for (const FaultEvent& e : events) {
    jw.begin_object();
    jw.field("kind", to_string(e.kind));
    jw.field("at", static_cast<std::int64_t>(e.at));
    jw.field("arg", static_cast<std::int64_t>(e.arg));
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  return out;
}

FaultPlan FaultPlan::from_json(const std::string& text, const std::string& source) {
  return from_json_value(*parse_json(text, source));
}

FaultPlan FaultPlan::from_json_value(const JsonValue& doc) {
  FaultPlan plan;
  if (const JsonValuePtr schema = doc.get("schema")) {
    if (schema->as_string() != "fusecu_fault_plan/1") {
      throw std::invalid_argument("unsupported fault-plan schema: " + schema->as_string());
    }
  }
  if (const JsonValuePtr seed = doc.get("seed")) {
    plan.seed = std::stoull(seed->as_string());
  }
  const JsonValuePtr events = doc.get("events");
  if (!events) throw std::invalid_argument("fault plan missing \"events\"");
  for (const JsonValuePtr& entry : events->as_array()) {
    FaultEvent e;
    const JsonValuePtr kind = entry->get("kind");
    if (!kind) throw std::invalid_argument("fault event missing \"kind\"");
    const std::optional<Kind> parsed = kind_from_string(kind->as_string());
    if (!parsed) throw std::invalid_argument("unknown fault kind: " + kind->as_string());
    e.kind = *parsed;
    if (const JsonValuePtr at = entry->get("at")) {
      e.at = static_cast<std::uint64_t>(at->as_number());
    }
    if (const JsonValuePtr arg = entry->get("arg")) {
      e.arg = static_cast<std::uint64_t>(arg->as_number());
    }
    plan.events.push_back(e);
  }
  return plan;
}

FaultPlan FaultPlan::generate(std::uint64_t seed, int max_events) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  const int count = static_cast<int>(rng.uniform(0, std::max(0, max_events)));
  plan.events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = static_cast<Kind>(rng.uniform(0, kNumKinds - 1));
    switch (e.kind) {
      case Kind::kShortRead:
      case Kind::kShortWrite:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 63));
        e.arg = static_cast<std::uint64_t>(rng.uniform(1, 16));  // byte cap
        break;
      case Kind::kReadEintr:
      case Kind::kWriteEintr:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 63));
        break;
      case Kind::kReadReset:
      case Kind::kWriteReset:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 8192));  // byte offset
        break;
      case Kind::kAcceptDefer:
      case Kind::kAcceptEmfile:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 7));
        break;
      case Kind::kSpuriousWake:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 199));
        break;
      case Kind::kClockSkew:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 199));
        e.arg = static_cast<std::uint64_t>(rng.uniform(500, 3000));  // ms
        break;
      case Kind::kPoolStall:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 47));
        e.arg = static_cast<std::uint64_t>(rng.uniform(100, 20'000));  // us
        break;
      case Kind::kWorkerHang:
        // Watchdog-scale: long enough that any reasonable --watchdog-ms
        // budget (tens of ms) classifies the task as hung.
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 47));
        e.arg = static_cast<std::uint64_t>(rng.uniform(100'000, 300'000));  // us
        break;
      case Kind::kReactorStall:
        e.at = static_cast<std::uint64_t>(rng.uniform(0, 199));
        e.arg = static_cast<std::uint64_t>(rng.uniform(20, 120)) * 1000;  // us
        break;
    }
    plan.events.push_back(e);
  }
  return plan;
}

bool armed() { return g_armed.load(std::memory_order_relaxed); }

void arm(const FaultPlan& plan, TestBug bug) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events = plan.events;
  s.fired.assign(s.events.size(), false);
  for (auto& c : s.calls) c = 0;
  s.read_bytes = 0;
  s.write_bytes = 0;
  g_skew_ms.store(0, std::memory_order_relaxed);
  for (auto& f : g_fired) f.store(0, std::memory_order_relaxed);
  g_test_bug.store(static_cast<int>(bug), std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void disarm() {
  g_armed.store(false, std::memory_order_release);
  g_test_bug.store(static_cast<int>(TestBug::kNone), std::memory_order_relaxed);
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.fired.clear();
}

TestBug test_bug() {
  if (!armed()) return TestBug::kNone;
  return static_cast<TestBug>(g_test_bug.load(std::memory_order_relaxed));
}

namespace {

IoFault on_io(Site site, Kind reset_kind, Kind eintr_kind, Kind short_kind, int reset_errno) {
  IoFault fault;
  if (!armed()) return fault;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t cum_bytes = site == Site::kRead ? s.read_bytes : s.write_bytes;
  const std::uint64_t index = s.calls[static_cast<int>(site)]++;
  // A reset beats the benign faults: it is the one that tears state down.
  if (auto i = due_event(s, reset_kind, index, cum_bytes)) {
    mark_fired(s, *i);
    fault.error = reset_errno;
    return fault;
  }
  if (auto i = due_event(s, eintr_kind, index, cum_bytes)) {
    mark_fired(s, *i);
    fault.error = EINTR;
    return fault;
  }
  if (auto i = due_event(s, short_kind, index, cum_bytes)) {
    mark_fired(s, *i);
    fault.cap = std::max<std::uint64_t>(1, s.events[*i].arg);
  }
  return fault;
}

}  // namespace

IoFault on_read(std::size_t) {
  return on_io(Site::kRead, Kind::kReadReset, Kind::kReadEintr, Kind::kShortRead, ECONNRESET);
}

IoFault on_write(std::size_t) {
  return on_io(Site::kWrite, Kind::kWriteReset, Kind::kWriteEintr, Kind::kShortWrite, EPIPE);
}

void note_read_bytes(std::size_t n) {
  if (!armed()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.read_bytes += n;
}

void note_write_bytes(std::size_t n) {
  if (!armed()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.write_bytes += n;
}

int on_accept() {
  if (!armed()) return 0;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t index = s.calls[static_cast<int>(Site::kAccept)]++;
  if (auto i = due_event(s, Kind::kAcceptEmfile, index, 0)) {
    mark_fired(s, *i);
    return EMFILE;
  }
  if (auto i = due_event(s, Kind::kAcceptDefer, index, 0)) {
    mark_fired(s, *i);
    return EAGAIN;
  }
  return 0;
}

bool on_poll() {
  if (!armed()) return false;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t index = s.calls[static_cast<int>(Site::kPoll)]++;
  if (auto i = due_event(s, Kind::kSpuriousWake, index, 0)) {
    mark_fired(s, *i);
    return true;
  }
  return false;
}

std::int64_t clock_skew_ms() {
  if (!armed()) return 0;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t index = s.calls[static_cast<int>(Site::kClock)]++;
  if (auto i = due_event(s, Kind::kClockSkew, index, 0)) {
    mark_fired(s, *i);
    g_skew_ms.fetch_add(static_cast<std::int64_t>(s.events[*i].arg), std::memory_order_relaxed);
  }
  return g_skew_ms.load(std::memory_order_relaxed);
}

std::uint64_t on_pool_task() {
  if (!armed()) return 0;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t index = s.calls[static_cast<int>(Site::kPool)]++;
  // Both pool-site kinds share the invocation counter; a stall and a hang
  // due at the same index sum (the task sleeps once for the total).
  std::uint64_t total = 0;
  if (auto i = due_event(s, Kind::kPoolStall, index, 0)) {
    mark_fired(s, *i);
    total += std::min<std::uint64_t>(s.events[*i].arg, 50'000);  // hard 50ms cap
  }
  if (auto i = due_event(s, Kind::kWorkerHang, index, 0)) {
    mark_fired(s, *i);
    total += std::min<std::uint64_t>(s.events[*i].arg, 500'000);  // hard 500ms cap
  }
  return total;
}

std::uint64_t on_loop_turn() {
  if (!armed()) return 0;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t index = s.calls[static_cast<int>(Site::kLoop)]++;
  if (auto i = due_event(s, Kind::kReactorStall, index, 0)) {
    mark_fired(s, *i);
    return std::min<std::uint64_t>(s.events[*i].arg, 300'000);  // hard 300ms cap
  }
  return 0;
}

std::int64_t fired_count(Kind kind) {
  return g_fired[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

std::int64_t fired_total() {
  std::int64_t total = 0;
  for (int i = 0; i < kNumKinds; ++i) total += g_fired[i].load(std::memory_order_relaxed);
  return total;
}

}  // namespace fusecu::fault
