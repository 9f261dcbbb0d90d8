#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "common/json_writer.hpp"
#include "common/timeutil.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace fusecu {

namespace {

void copy_truncated(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

// ---- async-signal-safe formatting helpers (no stdio, no allocation) ----

std::size_t format_u64(char* buf, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t format_i64(char* buf, std::int64_t v) {
  if (v < 0) {
    buf[0] = '-';
    return 1 + format_u64(buf + 1, static_cast<std::uint64_t>(-(v + 1)) + 1);
  }
  return format_u64(buf, static_cast<std::uint64_t>(v));
}

std::size_t format_hex64(char* buf, std::uint64_t v) {
  static const char digits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = digits[(v >> (4 * i)) & 0xf];
  }
  return 16;
}

/// Tiny line builder over a caller-provided buffer; silently truncates.
class LineBuf {
 public:
  LineBuf(char* buf, std::size_t cap) : buf_(buf), cap_(cap) {}
  void str(const char* s) {
    while (*s != '\0' && len_ + 1 < cap_) buf_[len_++] = *s++;
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    append(tmp, format_u64(tmp, v));
  }
  void i64(std::int64_t v) {
    char tmp[21];
    append(tmp, format_i64(tmp, v));
  }
  void hex64(std::uint64_t v) {
    char tmp[16];
    append(tmp, format_hex64(tmp, v));
  }
  const char* data() const { return buf_; }
  std::size_t size() const { return len_; }
  void clear() { len_ = 0; }

 private:
  void append(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n && len_ + 1 < cap_; ++i) buf_[len_++] = s[i];
  }
  char* buf_;
  std::size_t cap_;
  std::size_t len_ = 0;
};

void write_all(int fd, const char* data, std::size_t len) {
#ifndef _WIN32
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;  // best effort; nothing sane to do in a handler
    off += static_cast<std::size_t>(n);
  }
#else
  (void)fd;
  (void)data;
  (void)len;
#endif
}

std::atomic<int> g_crash_fd{-1};

#ifndef _WIN32
void crash_handler(int signo) {
  const int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char buf[64];
    LineBuf line(buf, sizeof(buf));
    line.str("=== flight recorder crash dump (signal ");
    line.i64(signo);
    line.str(") ===\n");
    write_all(fd, line.data(), line.size());
    FlightRecorder::global().dump_signal_safe(fd);
    ::fsync(fd);
  }
  // Re-raise with the default disposition so the process still dies with
  // the original signal (handlers were installed with SA_RESETHAND).
  ::raise(signo);
}
#endif

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // never destroyed
  return *instance;
}

void FlightRecorder::arm(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(arm_mu_);
  if (rings_ == nullptr) {
    // Ring capacity is fixed by the first arm(); the rings are never freed
    // or reallocated, so recorders racing arm()/disarm() stay safe.
    const std::size_t capacity = std::max<std::size_t>(16, events_per_thread);
    auto rings = std::make_unique<ThreadRing[]>(kMaxThreads);
    for (int i = 0; i < kMaxThreads; ++i) rings[i].slots.resize(capacity);
    rings_ = std::move(rings);
    ring_capacity_ = capacity;
  }
  refresh_metrics_index_locked();
  armed_.store(true, std::memory_order_release);
  Logger::global().set_mirror_to_flight(true);
}

void FlightRecorder::disarm() {
  std::lock_guard<std::mutex> lock(arm_mu_);
  armed_.store(false, std::memory_order_release);
  Logger::global().set_mirror_to_flight(false);
}

FlightEvent* FlightRecorder::claim_slot(int thread_index, std::uint64_t* seq_out) {
  if (!armed()) return nullptr;
  ThreadRing* rings = rings_.get();
  if (rings == nullptr || ring_capacity_ == 0) return nullptr;
  const int ring_index = std::min(thread_index, kMaxThreads - 1);
  ThreadRing& ring = rings[ring_index];
  const std::uint64_t ordinal = ring.head.fetch_add(1, std::memory_order_relaxed);
  *seq_out = next_seq_.fetch_add(1, std::memory_order_relaxed);
  return &ring.slots[static_cast<std::size_t>(ordinal % ring_capacity_)];
}

void FlightRecorder::record_span(const SpanRecord& span) {
  std::uint64_t seq = 0;
  FlightEvent* slot = claim_slot(span.thread_index, &seq);
  if (slot == nullptr) return;
  FlightEvent e;
  e.seq = seq;
  e.t_us = span.start_us;
  e.duration_us = span.duration_us;
  e.trace_id = span.context.trace_id;
  e.span_id = span.context.span_id;
  e.parent_span_id = span.context.parent_span_id;
  e.kind = 0;
  e.thread = static_cast<std::uint16_t>(std::min(span.thread_index, kMaxThreads - 1));
  copy_truncated(e.name, FlightEvent::kNameCap, span.name.c_str());
  copy_truncated(e.detail, FlightEvent::kDetailCap, span.detail.c_str());
  *slot = e;
}

void FlightRecorder::record_log(int level, const char* component, const std::string& message,
                                SpanContext span, std::int64_t ts_us) {
  const int thread_index = obs_thread_index();
  std::uint64_t seq = 0;
  FlightEvent* slot = claim_slot(thread_index, &seq);
  if (slot == nullptr) return;
  FlightEvent e;
  e.seq = seq;
  e.t_us = ts_us;
  e.trace_id = span.trace_id;
  e.span_id = span.span_id;
  e.parent_span_id = span.parent_span_id;
  e.kind = 1;
  e.level = static_cast<std::uint8_t>(level);
  e.thread = static_cast<std::uint16_t>(std::min(thread_index, kMaxThreads - 1));
  copy_truncated(e.name, FlightEvent::kNameCap, component);
  copy_truncated(e.detail, FlightEvent::kDetailCap, message.c_str());
  *slot = e;
}

std::uint64_t FlightRecorder::recorded() const {
  const ThreadRing* rings = rings_.get();
  if (rings == nullptr) return 0;
  std::uint64_t total = 0;
  for (int i = 0; i < kMaxThreads; ++i) total += rings[i].head.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t FlightRecorder::overwritten() const {
  const ThreadRing* rings = rings_.get();
  if (rings == nullptr || ring_capacity_ == 0) return 0;
  std::uint64_t total = 0;
  for (int i = 0; i < kMaxThreads; ++i) {
    const std::uint64_t head = rings[i].head.load(std::memory_order_relaxed);
    if (head > ring_capacity_) total += head - ring_capacity_;
  }
  return total;
}

void FlightRecorder::dump_json(std::ostream& os) const {
  // Collect retained events from every ring and order them globally.
  std::vector<FlightEvent> events;
  const ThreadRing* rings = rings_.get();
  if (rings != nullptr && ring_capacity_ > 0) {
    for (int i = 0; i < kMaxThreads; ++i) {
      const ThreadRing& ring = rings[i];
      const std::uint64_t head = ring.head.load(std::memory_order_acquire);
      const std::uint64_t retained = std::min<std::uint64_t>(head, ring_capacity_);
      for (std::uint64_t k = 0; k < retained; ++k) {
        const FlightEvent& e = ring.slots[static_cast<std::size_t>((head - retained + k) %
                                                                   ring_capacity_)];
        if (e.seq != 0) events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });

  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("exported_at", rfc3339_utc_now());
  w.field("armed", armed());
  w.field("events_per_thread", static_cast<std::int64_t>(ring_capacity_));
  w.field("recorded", static_cast<std::int64_t>(recorded()));
  w.field("overwritten", static_cast<std::int64_t>(overwritten()));
  w.key("events");
  w.begin_array();
  for (const FlightEvent& e : events) {
    w.begin_object();
    w.field("seq", static_cast<std::int64_t>(e.seq));
    w.field("kind", e.kind == 0 ? "span" : "log");
    w.field("t_us", static_cast<std::int64_t>(e.t_us));
    if (e.kind == 0) {
      w.field("dur_us", static_cast<std::int64_t>(e.duration_us));
      w.field("name", e.name);
      if (e.detail[0] != '\0') w.field("detail", e.detail);
    } else {
      w.field("level", log_level_name(static_cast<LogLevel>(e.level)));
      w.field("component", e.name);
      w.field("msg", e.detail);
    }
    w.field("thread", static_cast<std::int64_t>(e.thread));
    if (e.trace_id != 0) {
      char hex[17] = {};
      format_hex64(hex, e.trace_id);
      w.field("trace", hex);
      format_hex64(hex, e.span_id);
      w.field("span", hex);
      format_hex64(hex, e.parent_span_id);
      w.field("parent", hex);
    }
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  std::string metrics;
  MetricsRegistry::global().append_json(metrics);
  w.raw_value(metrics);
  w.end_object();
  out.push_back('\n');
  os << out;
}

void FlightRecorder::refresh_metrics_index() {
  std::lock_guard<std::mutex> lock(arm_mu_);
  refresh_metrics_index_locked();
}

void FlightRecorder::refresh_metrics_index_locked() {
  MetricsRegistry& reg = MetricsRegistry::global();
  auto index = std::make_shared<MetricsIndex>();
  for (const std::string& name : reg.counter_names()) {
    index->counters.emplace_back(name, static_cast<const void*>(&reg.counter(name)));
  }
  for (const std::string& name : reg.gauge_names()) {
    index->gauges.emplace_back(name, static_cast<const void*>(&reg.gauge(name)));
  }
  metrics_index_ = index;  // keeps the vector alive for the raw pointer
  metrics_index_raw_.store(index.get(), std::memory_order_release);
}

void FlightRecorder::dump_signal_safe(int fd) const {
  char buf[512];
  LineBuf line(buf, sizeof(buf));

  const ThreadRing* rings = rings_.get();
  if (rings != nullptr && ring_capacity_ > 0) {
    for (int i = 0; i < kMaxThreads; ++i) {
      const ThreadRing& ring = rings[i];
      const std::uint64_t head = ring.head.load(std::memory_order_acquire);
      const std::uint64_t retained = std::min<std::uint64_t>(head, ring_capacity_);
      for (std::uint64_t k = 0; k < retained; ++k) {
        const FlightEvent& e = ring.slots[static_cast<std::size_t>((head - retained + k) %
                                                                   ring_capacity_)];
        if (e.seq == 0) continue;
        line.clear();
        line.str("event seq=");
        line.u64(e.seq);
        line.str(e.kind == 0 ? " kind=span name=" : " kind=log component=");
        line.str(e.name);
        line.str(" t_us=");
        line.i64(e.t_us);
        if (e.kind == 0) {
          line.str(" dur_us=");
          line.i64(e.duration_us);
        }
        if (e.trace_id != 0) {
          line.str(" trace=");
          line.hex64(e.trace_id);
          line.str(" span=");
          line.hex64(e.span_id);
          line.str(" parent=");
          line.hex64(e.parent_span_id);
        }
        line.str(" thread=");
        line.u64(e.thread);
        if (e.kind == 1 && e.detail[0] != '\0') {
          line.str(" msg=");
          line.str(e.detail);
        } else if (e.detail[0] != '\0') {
          line.str(" detail=");
          line.str(e.detail);
        }
        line.str("\n");
        write_all(fd, line.data(), line.size());
      }
    }
  }

  // Metrics: only the pre-captured counter/gauge index.
  const MetricsIndex* index = metrics_index_raw_.load(std::memory_order_acquire);
  if (index == nullptr) return;
  for (const auto& [name, ptr] : index->counters) {
    line.clear();
    line.str("counter ");
    line.str(name.c_str());
    line.str("=");
    line.i64(static_cast<const Counter*>(ptr)->value());
    line.str("\n");
    write_all(fd, line.data(), line.size());
  }
  for (const auto& [name, ptr] : index->gauges) {
    line.clear();
    line.str("gauge ");
    line.str(name.c_str());
    line.str("=");
    // Gauges are doubles; integer-truncate rather than pulling printf
    // into the signal path.
    line.i64(static_cast<std::int64_t>(static_cast<const Gauge*>(ptr)->value()));
    line.str("\n");
    write_all(fd, line.data(), line.size());
  }
}

bool FlightRecorder::install_crash_handler(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  if (!armed()) arm();
  const int prev = g_crash_fd.exchange(fd, std::memory_order_acq_rel);
  if (prev >= 0) {
    ::close(prev);
    return true;  // handlers already installed; only the fd was re-pointed
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(signo, &sa, nullptr);
  }
  return true;
#else
  (void)path;
  return false;
#endif
}

int FlightRecorder::crash_fd() const { return g_crash_fd.load(std::memory_order_relaxed); }

}  // namespace fusecu
