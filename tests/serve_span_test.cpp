#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "serve/plan_service.hpp"

namespace fusecu {
namespace {

/// Thread-safe collecting sink with a drain so one test can separate the
/// cold (miss) batch's spans from the warm (hit) batch's.
class CollectingSink : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<SpanRecord> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class SinkScope {
 public:
  explicit SinkScope(SpanSink* sink) : prev_(set_span_sink(sink)) {}
  ~SinkScope() { set_span_sink(prev_); }

 private:
  SpanSink* prev_;
};

PlanRequest matmul_request(const std::string& id, Index m) {
  PlanRequest r;
  r.id = id;
  r.kind = PlanRequest::Kind::kMatmul;
  r.m = m;
  r.k = 16;
  r.l = 24;
  r.buffer_elems = 512;
  return r;
}

/// One request's span tree, reassembled from the flat sink output.
struct Trace {
  std::vector<SpanRecord> spans;
  const SpanRecord* root = nullptr;
};

std::map<std::uint64_t, Trace> group_traces(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, Trace> traces;
  for (const SpanRecord& s : spans) traces[s.context.trace_id].spans.push_back(s);
  for (auto& [id, trace] : traces) {
    for (const SpanRecord& s : trace.spans) {
      if (s.context.parent_span_id == 0) {
        EXPECT_EQ(trace.root, nullptr) << "two roots in trace " << id;
        trace.root = &s;
      }
    }
  }
  return traces;
}

/// Every span must reach the root by walking parent links — one *connected*
/// tree per request, even when children closed on a different clock edge.
void expect_connected(const Trace& trace) {
  ASSERT_NE(trace.root, nullptr);
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : trace.spans) by_id[s.context.span_id] = &s;
  for (const SpanRecord& s : trace.spans) {
    const SpanRecord* cur = &s;
    int hops = 0;
    while (cur->context.parent_span_id != 0) {
      auto it = by_id.find(cur->context.parent_span_id);
      ASSERT_NE(it, by_id.end()) << "span " << s.name << " has a dangling parent";
      cur = it->second;
      ASSERT_LT(++hops, 64) << "parent cycle at " << s.name;
    }
    EXPECT_EQ(cur->context.span_id, trace.root->context.span_id)
        << s.name << " is connected to a different root";
  }
}

bool has_span(const Trace& trace, const std::string& name) {
  return std::any_of(trace.spans.begin(), trace.spans.end(),
                     [&](const SpanRecord& s) { return s.name == name; });
}

bool has_optimize_span(const Trace& trace) {
  return std::any_of(trace.spans.begin(), trace.spans.end(), [](const SpanRecord& s) {
    return s.name.rfind("optimize/", 0) == 0;
  });
}

TEST(ServeSpans, OneConnectedTreePerStreamedLine) {
  // serve_stream answers each line on the calling thread: one connected tree
  // per line, the optimizer under a miss's root and never under a hit's.
  CollectingSink sink;
  SinkScope scope(&sink);
  PlanService service(ServeOptions{.threads = 4});

  std::string cold_lines;
  for (int i = 0; i < 8; ++i) {
    cold_lines += R"({"id":"m","op":"matmul","m":)" + std::to_string(32 + i) +
                  R"(,"k":16,"l":24,"buffer_elems":512})" + "\n";
  }
  cold_lines += R"({"id":"f0","op":"fused_pair","m":20,"k":16,"l":24,"n":12,"buffer_elems":2048})"
                "\n";
  constexpr std::size_t kLines = 9;

  std::istringstream cold_in(cold_lines);
  std::ostringstream cold_out;
  ASSERT_EQ(service.serve_stream(cold_in, cold_out, "<test>"), static_cast<int>(kLines));
  EXPECT_EQ(cold_out.str().find("\"ok\":false"), std::string::npos) << cold_out.str();

  const std::map<std::uint64_t, Trace> cold = group_traces(sink.drain());
  ASSERT_EQ(cold.size(), kLines) << "exactly one trace per line";
  int matmul_roots = 0, fused_roots = 0;
  for (const auto& [id, trace] : cold) {
    expect_connected(trace);
    const std::string& root = trace.root->name;
    if (root == "request/matmul") ++matmul_roots;
    if (root == "request/fused_pair") ++fused_roots;
    EXPECT_TRUE(has_span(trace, "cache_lookup")) << root;
    EXPECT_TRUE(has_optimize_span(trace)) << root << " (cold request must optimize)";
  }
  EXPECT_EQ(matmul_roots, 8);
  EXPECT_EQ(fused_roots, 1);

  // The same lines again: every one is a cache hit, and a hit's span tree
  // must NOT contain an optimize child.
  std::istringstream warm_in(cold_lines);
  std::ostringstream warm_out;
  ASSERT_EQ(service.serve_stream(warm_in, warm_out, "<test>"), static_cast<int>(kLines));
  const std::map<std::uint64_t, Trace> warm = group_traces(sink.drain());
  ASSERT_EQ(warm.size(), kLines);
  for (const auto& [id, trace] : warm) {
    expect_connected(trace);
    EXPECT_EQ(trace.root->detail, "ok cached") << trace.root->name;
    EXPECT_FALSE(has_optimize_span(trace))
        << trace.root->name << " hit the cache but still shows an optimize span";
    EXPECT_TRUE(has_span(trace, "cache_lookup"));
  }
}

TEST(ServeSpans, DirectPlanRootsItsOwnTraceWithoutQueueWait) {
  CollectingSink sink;
  SinkScope scope(&sink);

  ServeOptions options;
  options.threads = 2;
  PlanService service(options);

  const PlanResponse response = service.plan(matmul_request("direct", 48));
  EXPECT_TRUE(response.ok) << response.error;

  const std::map<std::uint64_t, Trace> traces = group_traces(sink.drain());
  ASSERT_EQ(traces.size(), 1u);
  const Trace& trace = traces.begin()->second;
  expect_connected(trace);
  EXPECT_EQ(trace.root->name, "request/matmul");
  for (const char* child : {"canonicalize", "cache_lookup"}) {
    EXPECT_TRUE(has_span(trace, child)) << "lacks " << child;
  }
  EXPECT_TRUE(has_optimize_span(trace));
}

TEST(ServeSpans, OneRootPerMissedLineAnsweredInPlace) {
  // answer_line, as a reactor calls it, and plan_line_json: a miss's
  // canonicalize, cache_lookup, optimize and serialize spans hang off one
  // root, as a hit's do.
  CollectingSink sink;
  SinkScope scope(&sink);
  PlanService service(ServeOptions{.threads = 2});
  KeyedRequest keyed;
  std::string response;
  constexpr int kLines = 6;
  for (int i = 0; i < kLines; ++i) {
    const std::string m = std::to_string(40 + i);
    const std::string line =
        i % 3 == 2
            ? R"({"id":"f","op":"fused_pair","m":)" + m + R"(,"k":16,"l":24,"n":12,"buffer_elems":2048})"
            : R"({"id":"i","op":"matmul","m":)" + m + R"(,"k":16,"l":24,"buffer_elems":512})";
    if (i % 2 == 0) {
      ASSERT_EQ(service.answer_line(line, "<test>", i + 1, keyed, response, /*plan_miss=*/true),
                LineOutcome::kMiss);
    } else {
      response = service.plan_line_json(line, "<test>", i + 1, 0, nullptr);
    }
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }

  const std::map<std::uint64_t, Trace> traces = group_traces(sink.drain());
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(kLines)) << "one root per missed line";
  for (const auto& [id, trace] : traces) {
    expect_connected(trace);
    EXPECT_EQ(trace.root->detail, "ok") << trace.root->name;
    for (const char* child : {"canonicalize", "cache_lookup", "serialize"}) {
      EXPECT_TRUE(has_span(trace, child)) << trace.root->name << " lacks " << child;
    }
    EXPECT_TRUE(has_optimize_span(trace)) << trace.root->name;
  }
}

TEST(ServeSpans, RecordingOffMeansNoSpansAndRequestsStillPlan) {
  ASSERT_FALSE(span_recording_enabled());
  ServeOptions options;
  options.threads = 2;
  PlanService service(options);
  const PlanResponse response = service.plan(matmul_request("quiet", 40));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(current_span().valid());
}

}  // namespace
}  // namespace fusecu
