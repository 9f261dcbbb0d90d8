#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "serve/canonical.hpp"
#include "serve/plan_cache.hpp"
#include "serve/plan_request.hpp"
#include "serve/thread_pool.hpp"

/// \file plan_service.hpp
/// Concurrent planning front-end: thread-pool batch planner + sharded plan
/// cache + canonicalization in front of the closed-form optimizers.
///
/// Every request — typed, JSONL stream or TCP line — goes through one core:
/// its canonical key is spelled once from the request's fields, the cache is
/// probed once (one hit or one miss), and a hit splices the response bytes
/// rendered when the plan was inserted.  A miss single-flights on the same
/// key and calls optimize_intra / optimize_fused_pair directly.
///
/// Request lines take the core in two steps.  The first runs on the thread
/// that read the line — a net/ reactor, or serve_stream's reader — and
/// decodes, keys and probes: a hit or a malformed line is answered right
/// there.  The second plans a miss without decoding or probing again: a
/// reactor runs both in place with answer_line, in the loop turn that read
/// the line and under one span root, and serve_stream splits them into
/// begin_line and a pool task's finish_line.  Both front ends run the same
/// two steps, so TCP and stdin answers are byte-identical.
///
/// A service caches only what is asked of it: the free optimizers (and
/// plan_chain, evaluate_model and everything else layered on them) never
/// consult a service.  Any number of services may be alive at once, each
/// with its own cache.
///
/// Identical concurrent requests are single-flighted: the first thread in
/// computes, the rest wait on its completion and then read the cached plan,
/// so a batch of N equal requests costs one optimization.

namespace fusecu {

struct ServeOptions {
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  std::size_t cache_bytes = 64ull * 1024 * 1024;
  int shards = 8;
  /// Longest accepted JSONL request line; an overlong line yields a
  /// structured ok=false ParseError response instead of unbounded
  /// buffering.  Shared by the stdin stream and the TCP path.
  std::size_t max_line_bytes = 1 << 20;
};

/// A decoded request and its canonical cache key: what the first step of the
/// line core hands the second.  Reusable: decoding and key spelling
/// overwrite it in place, and spelling reserves the key to the longest key
/// a request can spell, so neither string reallocates across requests.
struct KeyedRequest {
  PlanRequest request;
  std::string key;       ///< canonical key; empty when out of the cache's scope
  bool swapped = false;  ///< intra orientation slot (see canonical.hpp)
};

/// What the first step of the line core did with a line.
enum class LineOutcome {
  kHit,        ///< answered from the plan cache
  kMalformed,  ///< answered with a parse-error response
  kMiss,       ///< decoded and keyed, not answered: finish_line() plans it
};

/// A typed intra-op answer: the plan plus whether the cache served it.
struct IntraPlanned {
  IntraOptResult result;
  bool cached = false;
};

/// A typed fused-pair answer; nullopt result means "not fusable at bs".
struct FusedPlanned {
  std::optional<FusedOptResult> result;
  bool cached = false;
};

class PlanService {
 public:
  explicit PlanService(ServeOptions options = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Plan one request; never throws — failures come back as ok=false.
  PlanResponse plan(const PlanRequest& request);

  /// Plan a batch on the worker pool; responses in request order.
  std::vector<PlanResponse> plan_batch(const std::vector<PlanRequest>& requests);

  /// Read JSONL requests from \p in, write one JSONL response per input line
  /// to \p out (blank lines are skipped).  Malformed lines produce
  /// ok=false responses carrying "<source>:<line>: ..." messages; the
  /// stream never aborts.  Returns the number of responses written.
  int serve_stream(std::istream& in, std::ostream& out, const std::string& source = "<stdin>");

  /// Step 1 of the line core, on the thread that read \p line: decode it
  /// into \p keyed, spell its key once and make the request's one counted
  /// cache probe.  A hit, or a line that does not decode, is answered on
  /// the spot: its response line (no trailing newline) replaces
  /// \p response.  A miss leaves \p response untouched and \p keyed ready
  /// for finish_line().  A steady-state hit allocates nothing: \p keyed and
  /// \p response keep their capacity.
  LineOutcome begin_line(const std::string& line, const std::string& source, int lineno,
                         KeyedRequest& keyed, std::string& response);

  /// Step 2, on a pool worker: inject a scheduled pool stall or worker
  /// hang, open the request span root, plan the request begin_line()
  /// missed (single flight, the post-flight recheck, the closed form,
  /// insert) and write its response line into \p response.  \p enqueue_us
  /// is when the miss was queued (span clock; 0 when recording was off
  /// then): the root is anchored there with a queue_wait child.  kNotQueued
  /// records no queue_wait.  Never decodes or probes again; planning
  /// failures come back as ok=false lines.
  void finish_line(const KeyedRequest& keyed, std::int64_t enqueue_us, std::string& response);
  static constexpr std::int64_t kNotQueued = -1;

  /// Both steps in place, on the thread that read \p line (a net/ reactor):
  /// begin_line(), then, for a miss when \p plan_miss, finish_line()'s
  /// planning.  The request gets one span root, so a miss's canonicalize,
  /// cache_lookup, optimize and serialize spans form one tree, as a hit's
  /// do.  Returns begin_line()'s outcome; a miss with !\p plan_miss is left
  /// unanswered, as begin_line() leaves it.
  LineOutcome answer_line(const std::string& line, const std::string& source, int lineno,
                          KeyedRequest& keyed, std::string& response, bool plan_miss);

  /// The response to a line longer than \p max_line_bytes, counted as a
  /// failed request: ok=false with oversized_line_message().
  void reject_oversized_line(const std::string& source, int lineno, std::size_t max_line_bytes,
                             std::string& response);

  /// One request line, from raw line to serialized response, on the
  /// calling thread: answer_line() with its root anchored at \p enqueue_us
  /// as finish_line() anchors it.  A parse failure returns an ok=false line
  /// and sets *\p parse_error.
  std::string plan_line_json(const std::string& line, const std::string& source, int lineno,
                             std::int64_t enqueue_us, bool* parse_error);

  /// Typed API used by the examples/benchmarks: single-flighted, cached
  /// intra-op planning.  Byte-identical to optimize_intra(op, bs).
  IntraPlanned plan_intra(const TensorOp& op, BufferSize bs);

  /// Typed fused-pair planning, same guarantees.
  FusedPlanned plan_fused(const FusedPair& pair, BufferSize bs);

  ThreadPool& pool() { return pool_; }
  const ServeOptions& options() const { return options_; }

  /// Cache and single-flight statistics.  Hit, miss, insertion, eviction
  /// and shared-flight counts are process totals per metric prefix, shared
  /// by every live service; entries and bytes are this service's own.
  struct Stats {
    CacheStats intra;
    CacheStats fused;
    std::int64_t single_flight_shared = 0;  ///< requests that waited on a leader

    CacheStats combined() const {
      CacheStats all = intra;
      all += fused;
      return all;
    }
  };
  Stats stats() const;

 private:
  /// A cached answer: the typed plan plus its rendered response body — every
  /// byte after the `{"id":"..."` prefix up to, not including, the "cached"
  /// field.  Rendered once, at insert, by append_ok_body(), and stored at
  /// its exact size.
  template <typename Plan>
  struct Rendered {
    Plan plan;
    std::string body;
  };
  using IntraAnswer = Rendered<IntraOptResult>;
  using FusedAnswer = Rendered<std::optional<FusedOptResult>>;
  /// A cache whose entries hold N answer slots.  Intra entries hold one
  /// transpose class (see canonical.hpp): slot[0] answers the m <= l
  /// orientation, slot[1] the swapped one.  Fused entries hold one slot.
  template <typename Answer, std::size_t N>
  using SlotCache = ShardedLruCache<std::array<std::shared_ptr<const Answer>, N>>;

  /// The core's answer to one request: exactly one of intra/fused is set on
  /// success, neither on failure.
  struct Served {
    std::shared_ptr<const IntraAnswer> intra;
    std::shared_ptr<const FusedAnswer> fused;
    bool cached = false;
    std::string error;

    bool ok() const { return intra || fused; }
  };

  /// In-flight computation other threads can wait on.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  /// True when this thread is the leader for \p key (must call end_flight);
  /// false after having waited for an existing leader to finish.
  bool begin_flight(const std::string& key);
  void end_flight(const std::string& key);

  static IntraAnswer render(IntraOptResult plan);
  static FusedAnswer render(std::optional<FusedOptResult> plan);

  /// The one counted probe of \p key's orientation \p slot, in a
  /// cache_lookup span.
  template <typename Answer, std::size_t N>
  std::shared_ptr<const Answer> probe(SlotCache<Answer, N>& cache, const std::string& key,
                                      std::size_t slot);
  /// Render \p plan and store it in \p key's orientation \p slot.
  template <typename Answer, std::size_t N, typename Plan>
  std::shared_ptr<const Answer> insert(SlotCache<Answer, N>& cache, const std::string& key,
                                       std::size_t slot, Plan plan);
  /// What follows a missed probe: single-flight on the key, take the answer
  /// a finished leader left in the cache (an uncounted peek), else call
  /// \p closed_form and insert its plan.  *\p cached is false only for the
  /// request that ran the closed form.
  template <typename Answer, std::size_t N, typename ClosedForm>
  std::shared_ptr<const Answer> plan_after_miss(SlotCache<Answer, N>& cache,
                                                const std::string& key, std::size_t slot,
                                                ClosedForm&& closed_form, bool* cached);
  /// probe(), then plan_after_miss() on a miss.
  template <typename Answer, std::size_t N, typename ClosedForm>
  std::shared_ptr<const Answer> lookup_or_plan(SlotCache<Answer, N>& cache,
                                               const std::string& key, std::size_t slot,
                                               ClosedForm&& closed_form, bool* cached);

  /// The request core's two halves.  probe(keyed) is the one counted probe
  /// (nothing when the request is out of the cache's scope);
  /// plan_missed(keyed) is plan_after_miss() for the request, or the bare
  /// closed form when it has no key.  plan_missed throws what the closed
  /// form throws.
  Served probe(const KeyedRequest& keyed);
  Served plan_missed(const KeyedRequest& keyed);
  /// A failed answer carrying \p e's message, counted as a request error.
  Served failed(const PlanRequest& request, const std::exception& e);
  /// Count one answered request and its latency since \p start, by class
  /// and by hit or miss.
  void count(const PlanRequest& request, const Served& served,
             std::chrono::steady_clock::time_point start);

  /// The whole core for a typed request: key once, probe once, plan on a
  /// miss.  Never throws.
  Served serve(const PlanRequest& request);
  /// The typed response for \p served (copies the plan).
  static PlanResponse to_response(const PlanRequest& request, const Served& served);
  /// The JSONL response line for \p served, written over \p line (its
  /// capacity reused): the escaped id spliced in front of the rendered
  /// body, byte-identical to to_response(...).to_json().
  static void response_line(const std::string& id, const Served& served, std::string& line);

  /// The line core's first half: decode, open the request root (anchored
  /// as open_request_root() anchors it, unless a span is already ambient),
  /// key, probe, and answer a hit or a malformed line into \p response.
  LineOutcome probe_line(const std::string& line, const std::string& source, int lineno,
                         std::int64_t enqueue_us, KeyedRequest& keyed, std::string& response,
                         std::optional<ScopedSpan>& root);
  /// The second half, under \p root: inject a scheduled stall, plan the
  /// miss, count it, note the root and render the response line.
  void plan_line(const KeyedRequest& keyed, std::optional<ScopedSpan>& root,
                 std::string& response);

  /// Opens the "request/<class>" span root anchored at \p enqueue_us (span
  /// clock) plus a queue_wait child, or at "now" with no queue_wait for
  /// kNotQueued — called at the top of the planning half so its tree lives
  /// on the planning thread.  No-op (root stays empty) when span recording
  /// is off.
  void open_request_root(std::optional<ScopedSpan>& root, const PlanRequest& request,
                         std::int64_t enqueue_us);
  /// plan() under a pool-side request root.
  PlanResponse plan_enqueued(const PlanRequest& request, std::int64_t enqueue_us);

  ServeOptions options_;
  SlotCache<IntraAnswer, 2> intra_cache_;
  SlotCache<FusedAnswer, 1> fused_cache_;
  ThreadPool pool_;

  std::mutex flights_mu_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;
  Counter& shared_flights_;

  // Request observability (obs/span.hpp drives the span trees; these are
  // the always-on latency histograms by request class plus the counters
  // the --stats-interval reporter differentiates for qps / error rate).
  Counter& requests_;
  Counter& request_errors_;
  Histogram& latency_matmul_us_;
  Histogram& latency_fused_us_;
  Histogram& latency_hit_us_;
  Histogram& latency_miss_us_;
};

}  // namespace fusecu
