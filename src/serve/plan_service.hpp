#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iosfwd>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/span.hpp"
#include "serve/canonical.hpp"
#include "serve/plan_cache.hpp"
#include "serve/plan_request.hpp"

/// \file plan_service.hpp
/// Planning front-end: a sharded plan cache and canonicalization in front
/// of the closed-form optimizers.
///
/// Every request — typed PlanRequest, JSONL stream or TCP line — goes
/// through one core on the thread that asked: its canonical key is spelled
/// once from the request's fields, the cache is probed once (one hit or one
/// miss), and a hit splices the response bytes rendered when the plan was
/// inserted.  A miss runs the closed forms' record cores
/// (optimize_intra_record, optimize_fused_record) straight from the
/// request's fields, building no TensorOp and no typed result, and inserts
/// the plan record and its rendered body as one block: one entry per key,
/// one answer per entry.  plan(), the one typed entry point, materializes
/// its result from the record.  A request line takes the core through
/// answer_line(), whether a net/ reactor or serve_stream() read it, so TCP
/// and stdin answers are byte-identical.
///
/// A plan is a deterministic closed form costing microseconds, so the
/// service neither queues misses nor makes identical concurrent misses
/// wait on one leader: two threads that miss the same key both plan it,
/// and the second insert (counted in serve/duplicate_plans) stores the
/// same bytes again.
///
/// A service caches only what is asked of it: the free optimizers (and
/// plan_chain, evaluate_model and everything else layered on them) never
/// consult a service.  Any number of services may be alive at once, each
/// with its own cache.

namespace fusecu {

struct ServeOptions {
  /// Sizes nothing: every request is answered on the thread that read it.
  /// Kept so that callers which set it still compile.
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  std::size_t cache_bytes = 64ull * 1024 * 1024;
  int shards = 8;
  /// Longest accepted JSONL request line; an overlong line yields a
  /// structured ok=false ParseError response instead of unbounded
  /// buffering.  Shared by the stdin stream and the TCP path.
  std::size_t max_line_bytes = 1 << 20;
};

/// A decoded request and its canonical cache key: what the probing half of
/// the line core hands the planning half.  Reusable: decoding and key
/// spelling overwrite it in place, and spelling reserves the key to the
/// longest key a request can spell, so neither string reallocates across
/// requests.
struct KeyedRequest {
  PlanRequest request;
  std::string key;  ///< canonical key; empty when out of the cache's scope
};

/// What answer_line() found a line to be.
enum class LineOutcome {
  kHit,        ///< answered from the plan cache
  kMalformed,  ///< answered with a parse-error response
  kMiss,       ///< decoded and keyed; planned and answered only when asked to
};

class PlanService {
 public:
  explicit PlanService(ServeOptions options = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Plan one request; never throws — failures come back as ok=false.
  PlanResponse plan(const PlanRequest& request);

  /// Read JSONL requests from \p in and answer each non-blank line, in
  /// input order, with answer_line() on this thread.  A line's response is
  /// written to \p out before more input is read, and \p out is flushed
  /// whenever no more input is buffered, so a client that keeps \p in open
  /// gets each answer as soon as its line is complete.  Malformed lines
  /// produce ok=false responses carrying "<source>:<line>: ..." messages;
  /// the stream never aborts.  Returns the number of responses written.
  int serve_stream(std::istream& in, std::ostream& out, const std::string& source = "<stdin>");

  /// The line core, on the thread that read \p line: decode it into
  /// \p keyed, spell its key once and make the request's one counted cache
  /// probe.  A hit, or a line that does not decode, is answered on the
  /// spot; a miss is planned and answered when \p plan_miss (a reactor
  /// whose planning budget is spent passes false and sheds it).  The
  /// response line (no trailing newline) replaces \p response.  The request
  /// gets one span root, so a miss's canonicalize, cache_lookup, optimize
  /// and serialize spans form one tree, as a hit's do.  A steady-state hit
  /// allocates nothing: \p keyed and \p response keep their capacity.
  LineOutcome answer_line(const std::string& line, const std::string& source, int lineno,
                          KeyedRequest& keyed, std::string& response, bool plan_miss);

  /// The response to a line longer than \p max_line_bytes, counted as a
  /// failed request: ok=false with oversized_line_message().
  void reject_oversized_line(const std::string& source, int lineno, std::size_t max_line_bytes,
                             std::string& response);

  /// One request line, from raw line to serialized response, on the
  /// calling thread: answer_line() planning any miss.  \p enqueue_us is
  /// unused.  A parse failure returns an ok=false line and sets
  /// *\p parse_error.
  std::string plan_line_json(const std::string& line, const std::string& source, int lineno,
                             std::int64_t enqueue_us, bool* parse_error);

  const ServeOptions& options() const { return options_; }

  /// Cache statistics.  Hit, miss, insertion, eviction and duplicate-plan
  /// counts are process totals per metric prefix, shared by every live
  /// service; entries and bytes are this service's own.
  struct Stats {
    CacheStats intra;
    CacheStats fused;
    std::int64_t duplicate_plans = 0;  ///< inserts that found their key present

    CacheStats combined() const {
      CacheStats all = intra;
      all += fused;
      return all;
    }
  };
  Stats stats() const;

 private:
  /// A cached answer in one heap block: a reference count, the plan record
  /// and, behind them at its exact size, the rendered response body (every
  /// byte after the `{"id":"..."` prefix up to, not including, the "cached"
  /// field).  Rendered once, at insert, by append_ok_body().  A Rendered is
  /// a counted reference to its block, and the last one frees it: a hit
  /// takes one under the shard lock and splices the body after releasing
  /// the lock, so an eviction meanwhile frees nothing it reads.  The
  /// reference also carries the charge the cache bills for the answer
  /// (answer_cost in plan_service.cpp) from render() to insert().
  template <typename Record>
  class Rendered {
    static_assert(std::is_trivially_destructible_v<Record>);

   public:
    Rendered() = default;
    Rendered(const Rendered& other) noexcept : block_(other.block_), charge_(other.charge_) {
      if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Rendered(Rendered&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)), charge_(other.charge_) {}
    Rendered& operator=(Rendered other) noexcept {
      std::swap(block_, other.block_);
      std::swap(charge_, other.charge_);
      return *this;
    }
    ~Rendered() {
      if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ::operator delete(block_);
      }
    }

    /// One allocation holding \p record and a copy of \p body.
    static Rendered make(const Record& record, std::string_view body, std::size_t charge) {
      void* raw = ::operator new(sizeof(Block) + body.size());
      auto* block = new (raw) Block{{1}, body.size(), record};
      std::memcpy(reinterpret_cast<char*>(block + 1), body.data(), body.size());
      return Rendered(block, charge);
    }

    explicit operator bool() const { return block_ != nullptr; }
    const Record& record() const { return block_->record; }
    std::string_view body() const {
      return {reinterpret_cast<const char*>(block_ + 1), block_->body_size};
    }
    std::size_t charge() const { return charge_; }

   private:
    /// The block's header; the body's bytes follow it.
    struct Block {
      std::atomic<std::uint32_t> refs;
      std::size_t body_size;
      Record record;
    };

    Rendered(Block* block, std::size_t charge) : block_(block), charge_(charge) {}
    Block* block_ = nullptr;
    std::size_t charge_ = 0;
  };
  using IntraAnswer = Rendered<IntraPlanRecord>;
  using FusedAnswer = Rendered<std::optional<FusedPlanRecord>>;
  /// A cache holding one answer per key.
  template <typename Record>
  using AnswerCache = ShardedLruCache<Rendered<Record>>;

  /// The core's answer to one request: exactly one of intra/fused is set on
  /// success, neither on failure.
  struct Served {
    IntraAnswer intra;
    FusedAnswer fused;
    bool cached = false;
    std::string error;

    bool ok() const { return intra || fused; }
  };

  /// \p plan's answer block, its body rendered with \p labels.
  static IntraAnswer render(const IntraPlanRecord& plan, const MatmulLabels& labels);
  static FusedAnswer render(const std::optional<FusedPlanRecord>& plan);

  /// The one counted probe of \p key, in a cache_lookup span.
  template <typename Record>
  Rendered<Record> probe(AnswerCache<Record>& cache, const std::string& key);
  /// Store \p answer under \p key, counting a duplicate plan when another
  /// thread inserted the key first.
  template <typename Record>
  Rendered<Record> insert(AnswerCache<Record>& cache, const std::string& key,
                          Rendered<Record> answer);

  /// The request core's two halves.  probe(keyed) is the one counted probe
  /// (nothing when the request is out of the cache's scope);
  /// plan_missed(keyed) runs the closed form and inserts its plan, or only
  /// runs it when the request has no key.  plan_missed throws what the closed
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
  /// The typed response for \p served (materializes the plan record).
  static PlanResponse to_response(const PlanRequest& request, const Served& served);
  /// The JSONL response line for \p served, written over \p line (its
  /// capacity reused): the escaped id spliced in front of the rendered
  /// body, byte-identical to to_response(...).to_json().
  static void response_line(const std::string& id, const Served& served, std::string& line);

  /// The line core's first half: decode, open the request root (unless a
  /// span is already ambient), key, probe, and answer a hit or a malformed
  /// line into \p response.
  LineOutcome probe_line(const std::string& line, const std::string& source, int lineno,
                         KeyedRequest& keyed, std::string& response,
                         std::optional<ScopedSpan>& root);
  /// The second half, under \p root: inject a scheduled stall, plan the
  /// miss, count it, note the root and render the response line.
  void plan_line(const KeyedRequest& keyed, std::optional<ScopedSpan>& root,
                 std::string& response);

  ServeOptions options_;
  AnswerCache<IntraPlanRecord> intra_cache_;
  AnswerCache<std::optional<FusedPlanRecord>> fused_cache_;
  Counter& duplicate_plans_;

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
