#include "serve/canonical.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "common/check.hpp"
#include "tensor/tensor_op.hpp"

namespace fusecu {

namespace {

/// The one key appender: integers through std::to_chars, names with a
/// length prefix so concatenated names can never collide ("AB"+"C" vs
/// "A"+"BC").
class KeyText {
 public:
  explicit KeyText(std::size_t reserve) { text_.reserve(reserve); }

  KeyText& num(std::int64_t v) {
    char buf[20];
    text_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return *this;
  }
  KeyText& put(std::string_view s) {
    text_.append(s);
    return *this;
  }
  KeyText& put(char c) {
    text_.push_back(c);
    return *this;
  }
  KeyText& name(std::string_view n) {
    return num(static_cast<std::int64_t>(n.size())).put(':').put(n).put('|');
  }
  KeyText& names(const TensorOp& op) {
    for (const Dim& d : op.dims()) name(d.name);
    for (const TensorDecl& t : op.tensors()) name(t.name);
    return *this;
  }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

/// Labels of the operators PlanRequest::to_op() / to_pair() build, in the
/// order TensorOp spells them (dimensions, then tensors).
constexpr std::array<std::string_view, 6> kMatmulLabels = {"M", "K", "L", "A", "B", "C"};
constexpr std::array<std::string_view, 6> kFoldedLabels = {"M", "K", "L", "A", "W", "C"};
constexpr std::array<std::string_view, 12> kFusedPairLabels = {"M", "K", "L", "A", "B", "C",
                                                               "M", "K", "L", "C", "D", "E"};

BufferSize full_fit(Index m, Index k, Index l) { return m * k + k * l + m * l; }

/// The intra key up to (and excluding) the labels: transpose class
/// (min(m,l), k, max(m,l)) and the clamped buffer.  Names stay in their
/// fixed positional order — they identify the *labeling*, which both
/// orientations share; the orientation itself is resolved by the entry's
/// plan slots, not by the key.
KeyText intra_key_head(Index m, Index k, Index l, BufferSize bs, CanonicalIntraKey& key) {
  key.swapped = m > l;
  KeyText text(64);
  text.put("i1|").num(std::min(bs, full_fit(m, k, l))).put('|');
  text.num(key.swapped ? l : m).put(',').num(k).put(',').num(key.swapped ? m : l).put('|');
  return text;
}

KeyText fused_key_head(Index m, Index k, Index l, Index n, BufferSize bs) {
  KeyText text(96);
  text.put("f2|").num(bs).put('|');
  text.num(m).put(',').num(k).put(',').num(l).put(',').num(n).put('|');
  return text;
}

}  // namespace

BufferSize clamp_buffer_for_intra(const TensorOp& op, BufferSize bs) {
  return std::min(bs, full_fit(op.extent(mm::kDimM), op.extent(mm::kDimK), op.extent(mm::kDimL)));
}

CanonicalIntraKey canonical_intra_key(const TensorOp& op, BufferSize bs) {
  FCU_CHECK(is_matmul_shaped(op), "canonical_intra_key expects a matmul-shaped operator");
  CanonicalIntraKey key;
  key.text = intra_key_head(op.extent(mm::kDimM), op.extent(mm::kDimK), op.extent(mm::kDimL),
                            bs, key)
                 .names(op)
                 .take();
  return key;
}

std::optional<CanonicalIntraKey> try_canonical_intra_key(const TensorOp& op, BufferSize bs) {
  if (!is_matmul_shaped(op)) return std::nullopt;
  if (bs < 3) return std::nullopt;  // below the minimal working set; let the optimizer throw
  return canonical_intra_key(op, bs);
}

std::optional<CanonicalIntraKey> try_request_intra_key(const PlanRequest& request) {
  if (request.kind != PlanRequest::Kind::kMatmul) return std::nullopt;
  if (request.m < 1 || request.k < 1 || request.l < 1) return std::nullopt;
  if (request.buffer_elems < 3) return std::nullopt;
  const bool folded = request.batch > 1;
  const Index m = folded ? request.batch * request.m : request.m;
  CanonicalIntraKey key;
  KeyText text = intra_key_head(m, request.k, request.l, request.buffer_elems, key);
  for (std::string_view label : folded ? kFoldedLabels : kMatmulLabels) text.name(label);
  key.text = text.take();
  return key;
}

std::string canonical_fused_key(const FusedPair& pair, BufferSize bs) {
  return fused_key_head(pair.m(), pair.k(), pair.l(), pair.n(), bs)
      .names(pair.op1())
      .names(pair.op2())
      .take();
}

std::optional<std::string> try_request_fused_key(const PlanRequest& request) {
  if (request.kind != PlanRequest::Kind::kFusedPair) return std::nullopt;
  if (request.m < 1 || request.k < 1 || request.l < 1 || request.n < 1) return std::nullopt;
  KeyText text =
      fused_key_head(request.m, request.k, request.l, request.n, request.buffer_elems);
  for (std::string_view label : kFusedPairLabels) text.name(label);
  return text.take();
}

}  // namespace fusecu
