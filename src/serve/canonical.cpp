#include "serve/canonical.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "tensor/tensor_op.hpp"

namespace fusecu {

namespace {

/// The one key appender: integers through std::to_chars, names with a
/// length prefix so concatenated names can never collide ("AB"+"C" vs
/// "A"+"BC").  Appends to a caller-owned string.
class KeyText {
 public:
  explicit KeyText(std::string& text) : text_(text) {}

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

 private:
  std::string& text_;
};

/// Labels of FusedPair::op1() and op2(), in the order TensorOp spells them
/// (dimensions, then tensors).
constexpr std::array<std::string_view, 12> kFusedPairLabels = {"M", "K", "L", "A", "B", "C",
                                                               "M", "K", "L", "C", "D", "E"};

BufferSize full_fit(Index m, Index k, Index l) { return m * k + k * l + m * l; }

/// The intra key up to (and excluding) the labels: the extents in the
/// request's own orientation and the clamped buffer.
KeyText intra_key_head(Index m, Index k, Index l, BufferSize bs, std::string& out) {
  KeyText text(out);
  text.put("i1|").num(std::min(bs, full_fit(m, k, l))).put('|');
  text.num(m).put(',').num(k).put(',').num(l).put('|');
  return text;
}

void spell_fused_key(Index m, Index k, Index l, Index n, BufferSize bs, std::string& out) {
  KeyText text(out);
  text.put("f2|").num(bs).put('|');
  text.num(m).put(',').num(k).put(',').num(l).put(',').num(n).put('|');
  for (std::string_view label : kFusedPairLabels) text.name(label);
}

}  // namespace

std::optional<std::string> try_canonical_intra_key(const TensorOp& op, BufferSize bs) {
  if (!is_matmul_shaped(op)) return std::nullopt;
  if (bs < 3) return std::nullopt;  // below the minimal working set; let the optimizer throw
  std::string key;
  key.reserve(64);
  intra_key_head(op.extent(mm::kDimM), op.extent(mm::kDimK), op.extent(mm::kDimL), bs, key)
      .names(op);
  return key;
}

bool spell_request_key(const PlanRequest& request, std::string& key) {
  key.clear();
  key.reserve(kMaxRequestKeyBytes);
  if (request.m < 1 || request.k < 1 || request.l < 1) return false;
  if (request.kind == PlanRequest::Kind::kFusedPair) {
    if (request.n < 1) return false;
    spell_fused_key(request.m, request.k, request.l, request.n, request.buffer_elems, key);
    return true;
  }
  if (request.buffer_elems < 3) return false;
  const Index m = request.batch > 1 ? request.batch * request.m : request.m;
  KeyText text = intra_key_head(m, request.k, request.l, request.buffer_elems, key);
  const MatmulLabels labels = request.labels();
  for (std::string_view label : labels.dims) text.name(label);
  for (std::string_view label : labels.tensors) text.name(label);
  return true;
}

std::string canonical_fused_key(const FusedPair& pair, BufferSize bs) {
  std::string key;
  key.reserve(96);
  spell_fused_key(pair.m(), pair.k(), pair.l(), pair.n(), bs, key);
  return key;
}

}  // namespace fusecu
