#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "serve/canonical.hpp"

namespace fusecu {
namespace {

constexpr BufferSize kBs = 256 * 1024;

/// try_canonical_intra_key for an operator that is in scope.
std::string intra_key(const TensorOp& op, BufferSize bs) {
  const std::optional<std::string> key = try_canonical_intra_key(op, bs);
  EXPECT_TRUE(key.has_value()) << op.name();
  return key.value_or("");
}

TEST(CanonicalIntraKey, TransposedShapesGetDistinctKeys) {
  // The optimizer is not promised to be transpose-equivariant, so each
  // orientation is keyed, and planned, on its own.
  TensorOp op = TensorOp::matmul("t", 2048, 512, 512);
  TensorOp opT = TensorOp::matmul("tT", 512, 512, 2048);
  EXPECT_NE(intra_key(op, kBs), intra_key(opT, kBs));
  EXPECT_EQ(intra_key(op, kBs), "i1|262144|2048,512,512|1:M|1:K|1:L|1:A|1:B|1:C|");

  // A square matmul is its own transpose.
  EXPECT_EQ(intra_key(TensorOp::matmul("s", 512, 64, 512), kBs),
            intra_key(TensorOp::matmul("sT", 512, 64, 512), kBs));
}

TEST(CanonicalIntraKey, OperatorNameDoesNotMatterButLabelsDo) {
  TensorOp a = TensorOp::matmul("proj.q", 1024, 768, 768);
  TensorOp b = TensorOp::matmul("proj.k", 1024, 768, 768);
  EXPECT_EQ(intra_key(a, kBs), intra_key(b, kBs))
      << "the optimizer never reads the op name";

  // Tensor names appear in rule strings ("P1(stationary=A)"), so renaming an
  // operand must change the key.
  TensorOp named = TensorOp::matmul("proj.q", 1024, 768, 768, "Wq", "X", "Q");
  EXPECT_NE(intra_key(a, kBs), intra_key(named, kBs));
}

TEST(CanonicalIntraKey, NameBoundariesAreUnambiguous) {
  // Length-prefixed name encoding: ("AB","C") and ("A","BC") concatenate to
  // the same characters but must not collide.
  TensorOp ab_c = TensorOp::matmul("x", 64, 64, 64, "AB", "C", "Z");
  TensorOp a_bc = TensorOp::matmul("x", 64, 64, 64, "A", "BC", "Z");
  EXPECT_NE(intra_key(ab_c, kBs), intra_key(a_bc, kBs));
}

TEST(CanonicalIntraKey, BufferClampAtFullFit) {
  const Index m = 128, k = 64, l = 256;
  TensorOp op = TensorOp::matmul("x", m, k, l);
  const BufferSize full_fit = m * k + k * l + m * l;
  const std::string at_fit = "i1|" + std::to_string(full_fit) + "|128,64,256|";
  const std::string below_fit = "i1|" + std::to_string(full_fit - 1) + "|128,64,256|";
  EXPECT_EQ(intra_key(op, full_fit).substr(0, at_fit.size()), at_fit);
  EXPECT_EQ(intra_key(op, full_fit * 1000).substr(0, at_fit.size()), at_fit);
  EXPECT_EQ(intra_key(op, full_fit - 1).substr(0, below_fit.size()), below_fit);

  // Saturated buffers share a key; sub-saturated sizes stay distinct.
  EXPECT_EQ(intra_key(op, full_fit), intra_key(op, full_fit * 1000));
  EXPECT_NE(intra_key(op, full_fit - 1), intra_key(op, full_fit));
  EXPECT_NE(intra_key(op, 3000), intra_key(op, 3001));
}

TEST(CanonicalIntraKey, DistinctWorkloadsNeverCollide) {
  // Every key in this sweep describes a genuinely different planning problem
  // (different extents, labels, or effective buffer); all must be unique.
  std::set<std::string> keys;
  std::vector<std::string> described;
  auto add = [&](const TensorOp& op, BufferSize bs, const std::string& what) {
    const std::string key = intra_key(op, bs);
    EXPECT_TRUE(keys.insert(key).second)
        << what << " collided with an earlier workload; key = " << key;
    described.push_back(what);
  };

  const Index extents[] = {64, 128, 768, 1024};
  for (Index m : extents) {
    for (Index k : extents) {
      for (Index l : extents) {
        add(TensorOp::matmul("w", m, k, l), kBs,
            "matmul " + std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(l));
      }
    }
  }
  add(TensorOp::matmul("w", 64, 64, 64), 1024, "small buffer");
  add(TensorOp::matmul("w", 64, 64, 64), 2048, "medium buffer");
  add(TensorOp::matmul("w", 64, 64, 64, "Wq", "X", "Q"), kBs, "renamed tensors");
  ASSERT_GE(keys.size(), 67u);
}

TEST(CanonicalIntraKey, OutOfScopeOpsReturnNullopt) {
  TensorOp gelu = TensorOp::elementwise("gelu", 128, 128, "X", "Y");
  EXPECT_FALSE(try_canonical_intra_key(gelu, kBs).has_value());
  EXPECT_TRUE(try_canonical_intra_key(TensorOp::matmul("m", 8, 8, 8), kBs).has_value());
}

TEST(CanonicalFusedKey, ExactInAllFourExtentsAndBuffer) {
  std::set<std::string> keys;
  for (Index n : {32, 64, 128}) {
    EXPECT_TRUE(keys.insert(canonical_fused_key(FusedPair::make(1024, 64, 1024, n), kBs)).second);
  }
  // No transpose folding for fused pairs: construction is asymmetric.
  EXPECT_NE(canonical_fused_key(FusedPair::make(1024, 64, 512, 64), kBs),
            canonical_fused_key(FusedPair::make(512, 64, 1024, 64), kBs));
  EXPECT_NE(canonical_fused_key(FusedPair::make(1024, 64, 1024, 64), kBs),
            canonical_fused_key(FusedPair::make(1024, 64, 1024, 64), kBs + 1));
}

PlanRequest request(PlanRequest::Kind kind, Index m, Index k, Index l, Index n, Index batch,
                    BufferSize bs) {
  PlanRequest r;
  r.id = "sweep";
  r.kind = kind;
  r.m = m;
  r.k = k;
  r.l = l;
  r.n = n;
  r.batch = batch;
  r.buffer_elems = bs;
  return r;
}

/// spell_request_key's answer, nullopt when the request is out of scope.
std::optional<std::string> request_key(const PlanRequest& r) {
  std::string key;
  if (!spell_request_key(r, key)) return std::nullopt;
  return key;
}

TEST(RequestKey, GoldenTexts) {
  const auto intra = request_key(request(PlanRequest::Kind::kMatmul, 64, 32, 128, 0, 1, 1000));
  ASSERT_TRUE(intra.has_value());
  EXPECT_EQ(*intra, "i1|1000|64,32,128|1:M|1:K|1:L|1:A|1:B|1:C|");

  // batch 4 folds into M = 64, spelled in the request's orientation, and
  // the buffer clamps to the full fit 64*32 + 32*8 + 64*8 = 2816.
  const auto folded = request_key(request(PlanRequest::Kind::kMatmul, 16, 32, 8, 0, 4, 1 << 20));
  ASSERT_TRUE(folded.has_value());
  EXPECT_EQ(*folded, "i1|2816|64,32,8|1:M|1:K|1:L|1:A|1:W|1:C|");

  const auto fused =
      request_key(request(PlanRequest::Kind::kFusedPair, 512, 64, 512, 64, 1, 262144));
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(*fused,
            "f2|262144|512,64,512,64|1:M|1:K|1:L|1:A|1:B|1:C|1:M|1:K|1:L|1:C|1:D|1:E|");
}

TEST(RequestKey, MatchesTheOperatorKeyOverASeededSweep) {
  std::mt19937_64 rng(20261017);
  const auto draw = [&rng](Index lo, Index hi) {
    return std::uniform_int_distribution<Index>(lo, hi)(rng);
  };
  int transposed = 0, upright = 0, batched = 0, clamped = 0, below = 0;
  for (int i = 0; i < 4000; ++i) {
    const Index m = draw(1, 3000), k = draw(1, 3000), l = draw(1, 3000);
    const Index batch = draw(0, 3) == 0 ? draw(2, 16) : 1;
    const Index rows = batch * m;
    const BufferSize full = rows * k + k * l + rows * l;
    // Straddle the full-fit clamp: exactly at it, above it, and below it
    // down to the minimal working set.
    const BufferSize bs = i % 4 == 0 ? full : i % 4 == 1 ? full + draw(1, full) : draw(3, full);
    const PlanRequest req = request(PlanRequest::Kind::kMatmul, m, k, l, 0, batch, bs);
    const std::optional<std::string> from_fields = request_key(req);
    const std::optional<std::string> from_op = try_canonical_intra_key(req.to_op(), bs);
    ASSERT_TRUE(from_fields.has_value());
    ASSERT_TRUE(from_op.has_value());
    ASSERT_EQ(*from_fields, *from_op) << "m=" << m << " k=" << k << " l=" << l
                                      << " batch=" << batch << " bs=" << bs;
    (rows > l ? transposed : upright) += 1;
    batched += batch > 1 ? 1 : 0;
    clamped += bs > full ? 1 : 0;
    below += bs < full ? 1 : 0;
  }
  EXPECT_GT(transposed, 100);
  EXPECT_GT(upright, 100);
  EXPECT_GT(batched, 100);
  EXPECT_GT(clamped, 100);
  EXPECT_GT(below, 100);

  for (int i = 0; i < 2000; ++i) {
    const Index m = draw(1, 4096), k = draw(1, 4096), l = draw(1, 4096), n = draw(1, 4096);
    const BufferSize bs = draw(1, 1 << 22);
    const PlanRequest req = request(PlanRequest::Kind::kFusedPair, m, k, l, n, 1, bs);
    const std::optional<std::string> from_fields = request_key(req);
    ASSERT_TRUE(from_fields.has_value());
    ASSERT_EQ(*from_fields, canonical_fused_key(req.to_pair(), bs));
  }
}

TEST(RequestKey, OutOfScopeRequestsReturnNullopt) {
  // Both spellings agree on the minimal working set.
  const PlanRequest tiny = request(PlanRequest::Kind::kMatmul, 8, 8, 8, 0, 1, 2);
  EXPECT_FALSE(request_key(tiny).has_value());
  EXPECT_FALSE(try_canonical_intra_key(tiny.to_op(), 2).has_value());
  // Extents to_op() / to_pair() would reject.
  EXPECT_FALSE(request_key(request(PlanRequest::Kind::kMatmul, 0, 8, 8, 0, 1, 64)));
  EXPECT_FALSE(request_key(request(PlanRequest::Kind::kFusedPair, 8, 8, 8, 0, 1, 64)));
  // The kind picks the family; the other family's fields are ignored.
  EXPECT_EQ(request_key(request(PlanRequest::Kind::kFusedPair, 8, 8, 8, 8, 1, 2))->substr(0, 3),
            "f2|");
  EXPECT_EQ(request_key(request(PlanRequest::Kind::kMatmul, 8, 8, 8, 8, 1, 64))->substr(0, 3),
            "i1|");
}

}  // namespace
}  // namespace fusecu
