#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace revere {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such table");
  EXPECT_EQ(s.ToString(), "NotFound: no such table");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, FaultCodesRoundTripThroughToString) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_EQ(Status::Unavailable("peer 'mit' is down").ToString(),
            "Unavailable: peer 'mit' is down");
  EXPECT_EQ(Status::DeadlineExceeded("contact took 80ms > 50ms").ToString(),
            "DeadlineExceeded: contact took 80ms > 50ms");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  REVERE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

TEST(StringsTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("a,,c", ',', /*skip_empty=*/true),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitAny) {
  EXPECT_EQ(SplitAny("a b\tc\nd", " \t\n"),
            (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(Join(v, "--"), "x--y--z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(StartsWith("course_title", "course"));
  EXPECT_FALSE(StartsWith("abc", "abcd"));
  EXPECT_TRUE(EndsWith("course_title", "title"));
  EXPECT_TRUE(EqualsIgnoreCase("Course", "cOURSE"));
  EXPECT_FALSE(EqualsIgnoreCase("Course", "Courses"));
  EXPECT_TRUE(Contains("schedule", "hed"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // With theta=1, the first 10 of 100 ranks carry well over a third of
  // the mass; uniform would give ~10%.
  EXPECT_GT(low, static_cast<size_t>(kTrials) / 3);
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(6);
  size_t low = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kTrials, 0.10, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kTrials;
  double var = sq / kTrials - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(ArenaTest, AllocationsAreMaxAligned) {
  Arena arena(/*initial_block_bytes=*/256);
  for (size_t sz : {1u, 3u, 17u, 64u, 200u}) {
    auto addr = reinterpret_cast<uintptr_t>(arena.Allocate(sz));
    EXPECT_EQ(addr % alignof(std::max_align_t), 0u) << "size " << sz;
  }
}

TEST(ArenaTest, ResetKeepsBlocksForSteadyStateReuse) {
  Arena arena(/*initial_block_bytes=*/1024);
  for (int i = 0; i < 4; ++i) {
    arena.AllocateArray<uint32_t>(100);
    arena.AllocateArray<uint64_t>(50);
    arena.Reset();
  }
  size_t warm = arena.bytes_reserved();
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // The same batch shape must not reserve any new memory once warm.
  for (int i = 0; i < 8; ++i) {
    arena.AllocateArray<uint32_t>(100);
    arena.AllocateArray<uint64_t>(50);
    arena.Reset();
  }
  EXPECT_EQ(arena.bytes_reserved(), warm);
}

TEST(ArenaTest, GrowsForOversizedAllocations) {
  Arena arena(/*initial_block_bytes=*/64);
  uint32_t* big = arena.AllocateArray<uint32_t>(10000);
  ASSERT_NE(big, nullptr);
  for (size_t i = 0; i < 10000; ++i) big[i] = static_cast<uint32_t>(i);
  EXPECT_EQ(big[9999], 9999u);
  EXPECT_GE(arena.bytes_reserved(), 10000 * sizeof(uint32_t));
  EXPECT_GE(arena.bytes_allocated(), 10000 * sizeof(uint32_t));
}

TEST(ArenaTest, DistinctLiveAllocationsDoNotOverlap) {
  Arena arena(/*initial_block_bytes=*/128);
  uint64_t* a = arena.AllocateArray<uint64_t>(8);
  uint64_t* b = arena.AllocateArray<uint64_t>(8);
  for (int i = 0; i < 8; ++i) a[i] = 1, b[i] = 2;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i], 1u);
    EXPECT_EQ(b[i], 2u);
  }
}

TEST(HashTest, PairHashDistinguishes) {
  PairHash h;
  EXPECT_NE(h(std::make_pair(std::string("a"), std::string("b"))),
            h(std::make_pair(std::string("b"), std::string("a"))));
}

TEST(HashTest, HashCombineIsHashStepOverStdHash) {
  // The columnar output boundary relies on this decomposition exactly.
  size_t seed = 7;
  HashCombine(&seed, std::string("revere"));
  EXPECT_EQ(seed, HashStep(7, std::hash<std::string>{}(std::string("revere"))));
}

// ---------------------------------------------------------------------
// Columnar kernel layer (common/simd.h): every kernel against a
// hand-computed expectation, for lengths on both sides of the 64-bit
// mask-word boundaries, plus the bounds contract — no kernel writes an
// element past the count it is given.
// ---------------------------------------------------------------------

class SimdKernelTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Lengths, SimdKernelTest,
                         ::testing::Values(0, 1, 3, 7, 8, 9, 15, 16, 17, 63,
                                           64, 65, 100, 127, 128, 200, 1024));

namespace {

/// Sentinel elements after the last one a kernel may write; they must
/// come back untouched.
constexpr size_t kGuardLen = 16;
constexpr uint32_t kGuard32 = 0xA5A5A5A5u;
constexpr uint64_t kGuard64 = 0xA5A5A5A5A5A5A5A5ull;

std::vector<uint32_t> RandomU32(Rng* rng, size_t n, uint32_t lo, uint32_t hi) {
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng->UniformInt(lo, hi));
  return v;
}

/// A buffer for an n-element output followed by kGuardLen sentinels.
template <typename T>
std::vector<T> Guarded(size_t n, T guard) {
  return std::vector<T>(n + kGuardLen, guard);
}

/// out[0, want.size()) == want and every later element still `guard`.
template <typename T>
void ExpectExactly(const std::vector<T>& out, const std::vector<T>& want,
                   T guard) {
  ASSERT_GE(out.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "element " << i;
  }
  for (size_t i = want.size(); i < out.size(); ++i) {
    EXPECT_EQ(out[i], guard) << "write past the end at " << i;
  }
}

/// The n-element mask whose bit i is pred(i), built bit by bit.
template <typename Pred>
std::vector<uint64_t> MaskOf(size_t n, Pred pred) {
  std::vector<uint64_t> mask(simd::MaskWords(n), 0);
  for (size_t i = 0; i < n; ++i) {
    if (pred(i)) mask[i / 64] |= uint64_t{1} << (i % 64);
  }
  return mask;
}

}  // namespace

TEST_P(SimdKernelTest, FillIotaCopy) {
  const size_t n = GetParam();
  std::vector<uint32_t> out = Guarded(n, kGuard32);
  simd::FillU32(42, n, out.data());
  ExpectExactly(out, std::vector<uint32_t>(n, 42), kGuard32);

  out = Guarded(n, kGuard32);
  simd::IotaU32(17, n, out.data());
  std::vector<uint32_t> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = 17 + static_cast<uint32_t>(i);
  ExpectExactly(out, want, kGuard32);

  Rng rng(1);
  std::vector<uint32_t> src = RandomU32(&rng, n, 0, 1u << 30);
  out = Guarded(n, kGuard32);
  simd::CopyU32(src.data(), n, out.data());
  ExpectExactly(out, src, kGuard32);

  std::vector<uint64_t> out64 = Guarded(n, kGuard64);
  simd::FillU64(0xdeadbeefcafef00dULL, n, out64.data());
  ExpectExactly(out64, std::vector<uint64_t>(n, 0xdeadbeefcafef00dULL),
                kGuard64);
}

TEST_P(SimdKernelTest, GatherAllowsAliasing) {
  const size_t n = GetParam();
  Rng rng(2);
  std::vector<uint32_t> vals = RandomU32(&rng, 300, 0, 1u << 20);
  std::vector<uint32_t> idx = RandomU32(&rng, n, 0, 299);
  std::vector<uint32_t> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = vals[idx[i]];
  std::vector<uint32_t> out = Guarded(n, kGuard32);
  simd::GatherU32(vals.data(), idx.data(), n, out.data());
  ExpectExactly(out, want, kGuard32);
  // idx == out aliasing gives the non-aliased result.
  std::vector<uint32_t> alias = Guarded(n, kGuard32);
  std::copy(idx.begin(), idx.end(), alias.begin());
  simd::GatherU32(vals.data(), alias.data(), n, alias.data());
  ExpectExactly(alias, want, kGuard32);
}

TEST_P(SimdKernelTest, EqualityMasks) {
  const size_t n = GetParam();
  Rng rng(3);
  // Narrow value range so equalities actually hit.
  std::vector<uint32_t> a = RandomU32(&rng, n, 0, 3);
  std::vector<uint32_t> b = RandomU32(&rng, n, 0, 3);
  const size_t words = simd::MaskWords(n);
  // Garbage in the mask (bits >= n included) before a Set: it must
  // leave exactly the predicate bits behind.
  std::vector<uint64_t> mask = Guarded(words, kGuard64);
  simd::EqMaskSet(a.data(), 2, n, mask.data());
  ExpectExactly(mask, MaskOf(n, [&](size_t i) { return a[i] == 2; }),
                kGuard64);
  simd::Eq2MaskAnd(a.data(), b.data(), n, mask.data());
  ExpectExactly(mask,
                MaskOf(n, [&](size_t i) { return a[i] == 2 && a[i] == b[i]; }),
                kGuard64);
  simd::Eq2MaskSet(a.data(), b.data(), n, mask.data());
  ExpectExactly(mask, MaskOf(n, [&](size_t i) { return a[i] == b[i]; }),
                kGuard64);
  simd::EqMaskAnd(b.data(), 1, n, mask.data());
  ExpectExactly(mask,
                MaskOf(n, [&](size_t i) { return a[i] == b[i] && b[i] == 1; }),
                kGuard64);
}

TEST_P(SimdKernelTest, CompactWritesExactlyTheSelectedElements) {
  const size_t n = GetParam();
  Rng rng(4);
  std::vector<uint32_t> src = RandomU32(&rng, n, 0, 1u << 30);
  std::vector<uint64_t> mask = MaskOf(n, [&](size_t) {
    return rng.UniformInt(0, 2) != 0;
  });
  std::vector<uint32_t> want;
  for (size_t i = 0; i < n; ++i) {
    if ((mask[i / 64] >> (i % 64)) & 1) want.push_back(src[i]);
  }
  // Sentinels start right after the n-element extent, and everything
  // past the k elements emitted must still hold them too.
  std::vector<uint32_t> out = Guarded(n, kGuard32);
  EXPECT_EQ(simd::CompactU32(src.data(), mask.data(), n, out.data()),
            want.size());
  ExpectExactly(out, want, kGuard32);
  // All-ones and all-zeros masks as edge cases.
  out = Guarded(n, kGuard32);
  std::vector<uint64_t> full = MaskOf(n, [](size_t) { return true; });
  EXPECT_EQ(simd::CompactU32(src.data(), full.data(), n, out.data()), n);
  ExpectExactly(out, src, kGuard32);
  out = Guarded(n, kGuard32);
  std::vector<uint64_t> none(simd::MaskWords(n), 0);
  EXPECT_EQ(simd::CompactU32(src.data(), none.data(), n, out.data()), 0u);
  ExpectExactly(out, std::vector<uint32_t>{}, kGuard32);
}

TEST_P(SimdKernelTest, HashMixIsTheHashStepChain) {
  const size_t n = GetParam();
  Rng rng(5);
  std::vector<uint64_t> vh(64);
  for (auto& x : vh) x = rng.Next();
  std::vector<uint32_t> codes = RandomU32(&rng, n, 0, 63);
  std::vector<uint64_t> h = Guarded(n, kGuard64);
  for (size_t i = 0; i < n; ++i) h[i] = i * 1315423911u;
  std::vector<uint64_t> want(n);
  for (size_t i = 0; i < n; ++i) {
    want[i] = HashStep(i * 1315423911u, vh[codes[i]]);
  }
  simd::HashMix(vh.data(), codes.data(), n, h.data());
  ExpectExactly(h, want, kGuard64);
  for (size_t i = 0; i < n; ++i) want[i] = HashStep(want[i], 0x12345678u);
  simd::HashMixConst(0x12345678u, n, h.data());
  ExpectExactly(h, want, kGuard64);
}

}  // namespace
}  // namespace revere
