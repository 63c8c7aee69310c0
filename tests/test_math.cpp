// Tests for wormnet::util math helpers.
#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace wormnet::util {
namespace {

TEST(IPow, SmallPowers) {
  EXPECT_EQ(ipow(4, 0), 1);
  EXPECT_EQ(ipow(4, 1), 4);
  EXPECT_EQ(ipow(4, 5), 1024);
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(10, 3), 1000);
}

TEST(IPow, BaseOneAndZeroExp) {
  EXPECT_EQ(ipow(1, 100), 1);
  EXPECT_EQ(ipow(7, 0), 1);
}

TEST(IsPowerOf, PositiveCases) {
  EXPECT_TRUE(is_power_of(1, 4));
  EXPECT_TRUE(is_power_of(4, 4));
  EXPECT_TRUE(is_power_of(1024, 4));
  EXPECT_TRUE(is_power_of(8, 2));
}

TEST(IsPowerOf, NegativeCases) {
  EXPECT_FALSE(is_power_of(0, 4));
  EXPECT_FALSE(is_power_of(-4, 4));
  EXPECT_FALSE(is_power_of(2, 4));
  EXPECT_FALSE(is_power_of(48, 4));
}

TEST(ILog, FloorBehavior) {
  EXPECT_EQ(ilog(1, 4), 0);
  EXPECT_EQ(ilog(3, 4), 0);
  EXPECT_EQ(ilog(4, 4), 1);
  EXPECT_EQ(ilog(1023, 4), 4);
  EXPECT_EQ(ilog(1024, 4), 5);
}

TEST(ILog, ExactHelpers) {
  EXPECT_EQ(ilog2_exact(1024), 10);
  EXPECT_EQ(ilog4_exact(1024), 5);
  EXPECT_EQ(ilog4_exact(64), 3);
}

TEST(Clamp01, ClampsBothEnds) {
  EXPECT_DOUBLE_EQ(clamp01(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(clamp01(0.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp01(0.37), 0.37);
  EXPECT_DOUBLE_EQ(clamp01(1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp01(3.2), 1.0);
}

TEST(RelErr, BasicProperties) {
  EXPECT_DOUBLE_EQ(rel_err(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_err(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(rel_err(0.9, 1.0), 0.1, 1e-12);
  // Symmetric in deviation against the reference in the second slot.
  EXPECT_GT(rel_err(2.0, 1.0), rel_err(1.5, 1.0));
}

TEST(RelErr, TinyReferenceDoesNotDivideByZero) {
  EXPECT_TRUE(std::isfinite(rel_err(1.0, 0.0)));
}

TEST(Base4Digit, ExtractsDigits) {
  // 27 = 123 in base 4.
  EXPECT_EQ(base4_digit(27, 0), 3);
  EXPECT_EQ(base4_digit(27, 1), 2);
  EXPECT_EQ(base4_digit(27, 2), 1);
  EXPECT_EQ(base4_digit(27, 3), 0);
}

TEST(Base4Digit, MatchesDivMod) {
  for (std::int64_t v : {0, 1, 5, 63, 255, 1023}) {
    std::int64_t q = v;
    for (int d = 0; d < 5; ++d) {
      EXPECT_EQ(base4_digit(v, d), q % 4) << "v=" << v << " d=" << d;
      q /= 4;
    }
  }
}

// Regression: double_bits once digested -0.0 and +0.0 as distinct words,
// so a retuned model whose signed delta arithmetic left a negative zero
// missed the cache entry of the value-identical rebuilt model.
TEST(DoubleBits, SignedZerosDigestEqually) {
  EXPECT_EQ(double_bits(-0.0), double_bits(0.0));
  EXPECT_EQ(hash_mix_double(17u, -0.0), hash_mix_double(17u, 0.0));
  // And only zero is collapsed: the neighboring denormals stay distinct.
  constexpr double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_NE(double_bits(tiny), double_bits(0.0));
  EXPECT_NE(double_bits(-tiny), double_bits(tiny));
}

TEST(DoubleBits, DocumentedNanPolicyIsPayloadBits) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // Same bit pattern => same digest word (no canonicalization applied)...
  EXPECT_EQ(double_bits(qnan), double_bits(qnan));
  // ...and a different payload stays distinct.
  EXPECT_NE(double_bits(qnan), double_bits(-qnan));
}

TEST(HashWords, SeparatesEveryWordPositionAndLength) {
  // Each word lands in one of four chains; a change to any word, a swap of
  // two words, or a dropped tail word must all move the digest.
  std::vector<std::uint64_t> w(11);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 3 * i + 1;
  const auto digest = [](const std::vector<std::uint64_t>& v) {
    return hash_words(5u, v.size(), [&](std::size_t i) { return v[i]; });
  };
  const std::uint64_t base = digest(w);
  EXPECT_EQ(digest(w), base);
  for (std::size_t i = 0; i < w.size(); ++i) {
    std::vector<std::uint64_t> v = w;
    ++v[i];
    EXPECT_NE(digest(v), base) << "word " << i;
  }
  std::vector<std::uint64_t> swapped = w;
  std::swap(swapped[0], swapped[4]);  // same chain, different order
  EXPECT_NE(digest(swapped), base);
  std::vector<std::uint64_t> shorter(w.begin(), w.end() - 1);
  EXPECT_NE(digest(shorter), base);
  EXPECT_NE(hash_words(6u, w.size(), [&](std::size_t i) { return w[i]; }), base);
}

}  // namespace
}  // namespace wormnet::util
