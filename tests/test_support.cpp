#include <gtest/gtest.h>

#include "support/clock.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/table.h"
#include "support/welford.h"

namespace jsceres {
namespace {

TEST(VirtualClock, TickAdvancesBothClocks) {
  VirtualClock clock;
  clock.tick(1000);
  EXPECT_EQ(clock.cpu_ns(), 1000 * VirtualClock::kTickNs);
  EXPECT_EQ(clock.wall_ns(), 1000 * VirtualClock::kTickNs);
}

TEST(VirtualClock, BlockAdvancesWallOnly) {
  VirtualClock clock;
  clock.tick(10);
  clock.block_ns(5000);
  EXPECT_EQ(clock.cpu_ns(), 10 * VirtualClock::kTickNs);
  EXPECT_EQ(clock.wall_ns(), 10 * VirtualClock::kTickNs + 5000);
}

TEST(VirtualClock, AdvanceWallToOnlyMovesForward) {
  VirtualClock clock;
  clock.advance_wall_to(100);
  EXPECT_EQ(clock.wall_ns(), 100);
  clock.advance_wall_to(50);
  EXPECT_EQ(clock.wall_ns(), 100);
}

TEST(VirtualClock, SecondsConversion) {
  VirtualClock clock;
  clock.tick(200'000);  // 2e5 ticks * 10us = 2s
  EXPECT_DOUBLE_EQ(clock.cpu_seconds(), 2.0);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBetweenInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_between(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Welford, MeanAndVariance) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(w.total(), 40.0);
}

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Welford, MergeMatchesSequential) {
  Welford all;
  Welford left;
  Welford right;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Str, Split) {
  const auto parts = str::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Str, SplitWs) {
  const auto parts = str::split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "baz");
}

TEST(Str, ContainsWord) {
  EXPECT_TRUE(str::contains_word("real-time 3d games", "games"));
  EXPECT_TRUE(str::contains_word("peer-to-peer apps", "peer-to-peer"));
  EXPECT_FALSE(str::contains_word("gameshow", "game"));
}

TEST(Str, CompactCount) {
  EXPECT_EQ(str::compact_count(90000), "90k");
  EXPECT_EQ(str::compact_count(54600), "54.6k");
  EXPECT_EQ(str::compact_count(120), "120");
  EXPECT_EQ(str::compact_count(1077), "1.1k");
}

TEST(Str, Fixed) { EXPECT_EQ(str::fixed(3.14159, 2), "3.14"); }

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.set_align(1, Table::Align::Right);
  t.add_row({"alpha", "1"});
  t.add_row({"b", "100"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |   100 |"), std::string::npos);
}

TEST(Table, RuleSeparatesSections) {
  Table t({"x"});
  t.add_row({"a"});
  t.add_rule();
  t.add_row({"b"});
  const std::string out = t.render();
  // header rule + top + bottom + section rule
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos; ++pos) ++rules;
  EXPECT_EQ(rules, 4u);
}

TEST(BarChart, RendersProportionalBars) {
  BarChart chart("demo", 10);
  chart.add("half", 0.5, "50%");
  chart.add("full", 1.0, "100%");
  const std::string out = chart.render();
  EXPECT_NE(out.find("#####     | 50%"), std::string::npos);
  EXPECT_NE(out.find("##########| 100%"), std::string::npos);
}

}  // namespace
}  // namespace jsceres
