#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "rivertrail/kernels.h"
#include "rivertrail/parallel_for.h"
#include "rivertrail/thread_pool.h"
#include "rivertrail/validator.h"

namespace jsceres::rivertrail {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  CompletionGate gate{10};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      gate.arrive();
    });
  }
  gate.wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // join
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[std::size_t(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 5, 5, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(pool, 5, 6, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_EQ(lo, 5);
    EXPECT_EQ(hi, 6);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, MatchesSequentialSum) {
  ThreadPool pool(2);
  std::vector<double> data(4096);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> out(data.size());
  parallel_for(pool, 0, std::int64_t(data.size()), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      out[std::size_t(i)] = data[std::size_t(i)] * 3;
    }
  });
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(out[i], data[i] * 3);
}

TEST(ParReduce, MatchesSequentialAndIsDeterministic) {
  ThreadPool pool(2);
  std::vector<double> in(10000);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.1 * double(i % 97);
  const double seq = std::accumulate(in.begin(), in.end(), 0.0);
  const double par1 = par_reduce(
      pool, in, 0.0, [](double v) { return v; },
      [](double a, double b) { return a + b; });
  const double par2 = par_reduce(
      pool, in, 0.0, [](double v) { return v; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(par1, par2);  // chunk-ordered combine: run-to-run stable
  EXPECT_NEAR(par1, seq, 1e-9);
}

TEST(ParReduce, EmptyInputYieldsIdentity) {
  ThreadPool pool(2);
  const std::vector<int> empty;
  const int result = par_reduce(
      pool, empty, 42, [](int v) { return v; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
}

// ---------------------------------------------------------------------------
// Kernel ports: parallel == sequential
// ---------------------------------------------------------------------------

TEST(Kernels, PixelFilterMatches) {
  ThreadPool pool(2);
  auto seq = kernels::make_test_image(64, 48, 1);
  auto par = seq;
  kernels::pixel_filter_seq(seq, 15, 1.3);
  kernels::pixel_filter_par(pool, par, 15, 1.3);
  EXPECT_EQ(seq, par);
}

TEST(Kernels, PixelFilterClampsChannels) {
  std::vector<std::uint8_t> img = {250, 5, 128, 255};
  kernels::pixel_filter_seq(img, 100, 2.0);
  EXPECT_EQ(img[0], 255);  // clamped high
  EXPECT_EQ(img[3], 255);  // alpha untouched
}

TEST(Kernels, FluidDiffuseMatchesAndKeepsBoundary) {
  ThreadPool pool(2);
  const int n = 33;
  std::vector<double> src(std::size_t(n + 2) * std::size_t(n + 2));
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = double(i % 13);
  std::vector<double> seq;
  std::vector<double> par;
  kernels::fluid_diffuse_seq(src, seq, n, 0.2);
  kernels::fluid_diffuse_par(pool, src, par, n, 0.2);
  EXPECT_EQ(seq, par);
  // Boundary preserved.
  EXPECT_EQ(seq[0], src[0]);
  EXPECT_EQ(seq.back(), src.back());
}

TEST(Kernels, RaytraceMatchesAcrossGrains) {
  ThreadPool pool(2);
  kernels::RayScene scene;
  scene.width = 32;
  scene.height = 24;
  std::vector<std::uint8_t> seq;
  kernels::raytrace_seq(scene, seq);
  for (const std::int64_t grain : {0, 1, 4}) {
    std::vector<std::uint8_t> par;
    kernels::raytrace_par(pool, scene, par, grain);
    EXPECT_EQ(seq, par) << "grain " << grain;
  }
}

TEST(Kernels, RaytraceDepthChangesImage) {
  kernels::RayScene shallow;
  shallow.width = 16;
  shallow.height = 16;
  shallow.max_depth = 0;
  kernels::RayScene deep = shallow;
  deep.max_depth = 4;
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  kernels::raytrace_seq(shallow, a);
  kernels::raytrace_seq(deep, b);
  EXPECT_NE(a, b);  // reflections actually recurse
}

TEST(Kernels, NormalMapMatches) {
  ThreadPool pool(2);
  const auto height = kernels::make_height_field(40, 30, 9);
  std::vector<std::uint8_t> seq;
  std::vector<std::uint8_t> par;
  kernels::normal_map_seq(height, 40, 30, 0.3, 0.5, 0.8, seq);
  kernels::normal_map_par(pool, height, 40, 30, 0.3, 0.5, 0.8, par);
  EXPECT_EQ(seq, par);
}

TEST(Kernels, ClothIntegrateMatchesAndRespectsPins) {
  ThreadPool pool(2);
  auto seq = kernels::make_cloth(20, 15);
  auto par = seq;
  for (int step = 0; step < 3; ++step) {
    kernels::cloth_integrate_seq(seq, 9.8, 0.016);
    kernels::cloth_integrate_par(pool, par, 9.8, 0.016);
  }
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i].x, par[i].x);
    EXPECT_DOUBLE_EQ(seq[i].y, par[i].y);
    if (seq[i].pinned) {
      EXPECT_DOUBLE_EQ(seq[i].y, par[i].py);  // pins never move
    }
  }
}

TEST(Kernels, NBodyComMatchesWithinTolerance) {
  ThreadPool pool(2);
  auto seq = kernels::make_bodies(5000, 3);
  auto par = seq;
  const auto seq_com = kernels::nbody_step_seq(seq, 0.02);
  const auto par_com = kernels::nbody_step_par(pool, par, 0.02);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq[i].x, par[i].x);
    EXPECT_DOUBLE_EQ(seq[i].vy, par[i].vy);
  }
  // The reduction reassociates floating point: tolerance, not equality.
  EXPECT_NEAR(seq_com.x, par_com.x, 1e-9);
  EXPECT_NEAR(seq_com.y, par_com.y, 1e-9);
  EXPECT_NEAR(seq_com.m, par_com.m, 1e-9);
}

TEST(Validator, AllKernelsValidate) {
  ThreadPool pool(2);
  const auto results = validate_all(pool, 0.05);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.outputs_match) << r.kernel << " max err " << r.max_abs_error;
    EXPECT_GT(r.seq_ms, 0);
    EXPECT_GT(r.par_ms, 0);
  }
}

TEST(Validator, RenderMentionsThreadCount) {
  ThreadPool pool(2);
  const auto results = validate_all(pool, 0.05);
  const std::string table = render_validation_table(results, pool.size());
  EXPECT_NE(table.find("2 thread(s)"), std::string::npos);
  EXPECT_NE(table.find("pixel_filter"), std::string::npos);
}

}  // namespace
}  // namespace jsceres::rivertrail
