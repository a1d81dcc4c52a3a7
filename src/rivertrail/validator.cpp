#include "rivertrail/validator.h"

#include <chrono>
#include <cmath>

#include "rivertrail/kernels.h"
#include "support/table.h"
#include "support/str.h"

namespace jsceres::rivertrail {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

template <typename T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return 1e300;
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(double(a[i]) - double(b[i])));
  }
  return worst;
}

}  // namespace

std::vector<ValidationResult> validate_all(ThreadPool& pool, double scale) {
  std::vector<ValidationResult> results;
  const int dim = std::max(64, int(256 * std::sqrt(scale)));

  // Warm the pool (first dispatch pays thread wake-up costs).
  std::vector<double> warmup(1 << 16);
  parallel_for(pool, 0, std::int64_t(warmup.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) warmup[std::size_t(i)] = double(i);
               });

  {  // CamanJS pixel filter
    ValidationResult r;
    r.kernel = "pixel_filter (CamanJS)";
    auto seq_img = kernels::make_test_image(dim * 2, dim * 2, 11);
    auto par_img = seq_img;
    auto t0 = Clock::now();
    kernels::pixel_filter_seq(seq_img, 12, 1.2);
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    kernels::pixel_filter_par(pool, par_img, 12, 1.2);
    r.par_ms = ms_since(t0);
    r.max_abs_error = max_abs_diff(seq_img, par_img);
    r.outputs_match = r.max_abs_error == 0;
    results.push_back(r);
  }
  {  // fluidSim diffusion
    ValidationResult r;
    r.kernel = "fluid_diffuse (fluidSim)";
    const int n = dim;
    std::vector<double> src(std::size_t(n + 2) * std::size_t(n + 2));
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = double(i % 97) / 97.0;
    std::vector<double> seq_dst;
    std::vector<double> par_dst;
    auto t0 = Clock::now();
    kernels::fluid_diffuse_seq(src, seq_dst, n, 0.12);
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    kernels::fluid_diffuse_par(pool, src, par_dst, n, 0.12);
    r.par_ms = ms_since(t0);
    r.max_abs_error = max_abs_diff(seq_dst, par_dst);
    r.outputs_match = r.max_abs_error == 0;
    results.push_back(r);
  }
  {  // raytracer (divergent rows: rebalanced by the splitter's steals)
    ValidationResult r;
    r.kernel = "raytrace (Raytracing)";
    kernels::RayScene scene;
    scene.width = dim;
    scene.height = dim;
    std::vector<std::uint8_t> seq_img;
    std::vector<std::uint8_t> par_img;
    auto t0 = Clock::now();
    kernels::raytrace_seq(scene, seq_img);
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    kernels::raytrace_par(pool, scene, par_img);
    r.par_ms = ms_since(t0);
    r.max_abs_error = max_abs_diff(seq_img, par_img);
    r.outputs_match = r.max_abs_error == 0;
    results.push_back(r);
  }
  {  // normal mapping
    ValidationResult r;
    r.kernel = "normal_map (Normal Mapping)";
    const auto height = kernels::make_height_field(dim * 2, dim * 2, 5);
    std::vector<std::uint8_t> seq_img;
    std::vector<std::uint8_t> par_img;
    auto t0 = Clock::now();
    kernels::normal_map_seq(height, dim * 2, dim * 2, 0.4, 0.5, 0.8, seq_img);
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    kernels::normal_map_par(pool, height, dim * 2, dim * 2, 0.4, 0.5, 0.8, par_img);
    r.par_ms = ms_since(t0);
    r.max_abs_error = max_abs_diff(seq_img, par_img);
    r.outputs_match = r.max_abs_error == 0;
    results.push_back(r);
  }
  {  // cloth integration
    ValidationResult r;
    r.kernel = "cloth_integrate (Tear-able Cloth)";
    auto seq_cloth = kernels::make_cloth(dim * 2, dim * 2);
    auto par_cloth = seq_cloth;
    auto t0 = Clock::now();
    for (int step = 0; step < 5; ++step) {
      kernels::cloth_integrate_seq(seq_cloth, 9.8, 0.016);
    }
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    for (int step = 0; step < 5; ++step) {
      kernels::cloth_integrate_par(pool, par_cloth, 9.8, 0.016);
    }
    r.par_ms = ms_since(t0);
    double worst = 0;
    for (std::size_t i = 0; i < seq_cloth.size(); ++i) {
      worst = std::max(worst, std::fabs(seq_cloth[i].x - par_cloth[i].x));
      worst = std::max(worst, std::fabs(seq_cloth[i].y - par_cloth[i].y));
    }
    r.max_abs_error = worst;
    r.outputs_match = worst == 0;
    results.push_back(r);
  }
  {  // N-body step + center-of-mass reduction
    ValidationResult r;
    r.kernel = "nbody_step (Fig. 6)";
    auto seq_bodies = kernels::make_bodies(int(400000 * scale), 3);
    auto par_bodies = seq_bodies;
    auto t0 = Clock::now();
    const auto seq_com = kernels::nbody_step_seq(seq_bodies, 0.01);
    r.seq_ms = ms_since(t0);
    t0 = Clock::now();
    const auto par_com = kernels::nbody_step_par(pool, par_bodies, 0.01);
    r.par_ms = ms_since(t0);
    double worst = 0;
    for (std::size_t i = 0; i < seq_bodies.size(); ++i) {
      worst = std::max(worst, std::fabs(seq_bodies[i].x - par_bodies[i].x));
    }
    // The reduction reassociates floating point: compare with a tolerance
    // and record the defect honestly.
    worst = std::max(worst, std::fabs(seq_com.x - par_com.x));
    worst = std::max(worst, std::fabs(seq_com.y - par_com.y));
    r.max_abs_error = worst;
    r.outputs_match = worst < 1e-9;
    results.push_back(r);
  }
  return results;
}

std::string render_validation_table(const std::vector<ValidationResult>& results,
                                    unsigned threads) {
  Table table({"kernel", "match", "max |err|", "seq ms", "par ms", "speedup"});
  for (std::size_t c = 2; c <= 5; ++c) table.set_align(c, Table::Align::Right);
  for (const auto& r : results) {
    table.add_row({r.kernel, r.outputs_match ? "yes" : "NO",
                   r.max_abs_error == 0 ? "0" : str::fixed(r.max_abs_error, 12),
                   str::fixed(r.seq_ms, 2), str::fixed(r.par_ms, 2),
                   str::fixed(r.speedup(), 2) + "x"});
  }
  return "parallel validation on " + std::to_string(threads) + " thread(s)\n" +
         table.render();
}

}  // namespace jsceres::rivertrail
