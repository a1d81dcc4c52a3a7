#pragma once

#include <cstdint>
#include <vector>

#include "rivertrail/parallel_for.h"

namespace jsceres::rivertrail::kernels {

/// C++ ports of the parallelizable hot loops Table 3 certifies as "easy"
/// (or better). These are the validation arm of the study: the dependence
/// analyzer *claims* these loops have breakable dependencies; executing them
/// on the thread pool with bit-identical results *demonstrates* it.
///
/// Every kernel has a sequential reference and a parallel variant over the
/// same memory layout; the validator checks outputs element-wise.

// --- CamanJS: brightness + contrast over packed RGBA -----------------------
void pixel_filter_seq(std::vector<std::uint8_t>& rgba, int brightness,
                      double contrast);
void pixel_filter_par(ThreadPool& pool, std::vector<std::uint8_t>& rgba,
                      int brightness, double contrast);

// --- fluidSim: one Jacobi diffusion sweep on an (n+2)^2 grid ---------------
void fluid_diffuse_seq(const std::vector<double>& src, std::vector<double>& dst,
                       int n, double a);
/// Jacobi rows are near-uniform, but the grid's edge rows are cheaper than
/// interior ones; a grain of 4 rows keeps spans cache-friendly while still
/// letting hungry thieves peel bands off a lagging worker.
void fluid_diffuse_par(ThreadPool& pool, const std::vector<double>& src,
                       std::vector<double>& dst, int n, double a,
                       std::int64_t grain = 4);

// --- Raytracing: sphere scene, variable-depth reflections ------------------
struct RayScene {
  int width = 64;
  int height = 64;
  int max_depth = 4;  // recursion depth -> control-flow divergence
};
void raytrace_seq(const RayScene& scene, std::vector<std::uint8_t>& rgba);
/// Divergent rows (variable-depth reflection recursion): grain 1 lets the
/// splitter hand out single rows once thieves go hungry, so the reflective
/// band does not pin one worker.
void raytrace_par(ThreadPool& pool, const RayScene& scene,
                  std::vector<std::uint8_t>& rgba, std::int64_t grain = 1);

// --- Normal mapping: per-pixel lighting from a height field ----------------
void normal_map_seq(const std::vector<double>& height, int w, int h, double lx,
                    double ly, double lz, std::vector<std::uint8_t>& rgba);
void normal_map_par(ThreadPool& pool, const std::vector<double>& height, int w,
                    int h, double lx, double ly, double lz,
                    std::vector<std::uint8_t>& rgba);

// --- Tear-able Cloth: Verlet integration (per-particle independent) --------
struct ClothParticle {
  double x = 0;
  double y = 0;
  double px = 0;  // previous position
  double py = 0;
  bool pinned = false;
};
void cloth_integrate_seq(std::vector<ClothParticle>& particles, double gravity,
                         double dt);
void cloth_integrate_par(ThreadPool& pool, std::vector<ClothParticle>& particles,
                         double gravity, double dt);

// --- N-body (Fig. 6): velocity/position update + center-of-mass reduction --
struct Body {
  double x = 0, y = 0, vx = 0, vy = 0, fx = 0, fy = 0, m = 1;
};
struct CenterOfMass {
  double x = 0, y = 0, m = 0;
};
/// Integration is a parallel map; the center of mass — the paper's flow
/// dependence — is re-expressed as a reduction, the "code change" §4.1 says
/// exploiting the parallelism requires.
CenterOfMass nbody_step_seq(std::vector<Body>& bodies, double dt);
CenterOfMass nbody_step_par(ThreadPool& pool, std::vector<Body>& bodies, double dt);

/// Deterministic input builders (seeded) shared by tests and benches.
std::vector<std::uint8_t> make_test_image(int w, int h, std::uint64_t seed);
std::vector<double> make_height_field(int w, int h, std::uint64_t seed);
std::vector<ClothParticle> make_cloth(int cols, int rows);
std::vector<Body> make_bodies(int count, std::uint64_t seed);

}  // namespace jsceres::rivertrail::kernels
