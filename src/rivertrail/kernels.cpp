#include "rivertrail/kernels.h"

#include <algorithm>
#include <cmath>

#include "support/rng.h"

namespace jsceres::rivertrail::kernels {

namespace {

std::uint8_t clamp8(double v) {
  return std::uint8_t(std::clamp(v, 0.0, 255.0));
}

void pixel_filter_range(std::vector<std::uint8_t>& rgba, std::int64_t lo,
                        std::int64_t hi, int brightness, double contrast) {
  for (std::int64_t p = lo; p < hi; ++p) {
    const std::size_t i = std::size_t(p) * 4;
    for (int c = 0; c < 3; ++c) {
      double v = rgba[i + std::size_t(c)];
      v = (v - 128.0) * contrast + 128.0 + brightness;
      rgba[i + std::size_t(c)] = clamp8(v);
    }
  }
}

void fluid_row_range(const std::vector<double>& src, std::vector<double>& dst,
                     int n, double a, std::int64_t row_lo, std::int64_t row_hi) {
  const int stride = n + 2;
  for (std::int64_t j = row_lo; j < row_hi; ++j) {
    for (int i = 1; i <= n; ++i) {
      const std::size_t at = std::size_t(j) * std::size_t(stride) + std::size_t(i);
      dst[at] = (src[at] + a * (src[at - 1] + src[at + 1] +
                                src[at - std::size_t(stride)] +
                                src[at + std::size_t(stride)])) /
                (1.0 + 4.0 * a);
    }
  }
}

// -- raytracer ---------------------------------------------------------------

struct Vec3 {
  double x = 0, y = 0, z = 0;
};
Vec3 operator+(Vec3 a, Vec3 b) { return {a.x + b.x, a.y + b.y, a.z + b.z}; }
Vec3 operator-(Vec3 a, Vec3 b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
Vec3 operator*(Vec3 a, double s) { return {a.x * s, a.y * s, a.z * s}; }
double dot(Vec3 a, Vec3 b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
Vec3 normalize(Vec3 v) {
  const double len = std::sqrt(dot(v, v));
  return len > 0 ? v * (1.0 / len) : v;
}

struct Sphere {
  Vec3 center;
  double radius;
  Vec3 color;
  double reflect;
};

const Sphere kSpheres[] = {
    {{0.0, -100.5, -1.0}, 100.0, {0.6, 0.7, 0.3}, 0.1},
    {{0.0, 0.0, -1.0}, 0.5, {0.9, 0.2, 0.2}, 0.5},
    {{-1.0, 0.1, -1.2}, 0.4, {0.2, 0.4, 0.9}, 0.7},
    {{1.0, -0.1, -0.9}, 0.35, {0.9, 0.9, 0.2}, 0.3},
};

bool hit_sphere(const Sphere& s, Vec3 origin, Vec3 dir, double* t_out) {
  const Vec3 oc = origin - s.center;
  const double b = dot(oc, dir);
  const double c = dot(oc, oc) - s.radius * s.radius;
  const double disc = b * b - c;
  if (disc < 0) return false;
  const double t = -b - std::sqrt(disc);
  if (t < 1e-4) return false;
  *t_out = t;
  return true;
}

Vec3 trace(Vec3 origin, Vec3 dir, int depth) {
  double best_t = 1e30;
  const Sphere* best = nullptr;
  for (const Sphere& s : kSpheres) {
    double t = 0;
    if (hit_sphere(s, origin, dir, &t) && t < best_t) {
      best_t = t;
      best = &s;
    }
  }
  if (best == nullptr) {
    const double f = 0.5 * (dir.y + 1.0);
    return Vec3{1.0, 1.0, 1.0} * (1.0 - f) + Vec3{0.5, 0.7, 1.0} * f;
  }
  const Vec3 hit = origin + dir * best_t;
  const Vec3 normal = normalize(hit - best->center);
  const Vec3 light = normalize(Vec3{0.7, 1.0, 0.4});
  double diffuse = std::max(0.0, dot(normal, light));
  Vec3 color = best->color * (0.2 + 0.8 * diffuse);
  if (depth > 0 && best->reflect > 0) {
    const Vec3 refl_dir = dir - normal * (2.0 * dot(dir, normal));
    // Variable-depth recursion: the raytracer's control-flow divergence.
    const Vec3 refl = trace(hit, normalize(refl_dir), depth - 1);
    color = color * (1.0 - best->reflect) + refl * best->reflect;
  }
  return color;
}

void raytrace_rows(const RayScene& scene, std::vector<std::uint8_t>& rgba,
                   std::int64_t row_lo, std::int64_t row_hi) {
  const double aspect = double(scene.width) / scene.height;
  for (std::int64_t y = row_lo; y < row_hi; ++y) {
    for (int x = 0; x < scene.width; ++x) {
      const double u = (2.0 * (x + 0.5) / scene.width - 1.0) * aspect;
      const double v = 1.0 - 2.0 * (double(y) + 0.5) / scene.height;
      const Vec3 dir = normalize(Vec3{u, v, -1.5});
      const Vec3 c = trace(Vec3{0, 0, 1}, dir, scene.max_depth);
      const std::size_t i =
          (std::size_t(y) * std::size_t(scene.width) + std::size_t(x)) * 4;
      rgba[i] = clamp8(c.x * 255.0);
      rgba[i + 1] = clamp8(c.y * 255.0);
      rgba[i + 2] = clamp8(c.z * 255.0);
      rgba[i + 3] = 255;
    }
  }
}

void normal_map_rows(const std::vector<double>& height, int w, int h, double lx,
                     double ly, double lz, std::vector<std::uint8_t>& rgba,
                     std::int64_t row_lo, std::int64_t row_hi) {
  const double llen = std::sqrt(lx * lx + ly * ly + lz * lz);
  const double nlx = lx / llen;
  const double nly = ly / llen;
  const double nlz = lz / llen;
  const auto at = [&](int x, int y) {
    x = std::clamp(x, 0, w - 1);
    y = std::clamp(y, 0, h - 1);
    return height[std::size_t(y) * std::size_t(w) + std::size_t(x)];
  };
  for (std::int64_t y = row_lo; y < row_hi; ++y) {
    for (int x = 0; x < w; ++x) {
      // Central-difference tangent-space normal.
      const double dx = at(x + 1, int(y)) - at(x - 1, int(y));
      const double dy = at(x, int(y) + 1) - at(x, int(y) - 1);
      double nx = -dx;
      double ny = -dy;
      double nz = 2.0 / w;
      const double len = std::sqrt(nx * nx + ny * ny + nz * nz);
      nx /= len;
      ny /= len;
      nz /= len;
      const double lum = std::max(0.0, nx * nlx + ny * nly + nz * nlz);
      const std::size_t i = (std::size_t(y) * std::size_t(w) + std::size_t(x)) * 4;
      rgba[i] = clamp8(40 + 215 * lum);
      rgba[i + 1] = clamp8(40 + 180 * lum);
      rgba[i + 2] = clamp8(60 + 140 * lum);
      rgba[i + 3] = 255;
    }
  }
}

void cloth_range(std::vector<ClothParticle>& particles, double gravity, double dt,
                 std::int64_t lo, std::int64_t hi) {
  const double dt2 = dt * dt;
  for (std::int64_t i = lo; i < hi; ++i) {
    ClothParticle& p = particles[std::size_t(i)];
    if (p.pinned) continue;
    const double vx = (p.x - p.px) * 0.99;
    const double vy = (p.y - p.py) * 0.99;
    p.px = p.x;
    p.py = p.y;
    p.x += vx;
    p.y += vy + gravity * dt2;
  }
}

}  // namespace

void pixel_filter_seq(std::vector<std::uint8_t>& rgba, int brightness,
                      double contrast) {
  pixel_filter_range(rgba, 0, std::int64_t(rgba.size() / 4), brightness, contrast);
}

void pixel_filter_par(ThreadPool& pool, std::vector<std::uint8_t>& rgba,
                      int brightness, double contrast) {
  parallel_for(pool, 0, std::int64_t(rgba.size() / 4),
               [&](std::int64_t lo, std::int64_t hi) {
                 pixel_filter_range(rgba, lo, hi, brightness, contrast);
               });
}

void fluid_diffuse_seq(const std::vector<double>& src, std::vector<double>& dst,
                       int n, double a) {
  dst = src;  // keep the boundary cells
  fluid_row_range(src, dst, n, a, 1, n + 1);
}

void fluid_diffuse_par(ThreadPool& pool, const std::vector<double>& src,
                       std::vector<double>& dst, int n, double a,
                       std::int64_t grain) {
  // Copy only the boundary ring; the interior is fully overwritten by the
  // sweep (avoids a serial full-grid memcpy ahead of the parallel region).
  const int stride = n + 2;
  dst.resize(src.size());
  for (int i = 0; i < stride; ++i) {
    dst[std::size_t(i)] = src[std::size_t(i)];                              // top
    dst[std::size_t((n + 1) * stride + i)] = src[std::size_t((n + 1) * stride + i)];
    dst[std::size_t(i) * std::size_t(stride)] = src[std::size_t(i) * std::size_t(stride)];
    dst[std::size_t(i) * std::size_t(stride) + std::size_t(n + 1)] =
        src[std::size_t(i) * std::size_t(stride) + std::size_t(n + 1)];
  }
  parallel_for(
      pool, 1, std::int64_t(n) + 1,
      [&](std::int64_t lo, std::int64_t hi) { fluid_row_range(src, dst, n, a, lo, hi); },
      grain);
}

void raytrace_seq(const RayScene& scene, std::vector<std::uint8_t>& rgba) {
  rgba.assign(std::size_t(scene.width) * std::size_t(scene.height) * 4, 0);
  raytrace_rows(scene, rgba, 0, scene.height);
}

void raytrace_par(ThreadPool& pool, const RayScene& scene,
                  std::vector<std::uint8_t>& rgba, std::int64_t grain) {
  rgba.assign(std::size_t(scene.width) * std::size_t(scene.height) * 4, 0);
  parallel_for(
      pool, 0, scene.height,
      [&](std::int64_t lo, std::int64_t hi) { raytrace_rows(scene, rgba, lo, hi); },
      grain);
}

void normal_map_seq(const std::vector<double>& height, int w, int h, double lx,
                    double ly, double lz, std::vector<std::uint8_t>& rgba) {
  rgba.assign(std::size_t(w) * std::size_t(h) * 4, 0);
  normal_map_rows(height, w, h, lx, ly, lz, rgba, 0, h);
}

void normal_map_par(ThreadPool& pool, const std::vector<double>& height, int w,
                    int h, double lx, double ly, double lz,
                    std::vector<std::uint8_t>& rgba) {
  rgba.assign(std::size_t(w) * std::size_t(h) * 4, 0);
  parallel_for(pool, 0, h, [&](std::int64_t lo, std::int64_t hi) {
    normal_map_rows(height, w, h, lx, ly, lz, rgba, lo, hi);
  });
}

void cloth_integrate_seq(std::vector<ClothParticle>& particles, double gravity,
                         double dt) {
  cloth_range(particles, gravity, dt, 0, std::int64_t(particles.size()));
}

void cloth_integrate_par(ThreadPool& pool, std::vector<ClothParticle>& particles,
                         double gravity, double dt) {
  parallel_for(pool, 0, std::int64_t(particles.size()),
               [&](std::int64_t lo, std::int64_t hi) {
                 cloth_range(particles, gravity, dt, lo, hi);
               });
}

CenterOfMass nbody_step_seq(std::vector<Body>& bodies, double dt) {
  CenterOfMass com;
  for (Body& b : bodies) {
    b.vx += b.fx / b.m * dt;
    b.vy += b.fy / b.m * dt;
    b.x += b.vx * dt;
    b.y += b.vy * dt;
    com.m += b.m;
    com.x += b.x * b.m;
    com.y += b.y * b.m;
  }
  if (com.m > 0) {
    com.x /= com.m;
    com.y /= com.m;
  }
  return com;
}

CenterOfMass nbody_step_par(ThreadPool& pool, std::vector<Body>& bodies, double dt) {
  // Fused map + reduction: the paper's flow dependence (com) becomes
  // per-chunk partials combined in chunk order (deterministic), computed in
  // the same pass as the integration map. parallel_chunks keeps the chunk
  // boundaries fixed regardless of scheduling, so the combine order — and
  // the floating-point result — is reproducible run to run.
  const auto workers = std::int64_t(pool.size());
  const std::int64_t n = std::int64_t(bodies.size());
  const std::int64_t chunks = std::max<std::int64_t>(1, std::min(workers, n));
  struct Partial {
    double m = 0, x = 0, y = 0;
  };
  std::vector<Partial> partials{std::size_t(chunks)};
  parallel_chunks(pool, n, chunks,
                  [&bodies, &partials, dt](std::int64_t c, std::int64_t lo,
                                           std::int64_t hi) {
                    Partial acc;
                    for (std::int64_t i = lo; i < hi; ++i) {
                      Body& b = bodies[std::size_t(i)];
                      b.vx += b.fx / b.m * dt;
                      b.vy += b.fy / b.m * dt;
                      b.x += b.vx * dt;
                      b.y += b.vy * dt;
                      acc.m += b.m;
                      acc.x += b.x * b.m;
                      acc.y += b.y * b.m;
                    }
                    partials[std::size_t(c)] = acc;
                  });
  CenterOfMass com;
  for (const Partial& p : partials) {
    com.m += p.m;
    com.x += p.x;
    com.y += p.y;
  }
  if (com.m > 0) {
    com.x /= com.m;
    com.y /= com.m;
  }
  return com;
}

std::vector<std::uint8_t> make_test_image(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> rgba(std::size_t(w) * std::size_t(h) * 4);
  for (auto& byte : rgba) byte = std::uint8_t(rng.next_below(256));
  return rgba;
}

std::vector<double> make_height_field(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> height(std::size_t(w) * std::size_t(h));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double base = std::sin(x * 0.15) * std::cos(y * 0.11);
      height[std::size_t(y) * std::size_t(w) + std::size_t(x)] =
          base + 0.1 * rng.next_double();
    }
  }
  return height;
}

std::vector<ClothParticle> make_cloth(int cols, int rows) {
  std::vector<ClothParticle> particles;
  particles.reserve(std::size_t(cols) * std::size_t(rows));
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      ClothParticle p;
      p.x = p.px = x * 10.0;
      p.y = p.py = y * 10.0;
      p.pinned = y == 0 && x % 5 == 0;
      particles.push_back(p);
    }
  }
  return particles;
}

std::vector<Body> make_bodies(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Body> bodies{std::size_t(count)};
  for (Body& b : bodies) {
    b.x = rng.next_double() * 100;
    b.y = rng.next_double() * 100;
    b.fx = rng.next_double() - 0.5;
    b.fy = rng.next_double() - 0.5;
    b.m = 0.5 + rng.next_double();
  }
  return bodies;
}

}  // namespace jsceres::rivertrail::kernels
