#include "dom/canvas.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "support/hash.h"

namespace jsceres::dom {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return 0;
}

}  // namespace

Rgba parse_color(const std::string& text) {
  if (text.empty()) return Rgba{0, 0, 0, 255};
  if (text[0] == '#') {
    if (text.size() == 4) {
      return Rgba{std::uint8_t(hex_digit(text[1]) * 17),
                  std::uint8_t(hex_digit(text[2]) * 17),
                  std::uint8_t(hex_digit(text[3]) * 17), 255};
    }
    if (text.size() == 7) {
      return Rgba{std::uint8_t(hex_digit(text[1]) * 16 + hex_digit(text[2])),
                  std::uint8_t(hex_digit(text[3]) * 16 + hex_digit(text[4])),
                  std::uint8_t(hex_digit(text[5]) * 16 + hex_digit(text[6])), 255};
    }
    return Rgba{0, 0, 0, 255};
  }
  if (text.rfind("rgba(", 0) == 0 || text.rfind("rgb(", 0) == 0) {
    int r = 0;
    int g = 0;
    int b = 0;
    float a = 1.0f;
    if (std::sscanf(text.c_str(), "rgba(%d,%d,%d,%f)", &r, &g, &b, &a) >= 3 ||
        std::sscanf(text.c_str(), "rgb(%d,%d,%d)", &r, &g, &b) == 3) {
      const auto clamp8 = [](int v) {
        return std::uint8_t(std::clamp(v, 0, 255));
      };
      return Rgba{clamp8(r), clamp8(g), clamp8(b),
                  std::uint8_t(std::clamp(a, 0.0f, 1.0f) * 255.0f)};
    }
    return Rgba{0, 0, 0, 255};
  }
  if (text == "white") return Rgba{255, 255, 255, 255};
  if (text == "red") return Rgba{255, 0, 0, 255};
  if (text == "green") return Rgba{0, 128, 0, 255};
  if (text == "blue") return Rgba{0, 0, 255, 255};
  if (text == "gray" || text == "grey") return Rgba{128, 128, 128, 255};
  return Rgba{0, 0, 0, 255};
}

void CanvasContext::charge(std::int64_t pixels, std::int64_t block_ns_per_kpixel) {
  // Native rasterization: ~256 pixels per cost-model tick (native code is
  // orders of magnitude cheaper per pixel than interpreted JS).
  pending_.cpu_ticks += std::max<std::int64_t>(1, pixels / 256);
  pending_.block_ns += pixels * block_ns_per_kpixel / 1000;
}

void CanvasContext::fill_rect(int x, int y, int w, int h) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(width_, x + w);
  const int y1 = std::min(height_, y + h);
  for (int py = y0; py < y1; ++py) {
    for (int px = x0; px < x1; ++px) {
      pixels_[std::size_t(py * width_ + px)] = fill_;
    }
  }
  charge(std::int64_t(std::max(0, x1 - x0)) * std::max(0, y1 - y0));
}

void CanvasContext::clear_rect(int x, int y, int w, int h) {
  const Rgba saved = fill_;
  fill_ = Rgba{0, 0, 0, 0};
  fill_rect(x, y, w, h);
  fill_ = saved;
}

void CanvasContext::draw_line(double x0, double y0, double x1, double y1) {
  // DDA rasterization with the stroke color.
  const double dx = x1 - x0;
  const double dy = y1 - y0;
  const int steps = std::max(1, int(std::max(std::fabs(dx), std::fabs(dy))));
  for (int i = 0; i <= steps; ++i) {
    const double t = double(i) / steps;
    set_pixel(int(std::lround(x0 + dx * t)), int(std::lround(y0 + dy * t)), stroke_);
  }
  charge(steps + 1);
}

void CanvasContext::fill_circle(double cx, double cy, double radius) {
  const int x0 = int(std::floor(cx - radius));
  const int x1 = int(std::ceil(cx + radius));
  const int y0 = int(std::floor(cy - radius));
  const int y1 = int(std::ceil(cy + radius));
  const double r2 = radius * radius;
  std::int64_t touched = 0;
  for (int py = y0; py <= y1; ++py) {
    for (int px = x0; px <= x1; ++px) {
      const double ddx = px + 0.5 - cx;
      const double ddy = py + 0.5 - cy;
      if (ddx * ddx + ddy * ddy <= r2) {
        set_pixel(px, py, fill_);
        ++touched;
      }
    }
  }
  charge(std::max<std::int64_t>(touched, 1));
}

void CanvasContext::stroke_path() {
  for (std::size_t i = 1; i < path_.size(); ++i) {
    draw_line(path_[i - 1].first, path_[i - 1].second, path_[i].first,
              path_[i].second);
  }
}

void CanvasContext::fill_path() {
  if (has_arc_) fill_circle(arc_cx_, arc_cy_, arc_r_);
}

std::vector<std::uint8_t> CanvasContext::get_image_data(int x, int y, int w,
                                                        int h) const {
  std::vector<std::uint8_t> out(std::size_t(w) * std::size_t(h) * 4);
  std::size_t i = 0;
  for (int py = y; py < y + h; ++py) {
    for (int px = x; px < x + w; ++px) {
      const Rgba c = pixel(px, py);
      out[i++] = c.r;
      out[i++] = c.g;
      out[i++] = c.b;
      out[i++] = c.a;
    }
  }
  const_cast<CanvasContext*>(this)->charge(std::int64_t(w) * h);
  return out;
}

std::vector<std::uint8_t> CanvasContext::snapshot_rgba() const {
  std::vector<std::uint8_t> out(std::size_t(width_) * std::size_t(height_) * 4);
  std::size_t i = 0;
  for (const Rgba c : pixels_) {
    out[i++] = c.r;
    out[i++] = c.g;
    out[i++] = c.b;
    out[i++] = c.a;
  }
  return out;
}

void CanvasContext::put_image_data(const std::vector<std::uint8_t>& rgba, int x,
                                   int y, int w, int h) {
  std::size_t i = 0;
  for (int py = y; py < y + h; ++py) {
    for (int px = x; px < x + w; ++px) {
      if (i + 3 >= rgba.size()) return;
      set_pixel(px, py, Rgba{rgba[i], rgba[i + 1], rgba[i + 2], rgba[i + 3]});
      i += 4;
    }
  }
  // Texture upload / compositor hand-off: wall-clock latency with the CPU
  // idle — a fixed sync stall plus a per-pixel transfer term. This is the
  // "blocking code within the loop" of paper §3.1 that makes loop wall-time
  // exceed CPU-active time for draw-heavy workloads.
  charge(std::int64_t(w) * h, /*block_ns_per_kpixel=*/400'000);
  pending_.block_ns += 25'000'000;  // compositor sync stall
}

std::uint64_t CanvasContext::checksum() const {
  // Rgba is four packed bytes in r, g, b, a order, so the buffer's bytes
  // are the pixels' channels in that order.
  static_assert(sizeof(Rgba) == 4);
  return fnv1a(std::as_bytes(std::span(pixels_)));
}

}  // namespace jsceres::dom
