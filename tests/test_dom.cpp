#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dom/page.h"
#include "js/parser.h"
#include "rivertrail/thread_pool.h"

namespace jsceres::dom {
namespace {

using interp::Interpreter;
using interp::Value;

struct Fixture {
  explicit Fixture(const std::string& source)
      : interp(js::parse(source), clock), page(interp) {}

  VirtualClock clock;
  Interpreter interp;
  Page page;
};

TEST(Canvas, ParseColors) {
  const Rgba red = parse_color("#f00");
  EXPECT_EQ(red.r, 255);
  EXPECT_EQ(red.g, 0);
  const Rgba c = parse_color("#102030");
  EXPECT_EQ(c.r, 16);
  EXPECT_EQ(c.g, 32);
  EXPECT_EQ(c.b, 48);
  const Rgba rgb = parse_color("rgb(1,2,3)");
  EXPECT_EQ(rgb.b, 3);
  const Rgba rgba = parse_color("rgba(10,20,30,0.5)");
  EXPECT_EQ(rgba.a, 127);
  EXPECT_EQ(parse_color("white").r, 255);
}

TEST(Canvas, FillRectSetsPixels) {
  CanvasContext ctx(10, 10);
  ctx.set_fill_color(Rgba{1, 2, 3, 255});
  ctx.fill_rect(2, 2, 3, 3);
  EXPECT_EQ(ctx.pixel(2, 2).r, 1);
  EXPECT_EQ(ctx.pixel(4, 4).b, 3);
  EXPECT_EQ(ctx.pixel(5, 5).r, 0);
}

TEST(Canvas, FillRectClipsToBounds) {
  CanvasContext ctx(4, 4);
  ctx.set_fill_color(Rgba{9, 9, 9, 255});
  ctx.fill_rect(-5, -5, 100, 100);
  EXPECT_EQ(ctx.pixel(0, 0).r, 9);
  EXPECT_EQ(ctx.pixel(3, 3).r, 9);
}

TEST(Canvas, ImageDataRoundTrip) {
  CanvasContext ctx(4, 4);
  ctx.set_fill_color(Rgba{100, 150, 200, 255});
  ctx.fill_rect(0, 0, 4, 4);
  auto bytes = ctx.get_image_data(0, 0, 4, 4);
  ASSERT_EQ(bytes.size(), 4u * 4 * 4);
  EXPECT_EQ(bytes[0], 100);
  bytes[0] = 42;
  ctx.put_image_data(bytes, 0, 0, 4, 4);
  EXPECT_EQ(ctx.pixel(0, 0).r, 42);
}

TEST(Canvas, ChecksumIsDeterministicAndSensitive) {
  CanvasContext a(8, 8);
  CanvasContext b(8, 8);
  EXPECT_EQ(a.checksum(), b.checksum());
  a.set_fill_color(Rgba{1, 0, 0, 255});
  a.fill_rect(0, 0, 1, 1);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Canvas, CostAccrues) {
  CanvasContext ctx(100, 100);
  ctx.fill_rect(0, 0, 100, 100);
  const auto cost = ctx.drain_cost();
  EXPECT_GT(cost.cpu_ticks, 0);
  // putImageData blocks (compositor hand-off).
  auto bytes = ctx.get_image_data(0, 0, 100, 100);
  ctx.drain_cost();
  ctx.put_image_data(bytes, 0, 0, 100, 100);
  EXPECT_GT(ctx.drain_cost().block_ns, 0);
}

TEST(Canvas, PathStroke) {
  CanvasContext ctx(10, 10);
  ctx.set_stroke_color(Rgba{255, 0, 0, 255});
  ctx.begin_path();
  ctx.move_to(0, 0);
  ctx.line_to(9, 9);
  ctx.stroke_path();
  EXPECT_EQ(ctx.pixel(5, 5).r, 255);
}

TEST(Document, TreeOperations) {
  Document doc;
  auto div = doc.create("div");
  div->set_id("box");
  doc.register_id(div);
  doc.body()->append_child(div);
  EXPECT_EQ(doc.by_id("box"), div);
  EXPECT_EQ(div->parent(), doc.body());
  EXPECT_EQ(doc.node_count(), 3u);  // html, body, div
  doc.body()->remove_child(div.get());
  EXPECT_EQ(doc.node_count(), 2u);
}

TEST(Page, GetElementByIdFromJs) {
  Fixture f(
      "var el = document.getElementById('stage');\n"
      "var result = el === null ? 'missing' : el.id;\n");
  f.page.add_canvas("stage", 16, 16);
  f.interp.run();
  EXPECT_EQ(f.interp.global("result").as_string(), "stage");
}

TEST(Page, CanvasDrawingFromJs) {
  Fixture f(
      "var ctx = document.getElementById('stage').getContext('2d');\n"
      "ctx.fillStyle = '#ff0000';\n"
      "ctx.fillRect(0, 0, 8, 8);\n"
      "var img = ctx.getImageData(0, 0, 2, 2);\n"
      "var result = img.data[0];\n");
  f.page.add_canvas("stage", 16, 16);
  f.interp.run();
  EXPECT_DOUBLE_EQ(f.interp.global("result").as_number(), 255);
  const auto ctx = f.page.context_of(f.page.document().by_id("stage").get());
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->pixel(3, 3).r, 255);
}

TEST(Page, PutImageDataFromJs) {
  Fixture f(
      "var ctx = document.getElementById('stage').getContext('2d');\n"
      "var img = ctx.getImageData(0, 0, 2, 2);\n"
      "for (var i = 0; i < img.data.length; i += 4) { img.data[i] = 77; img.data[i+3] = 255; }\n"
      "ctx.putImageData(img, 0, 0);\n");
  f.page.add_canvas("stage", 4, 4);
  f.interp.run();
  const auto ctx = f.page.context_of(f.page.document().by_id("stage").get());
  EXPECT_EQ(ctx->pixel(1, 1).r, 77);
  EXPECT_EQ(ctx->pixel(3, 3).r, 0);  // outside the written region
}

TEST(Page, CreateAppendFromJs) {
  Fixture f(
      "var div = document.createElement('div');\n"
      "div.setAttribute('id', 'made');\n"
      "document.body.appendChild(div);\n"
      "var result = document.getElementById('made') === div ? 'yes' : 'no';\n");
  f.interp.run();
  EXPECT_EQ(f.interp.global("result").as_string(), "yes");
}

TEST(EventLoop, TimeoutFiresAtDueTime) {
  Fixture f(
      "var fired = -1;\n"
      "setTimeout(function () { fired = performance.now(); }, 30);\n");
  f.interp.run();
  f.page.event_loop().run(/*horizon_ms=*/1000);
  EXPECT_NEAR(f.interp.global("fired").as_number(), 30.0, 1.0);
  // Horizon idles out the rest of the session.
  EXPECT_NEAR(double(f.clock.wall_ns()) / 1e6, 1000.0, 1e-6);
}

TEST(EventLoop, TimeoutOrderingIsStable) {
  Fixture f(
      "var order = '';\n"
      "setTimeout(function () { order += 'b'; }, 20);\n"
      "setTimeout(function () { order += 'a'; }, 10);\n"
      "setTimeout(function () { order += 'c'; }, 20);\n");
  f.interp.run();
  f.page.event_loop().run(100);
  EXPECT_EQ(f.interp.global("order").as_string(), "abc");
}

TEST(EventLoop, ClearTimeoutCancels) {
  Fixture f(
      "var fired = 0;\n"
      "var id = setTimeout(function () { fired = 1; }, 10);\n"
      "clearTimeout(id);\n");
  f.interp.run();
  f.page.event_loop().run(100);
  EXPECT_DOUBLE_EQ(f.interp.global("fired").as_number(), 0);
}

TEST(EventLoop, RafAlignsToFrameBoundary) {
  Fixture f(
      "var t = -1;\n"
      "requestAnimationFrame(function (now) { t = now; });\n");
  f.interp.run();
  f.page.event_loop().run(100);
  EXPECT_NEAR(f.interp.global("t").as_number(), 16.666667, 0.01);
}

TEST(EventLoop, RafChainStopsAtHorizon) {
  Fixture f(
      "var frames = 0;\n"
      "function tick() { frames++; requestAnimationFrame(tick); }\n"
      "requestAnimationFrame(tick);\n");
  f.interp.run();
  f.page.event_loop().run(/*horizon_ms=*/500);
  // ~30 frames in 500 ms at 60 Hz.
  EXPECT_NEAR(f.interp.global("frames").as_number(), 30, 2);
}

TEST(EventLoop, UserEventsDispatchToListeners) {
  Fixture f(
      "var moves = 0;\n"
      "var lastX = -1;\n"
      "addEventListener('mousemove', function (e) { moves++; lastX = e.x; });\n");
  f.interp.run();
  f.page.event_loop().push_user_events({
      UserEvent{10, "mousemove", 100, 50, ""},
      UserEvent{20, "mousemove", 110, 55, ""},
      UserEvent{30, "click", 0, 0, ""},  // no listener: dropped
  });
  f.page.event_loop().run(100);
  EXPECT_DOUBLE_EQ(f.interp.global("moves").as_number(), 2);
  EXPECT_DOUBLE_EQ(f.interp.global("lastX").as_number(), 110);
}

// Frame-graph mode must leave every virtual-time observable bit-identical
// to the serial dispatch loop (the kernel stage is serial-in), while
// committing each frame through the kernel -> upload -> commit pipeline in
// deterministic frame order.
TEST(EventLoop, FrameGraphPreservesVirtualTimeAndCommitsDeterministically) {
  const std::string source =
      "var frames = 0;\n"
      "var ctx = document.getElementById('stage').getContext('2d');\n"
      "function tick() {\n"
      "  frames++;\n"
      "  ctx.fillStyle = 'rgb(' + (frames % 255) + ',0,0)';\n"
      "  ctx.fillRect(0, 0, 8, 8);\n"
      "  requestAnimationFrame(tick);\n"
      "}\n"
      "requestAnimationFrame(tick);\n";

  struct Run {
    double frames = 0;
    std::int64_t wall = 0;
    std::int64_t cpu = 0;
    std::int64_t dispatched = 0;
    std::vector<std::pair<std::int64_t, std::uint64_t>> log;
  };
  const auto run_once = [&](bool frame_graph) {
    Fixture f(source);
    f.page.add_canvas("stage", 8, 8);
    f.interp.run();
    rivertrail::ThreadPool pool(2);
    if (frame_graph) {
      f.page.event_loop().enable_frame_graph(
          pool, f.page.canvas_context("stage").get(), 2);
    }
    f.page.event_loop().run(500);
    Run out;
    out.frames = f.interp.global("frames").as_number();
    out.wall = f.clock.wall_ns();
    out.cpu = f.clock.cpu_ns();
    out.dispatched = f.page.event_loop().tasks_dispatched();
    out.log = f.page.event_loop().frame_log();
    return out;
  };

  const Run serial = run_once(false);
  const Run piped_a = run_once(true);
  const Run piped_b = run_once(true);

  // Virtual time identical with the mode on or off.
  EXPECT_EQ(serial.frames, piped_a.frames);
  EXPECT_EQ(serial.wall, piped_a.wall);
  EXPECT_EQ(serial.cpu, piped_a.cpu);
  EXPECT_EQ(serial.dispatched, piped_a.dispatched);
  EXPECT_TRUE(serial.log.empty());

  // Every frame committed, in frame order, byte-deterministically.
  ASSERT_EQ(std::int64_t(piped_a.log.size()), piped_a.dispatched);
  for (std::size_t i = 0; i < piped_a.log.size(); ++i) {
    EXPECT_EQ(piped_a.log[i].first, std::int64_t(i));
  }
  EXPECT_EQ(piped_a.log, piped_b.log);
}

TEST(EventLoop, FrameGraphInterleavesUserEventsInOrder) {
  const std::string source =
      "var sequence = '';\n"
      "function tick() { sequence += 'F'; requestAnimationFrame(tick); }\n"
      "addEventListener('mousemove', function (e) { sequence += 'E'; });\n"
      "requestAnimationFrame(tick);\n";
  const auto run_once = [&](bool frame_graph) {
    Fixture f(source);
    f.interp.run();
    rivertrail::ThreadPool pool(2);
    if (frame_graph) f.page.event_loop().enable_frame_graph(pool, nullptr, 2);
    f.page.event_loop().push_user_events({
        UserEvent{5, "mousemove", 1, 1, ""},
        UserEvent{40, "mousemove", 2, 2, ""},
        UserEvent{41, "mousemove", 3, 3, ""},
    });
    f.page.event_loop().run(120);
    return f.interp.global("sequence").as_string();
  };
  const std::string serial = run_once(false);
  const std::string piped = run_once(true);
  EXPECT_EQ(serial, piped);
  EXPECT_NE(serial.find('E'), std::string::npos);
  EXPECT_NE(serial.find('F'), std::string::npos);
}

TEST(EventLoop, IdleAdvancesWallButNotCpu) {
  Fixture f("setTimeout(function () { }, 200);\n");
  f.interp.run();
  const auto cpu_before = f.clock.cpu_ns();
  f.page.event_loop().run(400);
  EXPECT_GE(f.clock.wall_ns(), 400'000'000);
  // Only the trivial callback ran: CPU moved a little, wall moved a lot.
  EXPECT_LT(f.clock.cpu_ns() - cpu_before, 1'000'000);
}

TEST(Page, LoadResourceBlocksWallOnly) {
  Fixture f(
      "var loaded = 0;\n"
      "loadResource('sprites.png', 500, function () { loaded = 1; });\n");
  f.interp.run();
  f.page.event_loop().run(2000);
  EXPECT_DOUBLE_EQ(f.interp.global("loaded").as_number(), 1);
  // 40 ms latency + 500 KB * 0.6 ms/KB = 340 ms of wall time minimum.
  EXPECT_GE(f.clock.wall_ns(), 340'000'000);
  EXPECT_LT(f.clock.cpu_ns(), 10'000'000);
}

TEST(Page, LocalStorageRoundTrip) {
  Fixture f(
      "localStorage.setItem('k', 'v1');\n"
      "var result = localStorage.getItem('k');\n"
      "var missing = localStorage.getItem('nope');\n");
  f.interp.run();
  EXPECT_EQ(f.interp.global("result").as_string(), "v1");
  EXPECT_TRUE(f.interp.global("missing").is_null());
}

TEST(Page, WindowDimensionsVisible) {
  Fixture f("var result = window.innerWidth * 10000 + window.innerHeight;\n");
  f.interp.run();
  EXPECT_DOUBLE_EQ(f.interp.global("result").as_number(), 1024.0 * 10000 + 768);
}

}  // namespace
}  // namespace jsceres::dom
