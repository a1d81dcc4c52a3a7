#include "workloads/workload.h"

namespace jsceres::workloads {

namespace {

std::vector<dom::UserEvent> fluid_events() {
  std::vector<dom::UserEvent> events;
  // Stir the fluid with the pointer for the whole session.
  for (int t = 150; t < 3800; t += 120) {
    events.push_back(
        {t, "mousemove", 20.0 + (t / 40) % 40, 20.0 + (t / 55) % 30, ""});
  }
  return events;
}

}  // namespace

/// fluidSim — Navier-Stokes fluid dynamics (Table 1: "Games").
///
/// Table 3 shape: one dominant nest, the Jacobi linear-solver row loop:
/// branch-free body -> "none" divergence; double-buffered reads/writes with
/// disjoint indices plus one shared convergence scalar -> "easy"
/// dependences; no DOM access inside the nest (density rendering is a
/// separate canvas pass).
Workload make_fluid() {
  Workload w;
  w.name = "fluidSim";
  w.url = "nerget.com/fluidSim";
  w.category = "Games";
  w.description = "fluid dynamics simulation (Navier-Stokes)";
  w.paper = {22, 17, 12};
  w.session_ms = 4000;
  w.canvas = true;
  w.canvas_w = 80;
  w.canvas_h = 80;
  w.dependence_scale = 0.5;
  // Density field re-uploaded every rAF tick: frame-graph the session.
  w.pipeline_schedule = rivertrail::PipelineSchedule::FrameGraph;
  w.nest_markers = {"for (j = 1; j <= N; j++) { // lin_solve"};
  w.events = fluid_events();
  w.source = R"JS(
var N = Math.max(8, Math.floor(14 * SCALE));
var SIZE = (N + 2) * (N + 2);
var density = [];
var densityNext = [];
var velX = [];
var velY = [];
var maxDelta = 0;
var frames = 0;
var ctx = document.getElementById('stage').getContext('2d');

function ix(i, j) { return j * (N + 2) + i; }

function reset() {
  var k;
  for (k = 0; k < SIZE; k++) {
    density.push(0);
    densityNext.push(0);
    velX.push(0);
    velY.push(0);
    velXNext.push(0);
    velYNext.push(0);
  }
}

// The reported nest: one Jacobi sweep of the linear solver. Double-buffered
// (reads src, writes dst) so iterations are independent; the only shared
// write is the convergence tracker.
function linSolve(src, dst, a, c) {
  var j;
  for (j = 1; j <= N; j++) { // lin_solve row sweep
    var i;
    for (i = 1; i <= N; i++) {
      var at = ix(i, j);
      var v = (src[at] + a * (src[at - 1] + src[at + 1] +
               src[at - (N + 2)] + src[at + (N + 2)])) / c;
      dst[at] = v;
      maxDelta = Math.max(maxDelta, v - src[at]);
    }
  }
}

function swapDensity() {
  var tmp = density;
  density = densityNext;
  densityNext = tmp;
}

function setBoundary(grid) {
  var i;
  for (i = 1; i <= N; i++) {
    grid[ix(0, i)] = grid[ix(1, i)];
    grid[ix(N + 1, i)] = grid[ix(N, i)];
    grid[ix(i, 0)] = grid[ix(i, 1)];
    grid[ix(i, N + 1)] = grid[ix(i, N)];
  }
}

function advect(src, dst, dt) {
  var j;
  for (j = 1; j <= N; j++) {
    var i;
    for (i = 1; i <= N; i++) {
      var x = i - dt * N * velX[ix(i, j)];
      var y = j - dt * N * velY[ix(i, j)];
      x = Math.max(0.5, Math.min(N + 0.5, x));
      y = Math.max(0.5, Math.min(N + 0.5, y));
      var i0 = Math.floor(x);
      var j0 = Math.floor(y);
      var s1 = x - i0;
      var t1 = y - j0;
      dst[ix(i, j)] = (1 - s1) * ((1 - t1) * src[ix(i0, j0)] + t1 * src[ix(i0, j0 + 1)]) +
                      s1 * ((1 - t1) * src[ix(i0 + 1, j0)] + t1 * src[ix(i0 + 1, j0 + 1)]);
    }
  }
}

function renderDensity() {
  var cell = Math.floor(80 / N);
  var j;
  for (j = 1; j <= N; j++) {
    var i;
    for (i = 1; i <= N; i++) {
      var shade = Math.floor(Math.min(255, density[ix(i, j)] * 255));
      ctx.fillStyle = 'rgb(' + shade + ',' + shade + ',255)';
      ctx.fillRect((i - 1) * cell, (j - 1) * cell, cell, cell);
    }
  }
}

var velXNext = [];
var velYNext = [];
function step() {
  frames = frames + 1;
  maxDelta = 0;
  // Diffuse both velocity components and the density field (Stam's stable
  // fluids): six Jacobi sweeps per frame, all through the reported nest.
  var k;
  for (k = 0; k < 4; k++) {
    linSolve(velX, velXNext, 0.1, 1.4);
    var tx = velX; velX = velXNext; velXNext = tx;
    linSolve(velY, velYNext, 0.1, 1.4);
    var ty = velY; velY = velYNext; velYNext = ty;
    linSolve(density, densityNext, 0.18, 1.72);
    swapDensity();
  }
  setBoundary(density);
  if (frames % 2 === 0) { advect(density, densityNext, 0.1); swapDensity(); }
  if (frames % 3 === 0) { renderDensity(); }
  requestAnimationFrame(step);
}

addEventListener('mousemove', function (e) {
  var gx = Math.max(1, Math.min(N, Math.floor(e.x / (80 / N))));
  var gy = Math.max(1, Math.min(N, Math.floor(e.y / (80 / N))));
  density[ix(gx, gy)] = 1;
  velX[ix(gx, gy)] = (e.x - 40) * 0.01;
  velY[ix(gx, gy)] = (e.y - 40) * 0.01;
});

reset();
requestAnimationFrame(step);
)JS";
  return w;
}

}  // namespace jsceres::workloads
