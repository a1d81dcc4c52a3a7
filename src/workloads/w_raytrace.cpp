#include "workloads/workload.h"

namespace jsceres::workloads {

/// Realtime Raytracing demo (Table 1: "Games").
///
/// Table 3 shape: one nest is ~98% of loop time — the per-band row/column
/// render loops. trace() recurses for reflections ("variable depth
/// recursion" -> "yes" divergence); every pixel writes a distinct index of
/// the shared frame buffer and nothing else -> "very easy" dependences; the
/// canvas upload (putImageData) sits in the *band* loop outside the
/// reported nest, so the nest has no DOM access, while the blocking upload
/// is why In-Loops exceeds Active in Table 2.
Workload make_raytrace() {
  Workload w;
  w.name = "Realtime Raytracing";
  w.url = "gist.github.com/jwagner/422755";
  w.category = "Games";
  w.description = "real-time raytracing demo";
  w.paper = {62, 19, 26};
  w.session_ms = 8000;
  w.canvas = true;
  w.canvas_w = 48;
  w.canvas_h = 48;
  w.dependence_scale = 0.5;
  // A raytracer pegs the core; the loaded OS preempts it regularly, and the
  // suspensions land inside open loops (Table 2: In-Loops 26 s > Active 19 s).
  w.preempt_interval_ticks = 40'000;
  w.preempt_block_ns = 140'000'000;
  // rAF-driven render loop over a canvas: pipeline each tick so frame t's
  // canvas upload overlaps frame t+1's kernel (the In-Loops > Active gap).
  w.pipeline_schedule = rivertrail::PipelineSchedule::FrameGraph;
  w.nest_markers = {"for (y = y0; y < y1; y++) { // render rows"};
  w.events = {};
  w.source = R"JS(
var W = Math.max(14, Math.floor(24 * SCALE));
var H = Math.max(14, Math.floor(24 * SCALE));
var BANDS = 2;
var MAX_DEPTH = 2;
var ctx = document.getElementById('stage').getContext('2d');
var frame = ctx.getImageData(0, 0, W, H);
var spheres = [
  {cx: 0, cy: -100.5, cz: -1, r: 100, cr: 0.6, cg: 0.7, cb: 0.3, refl: 0.1},
  {cx: 0, cy: 0, cz: -1, r: 0.5, cr: 0.9, cg: 0.2, cb: 0.2, refl: 0.5},
  {cx: -1, cy: 0.1, cz: -1.2, r: 0.4, cr: 0.2, cg: 0.4, cb: 0.9, refl: 0.7}
];
var lightAngle = 0;
var frames = 0;

function trace(ox, oy, oz, dx, dy, dz, depth) {
  var bestT = 1e30;
  var best = null;
  var k;
  for (k = 0; k < spheres.length; k++) {
    var s = spheres[k];
    var ocx = ox - s.cx;
    var ocy = oy - s.cy;
    var ocz = oz - s.cz;
    var b = ocx * dx + ocy * dy + ocz * dz;
    var c = ocx * ocx + ocy * ocy + ocz * ocz - s.r * s.r;
    var disc = b * b - c;
    if (disc > 0) {
      var t = 0 - b - Math.sqrt(disc);
      if (t > 0.0001 && t < bestT) { bestT = t; best = s; }
    }
  }
  if (best === null) {
    var f = 0.5 * (dy + 1);
    return {r: 1 - f * 0.5, g: 1 - f * 0.3, b: 1};
  }
  var hx = ox + dx * bestT;
  var hy = oy + dy * bestT;
  var hz = oz + dz * bestT;
  var nx = (hx - best.cx) / best.r;
  var ny = (hy - best.cy) / best.r;
  var nz = (hz - best.cz) / best.r;
  var lx = Math.cos(lightAngle);
  var ly = 0.9;
  var lz = Math.sin(lightAngle);
  var lLen = Math.sqrt(lx * lx + ly * ly + lz * lz);
  var diffuse = Math.max(0, (nx * lx + ny * ly + nz * lz) / lLen);
  var cr = best.cr * (0.2 + 0.8 * diffuse);
  var cg = best.cg * (0.2 + 0.8 * diffuse);
  var cb = best.cb * (0.2 + 0.8 * diffuse);
  if (depth > 0 && best.refl > 0) {
    var dn = 2 * (dx * nx + dy * ny + dz * nz);
    // Variable-depth recursion for the reflected ray.
    var refl = trace(hx, hy, hz, dx - dn * nx, dy - dn * ny, dz - dn * nz,
                     depth - 1);
    cr = cr * (1 - best.refl) + refl.r * best.refl;
    cg = cg * (1 - best.refl) + refl.g * best.refl;
    cb = cb * (1 - best.refl) + refl.b * best.refl;
  }
  return {r: cr, g: cg, b: cb};
}

function renderBand(band) {
  var y0 = Math.floor(H * band / BANDS);
  var y1 = Math.floor(H * (band + 1) / BANDS);
  var y;
  for (y = y0; y < y1; y++) { // render rows
    var x;
    for (x = 0; x < W; x++) {
      var u = (2 * (x + 0.5) / W - 1) * (W / H);
      var v = 1 - 2 * (y + 0.5) / H;
      var dLen = Math.sqrt(u * u + v * v + 2.25);
      var color = trace(0, 0, 1, u / dLen, v / dLen, -1.5 / dLen, MAX_DEPTH);
      var i = (y * W + x) * 4;
      frame.data[i] = Math.floor(color.r * 255);
      frame.data[i + 1] = Math.floor(color.g * 255);
      frame.data[i + 2] = Math.floor(color.b * 255);
      frame.data[i + 3] = 255;
    }
  }
}

function renderFrame() {
  frames = frames + 1;
  lightAngle = lightAngle + 0.05;
  var band;
  for (band = 0; band < BANDS; band++) {
    renderBand(band);
    // Progressive upload: blocks on the compositor while the loop is open.
    ctx.putImageData(frame, 0, 0);
  }
  requestAnimationFrame(renderFrame);
}

requestAnimationFrame(renderFrame);
)JS";
  return w;
}

}  // namespace jsceres::workloads
