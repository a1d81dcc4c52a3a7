#include "workloads/workload.h"

namespace jsceres::workloads {

namespace {

/// Mouse drag across the cloth for a couple of seconds.
std::vector<dom::UserEvent> cloth_events() {
  std::vector<dom::UserEvent> events;
  events.push_back({200, "mousedown", 40, 30, ""});
  for (int t = 230; t < 6500; t += 90) {
    events.push_back({t, "mousemove", 40.0 + (t - 230) * 0.01, 30.0 + (t % 300) * 0.05, ""});
  }
  events.push_back({6500, "mouseup", 100, 45, ""});
  return events;
}

}  // namespace

/// Tear-able Cloth — Verlet cloth physics (Table 1: "Games").
///
/// Table 3 shape: one dominant nest (the constraint-relaxation loop),
/// "little" divergence (pin/tear branches only), no DOM inside the nest
/// (rendering is a separate loop), and "medium" dependence difficulty: the
/// relaxation reads particle positions written by *earlier iterations* over
/// the shared constraint graph — a handful of genuine flow dependencies a
/// programmer can break with red-black ordering.
Workload make_cloth() {
  Workload w;
  w.name = "Tear-able Cloth";
  w.url = "lonely-pixel.com/lab/cloth";
  w.category = "Games";
  w.description = "cloth physics simulation (Verlet integration)";
  w.paper = {14, 7, 9};
  w.session_ms = 8000;
  w.canvas = true;
  w.canvas_w = 160;
  w.canvas_h = 120;
  w.dependence_scale = 0.5;
  // Canvas redraw dominates the tail of each tick: frame-graph the session.
  w.pipeline_schedule = rivertrail::PipelineSchedule::FrameGraph;
  w.nest_markers = {"for (ci = 0; ci < constraints.length"};
  w.events = cloth_events();
  w.source = R"JS(
var COLS = Math.max(6, Math.floor(11 * SCALE));
var ROWS = Math.max(5, Math.floor(8 * SCALE));
var SPACING = 8;
var GRAVITY = 0.4;
var TEAR_DIST = 28;
var particles = [];
var constraints = [];
var mouse = {down: false, x: 0, y: 0};
var frames = 0;

function buildCloth() {
  var y;
  var x;
  for (y = 0; y < ROWS; y++) {
    for (x = 0; x < COLS; x++) {
      particles.push({
        x: 20 + x * SPACING, y: 10 + y * SPACING,
        px: 20 + x * SPACING, py: 10 + y * SPACING,
        pinned: y === 0 && x % 3 === 0
      });
      if (x > 0) {
        constraints.push({a: y * COLS + x - 1, b: y * COLS + x, rest: SPACING, alive: true});
      }
      if (y > 0) {
        constraints.push({a: (y - 1) * COLS + x, b: y * COLS + x, rest: SPACING, alive: true});
      }
    }
  }
}

function integrate() {
  var i;
  for (i = 0; i < particles.length; i++) {
    var p = particles[i];
    if (p.pinned) { continue; }
    var vx = (p.x - p.px) * 0.98;
    var vy = (p.y - p.py) * 0.98;
    p.px = p.x;
    p.py = p.y;
    p.x = p.x + vx;
    p.y = p.y + vy + GRAVITY;
  }
}

// The reported nest: constraint relaxation over the shared particle graph.
function relax() {
  var ci;
  for (ci = 0; ci < constraints.length; ci++) {
    var c = constraints[ci];
    if (!c.alive) { continue; }
    var p1 = particles[c.a];
    var p2 = particles[c.b];
    // One read site per coordinate (positions written by earlier iterations
    // over the shared constraint graph: the loop's four flow dependences).
    var x1 = p1.x;
    var y1 = p1.y;
    var x2 = p2.x;
    var y2 = p2.y;
    var dx = x2 - x1;
    var dy = y2 - y1;
    var dist = Math.sqrt(dx * dx + dy * dy);
    if (dist > TEAR_DIST) { c.alive = false; continue; }
    var diff = (c.rest - dist) / (dist + 0.0001) * 0.5;
    var ox = dx * diff;
    var oy = dy * diff;
    if (!p1.pinned) { p1.x = x1 - ox; p1.y = y1 - oy; }
    if (!p2.pinned) { p2.x = x2 + ox; p2.y = y2 + oy; }
  }
}

function applyMouse() {
  if (!mouse.down) { return; }
  var i;
  for (i = 0; i < particles.length; i++) {
    var p = particles[i];
    var dx = p.x - mouse.x;
    var dy = p.y - mouse.y;
    if (dx * dx + dy * dy < 100 && !p.pinned) {
      p.x = p.x + (mouse.x - p.x) * 0.3;
      p.y = p.y + (mouse.y - p.y) * 0.3;
    }
  }
}

var ctx = document.getElementById('stage').getContext('2d');
function render() {
  ctx.fillStyle = '#ffffff';
  ctx.fillRect(0, 0, 160, 120);
  ctx.strokeStyle = '#334455';
  var ci;
  for (ci = 0; ci < constraints.length; ci++) {
    var c = constraints[ci];
    if (!c.alive) { continue; }
    ctx.beginPath();
    ctx.moveTo(particles[c.a].x, particles[c.a].y);
    ctx.lineTo(particles[c.b].x, particles[c.b].y);
    ctx.stroke();
  }
}

function frame() {
  frames = frames + 1;
  applyMouse();
  integrate();
  var iter;
  for (iter = 0; iter < 2; iter++) {
    relax();
  }
  render();
  requestAnimationFrame(frame);
}

addEventListener('mousedown', function (e) { mouse.down = true; mouse.x = e.x; mouse.y = e.y; });
addEventListener('mousemove', function (e) { mouse.x = e.x; mouse.y = e.y; });
addEventListener('mouseup', function (e) { mouse.down = false; });

buildCloth();
requestAnimationFrame(frame);
)JS";
  return w;
}

}  // namespace jsceres::workloads
