#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dom/event_loop.h"
#include "rivertrail/schedule.h"

namespace jsceres::workloads {

/// Reference values from the paper, used by the benches/EXPERIMENTS.md to
/// print paper-vs-measured side by side.
struct PaperTable2Row {
  double total_s = 0;
  double active_s = 0;
  double in_loops_s = 0;
};

/// One case-study application (Table 1): the program (in the engine's JS
/// subset), the synthetic interaction script that exercises it, and the
/// markers identifying which loop nests Table 3 reports.
///
/// The C++ ports of the certified hot loops live in rivertrail/kernels.h,
/// not here: a grain a case study fitted is that port's default argument,
/// and rivertrail::validate_all checks every port against its sequential
/// reference.
struct Workload {
  std::string name;         // e.g. "HAAR.js"
  std::string url;          // Table 1 source URL
  std::string category;     // Table 1 category / description
  std::string description;
  std::string source;       // JS program text

  // Page setup.
  bool canvas = false;
  std::string canvas_id = "stage";
  int canvas_w = 64;
  int canvas_h = 64;

  // Interaction (paper step 4: "exercise any computationally-intensive
  // code") and session length (Table 2 "Total").
  std::vector<dom::UserEvent> events;
  std::int64_t session_ms = 2000;

  /// Source-text markers (unique substrings) on the header lines of the
  /// loop nests Table 3 reports, in the paper's row order. Resolved to loop
  /// ids after parsing (robust against line renumbering while editing JS).
  std::vector<std::string> nest_markers;

  /// SCALE global for dependence-analysis runs (mode 3 is very heavy; the
  /// paper's tool "failed to scale to some of the case studies").
  double dependence_scale = 0.5;

  /// Simulated thread preemption while this app runs (paper §3.1: loop time
  /// includes suspensions). 0 = none.
  std::int64_t preempt_interval_ticks = 0;
  std::int64_t preempt_block_ns = 0;

  /// Frame-pipeline knob consumed by workloads::run_workload: FrameGraph
  /// runs the session's requestAnimationFrame ticks through the event
  /// loop's kernel -> canvas-upload -> commit pipeline (overlapping
  /// adjacent frames); Serial is the browser-faithful baseline. Only the
  /// rAF-driven canvas workloads opt in.
  rivertrail::PipelineSchedule pipeline_schedule = rivertrail::PipelineSchedule::Serial;
  /// Frames in flight for FrameGraph (2 = double buffering).
  std::size_t pipeline_depth = 2;

  PaperTable2Row paper;
};

/// Line number (1-based) of the first occurrence of `marker` in `source`,
/// or 0 when absent.
int line_of_marker(const std::string& source, const std::string& marker);

/// The 12 case-study applications of Table 1.
const std::vector<Workload>& all_workloads();

/// Lookup by name; throws std::out_of_range when unknown.
const Workload& workload_by_name(const std::string& name);

// Individual builders (one translation unit each).
Workload make_haar();
Workload make_cloth();
Workload make_caman();
Workload make_fluid();
Workload make_harmony();
Workload make_ace();
Workload make_myscript();
Workload make_raytrace();
Workload make_normalmap();
Workload make_sigma();
Workload make_processing();
Workload make_d3();

}  // namespace jsceres::workloads
