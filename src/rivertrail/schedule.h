#pragma once

namespace jsceres::rivertrail {

/// Frame-scheduling policy for a workload's event-loop session.
///
/// Serial is the browser baseline: every requestAnimationFrame tick runs
/// kernel, canvas upload and commit back to back on the main thread — the
/// shape behind the paper's In-Loops > Active gap (Table 2).
///
/// FrameGraph decomposes each tick into kernel -> canvas-upload -> commit
/// pipeline stages over the work-stealing pool (dom::EventLoop::
/// enable_frame_graph), overlapping frame t's upload with frame t+1's
/// kernel. Virtual-time results are identical by construction; the win is
/// real-thread overlap, reported as per-stage spans.
enum class PipelineSchedule { Serial, FrameGraph };

}  // namespace jsceres::rivertrail
