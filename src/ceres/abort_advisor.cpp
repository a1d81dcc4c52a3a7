#include "ceres/abort_advisor.h"

#include <set>
#include <sstream>

namespace jsceres::ceres {

namespace {

/// Is `loop_id` the outermost dependence-carrying level of `chr`?
bool carried_at(const Characterization& chr, int loop_id) {
  for (const LevelFlags& level : chr.levels) {
    const bool flagged = level.instance_dep || level.iteration_dep;
    if (level.loop_id == loop_id) return flagged;
    if (flagged) return false;  // an outer loop carries it
  }
  return false;
}

std::string site(const DependenceWarning& warning) {
  std::string out = "'" + warning.name + "'";
  if (warning.line > 0) out += " (line " + std::to_string(warning.line) + ")";
  return out;
}

}  // namespace

SpeculationReport advise(const js::Program& program, const DependenceAnalyzer& analyzer,
                         int loop_id, const LoopProfiler* profiler) {
  SpeculationReport report;
  report.loop_id = loop_id;
  const std::string induction = js::induction_variable_of(program->loop(loop_id));

  std::set<std::string> seen;
  for (const auto& warning : analyzer.warnings()) {
    if (!carried_at(warning.characterization, loop_id)) continue;
    // The induction variable's update is the loop's own bookkeeping, not an
    // abort reason (a speculative runtime strip-mines it away).
    if (warning.kind == AccessKind::VarWrite && warning.name == induction) continue;
    const std::string key = std::to_string(int(warning.kind)) + site(warning);
    if (!seen.insert(key).second) continue;

    AbortReason reason;
    switch (warning.kind) {
      case AccessKind::PropRead:
        reason.what = "loop-carried read-after-write on " + site(warning) +
                      ": an iteration reads a value produced by an earlier one";
        reason.remedy =
            "re-express the accumulation as a reduction/scan, or double-buffer "
            "the data so iterations read the previous generation";
        report.would_abort = true;
        break;
      case AccessKind::VarWrite:
        if (warning.global_binding) {
          reason.what = "every iteration writes the shared variable " + site(warning);
          reason.remedy =
              "privatize the variable per worker and merge after the loop";
        } else {
          reason.what = "the function-scoped temporary " + site(warning) +
                        " is shared by all iterations (JavaScript var scoping)";
          reason.remedy =
              "extract the loop body into a function or use a callback-based "
              "operator so each iteration gets a private binding";
        }
        report.would_abort = true;
        break;
      case AccessKind::PropWrite:
        reason.what = "iterations write fields of shared object(s): " + site(warning);
        reason.remedy =
            "if the written indices are disjoint this is safe under an "
            "ownership check; otherwise privatize the object and merge";
        // Disjoint-index writes do not force an abort by themselves.
        break;
    }
    report.reasons.push_back(std::move(reason));
  }

  const auto summaries = analyzer.summaries();
  const auto it = summaries.find(loop_id);
  if (it != summaries.end()) {
    if (it->second.recursion_detected) {
      report.advisories.push_back(
          "recursive calls inside the loop make per-iteration work uneven: "
          "prefer dynamic scheduling / work stealing");
    }
    if (it->second.conflicting_write_sites > 0) {
      report.would_abort = true;
      report.advisories.push_back(
          "same-field writes from different iterations detected: a "
          "speculative runtime would roll back on the first conflict");
    }
  }
  if (profiler != nullptr) {
    const LoopStats* stats = profiler->stats_for(loop_id);
    if (stats != nullptr && stats->touches_dom()) {
      report.advisories.push_back(
          "the loop touches the DOM/Canvas; browsers have no concurrent DOM, "
          "so hoist or batch the rendering outside the parallel section");
    }
  }
  return report;
}

std::string SpeculationReport::render(const js::Program& program) const {
  std::ostringstream out;
  const js::LoopSite& loop = program->loop(loop_id);
  out << "speculation report for " << js::loop_kind_name(loop.kind) << " at line "
      << loop.line << ": "
      << (would_abort ? "WOULD ABORT" : "parallelizable (with ownership checks)")
      << "\n";
  for (const auto& reason : reasons) {
    out << "  abort reason: " << reason.what << "\n";
    out << "     -> remedy: " << reason.remedy << "\n";
  }
  for (const auto& advisory : advisories) {
    out << "  advisory: " << advisory << "\n";
  }
  return out.str();
}

}  // namespace jsceres::ceres
