#include "analysis/classifier.h"

#include <algorithm>
#include <set>

namespace jsceres::analysis {

const char* divergence_label(Divergence d) {
  switch (d) {
    case Divergence::None: return "none";
    case Divergence::Little: return "little";
    case Divergence::Yes: return "yes";
  }
  return "?";
}

const char* difficulty_label(Difficulty d) {
  switch (d) {
    case Difficulty::VeryEasy: return "very easy";
    case Difficulty::Easy: return "easy";
    case Difficulty::Medium: return "medium";
    case Difficulty::Hard: return "hard";
    case Difficulty::VeryHard: return "very hard";
  }
  return "?";
}

Difficulty bump(Difficulty d, int levels) {
  return Difficulty(std::min(int(Difficulty::VeryHard), int(d) + levels));
}

NestEvidence gather_evidence(const LoopNest& nest, const js::Program& program,
                             const std::map<int, js::LoopStaticInfo>& static_info,
                             const ceres::DependenceAnalyzer& analyzer) {
  NestEvidence evidence;
  evidence.trips_mean = nest.trips_mean;
  evidence.trips_cv =
      nest.trips_mean > 0 ? nest.trips_stddev / nest.trips_mean : 0.0;
  evidence.touches_dom = nest.touches_dom;
  evidence.touches_canvas = nest.touches_canvas;
  evidence.dom_touches_per_iteration = nest.dom_touches_per_iteration;

  // Static structure, aggregated over the nest members (branching anywhere
  // in the nest diverges the SIMD lanes of the root).
  for (const int member : nest.members) {
    const auto it = static_info.find(member);
    if (it == static_info.end()) continue;
    evidence.branch_sites += it->second.branch_sites;
    if (member == nest.root_loop_id) {
      evidence.condition_data_dependent = it->second.condition_data_dependent;
    }
  }

  // Dependence evidence at the nest-root level.
  const auto summaries = analyzer.summaries();
  for (const int member : nest.members) {
    const auto it = summaries.find(member);
    if (it != summaries.end() && it->second.recursion_detected) {
      evidence.recursion_detected = true;
    }
  }
  const auto root_summary = summaries.find(nest.root_loop_id);
  if (root_summary != summaries.end()) {
    evidence.shared_reads = root_summary->second.shared_reads > 0;
    evidence.conflicting_write_sites =
        int(std::min<std::int64_t>(root_summary->second.conflicting_write_sites, 1 << 20));
  }

  const int header_line = program->loop(nest.root_loop_id).line;
  std::set<std::pair<int, std::string>> var_sites;
  std::set<std::pair<int, std::string>> prop_sites;
  std::set<std::pair<int, std::string>> flow_sites;
  for (const auto& warning : analyzer.warnings()) {
    const auto& levels = warning.characterization.levels;
    std::size_t root_index = levels.size();
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i].loop_id == nest.root_loop_id) {
        root_index = i;
        break;
      }
    }
    if (root_index == levels.size()) continue;
    const ceres::LevelFlags& at_root = levels[root_index];
    if (!at_root.instance_dep && !at_root.iteration_dep) continue;
    if (warning.line == header_line) continue;  // induction variable update
    const auto site = std::make_pair(warning.line, warning.name);
    switch (warning.kind) {
      case ceres::AccessKind::VarWrite:
        // Function-local temporaries are privatizable by extraction (the
        // paper's forEach rewrite); only global application state counts.
        if (warning.global_binding) var_sites.insert(site);
        break;
      case ceres::AccessKind::PropWrite:
        prop_sites.insert(site);
        break;
      case ceres::AccessKind::PropRead: {
        // A flow dependence impedes parallelizing *this* loop only when the
        // root is the outermost level carrying it; a value produced in an
        // earlier iteration of an enclosing loop is plain input here.
        bool outer_carries = false;
        for (std::size_t i = 0; i < root_index; ++i) {
          if (levels[i].instance_dep || levels[i].iteration_dep) {
            outer_carries = true;
            break;
          }
        }
        if (!outer_carries) flow_sites.insert(site);
        break;
      }
    }
  }
  evidence.var_write_sites = int(var_sites.size());
  evidence.prop_write_sites = int(prop_sites.size());
  evidence.flow_sites = int(flow_sites.size());
  return evidence;
}

namespace {

// Thresholds of the hand-inspection rubric.
constexpr double kTripsDegenerate = 2.5;   // "roughly one iteration" loops
constexpr double kTripsSmall = 6.0;        // data-dependent tiny loops diverge
constexpr double kCvDivergent = 1.25;      // highly irregular trip counts
constexpr int kFlowMedium = 4;             // reduction-like: few flow sites
constexpr int kFlowHard = 6;
constexpr double kTripsGranularity = 8.0;  // too few trips to pay off
constexpr double kDomHeavy = 0.5;          // DOM touches per iteration: fundamental

}  // namespace

Divergence classify_divergence(const NestEvidence& e) {
  // Recursion inside the nest makes iteration work unbounded and uneven
  // (HAAR's tree search, the raytracer's variable-depth recursion).
  if (e.recursion_detected) return Divergence::Yes;
  // Loops that execute "roughly one iteration" (Ace) offer no lanes at all.
  if (e.trips_mean <= kTripsDegenerate) return Divergence::Yes;
  // Tiny, data-dependent trip counts (MyScript's segment loop).
  if (e.trips_mean < kTripsSmall && e.condition_data_dependent) {
    return Divergence::Yes;
  }
  if (e.branch_sites == 0) return Divergence::None;
  // Branchy body with wildly varying trip counts.
  if (e.trips_cv > kCvDivergent) return Divergence::Yes;
  // Local, predicatable branching ("can be transformed to predicated
  // instructions without a major performance impact").
  return Divergence::Little;
}

Difficulty classify_dependences(const NestEvidence& e) {
  if (e.flow_sites == 0) {
    // No read-after-write across iterations: privatization / disjoint-index
    // writes break everything that remains.
    if (e.var_write_sites == 0 && e.prop_write_sites == 0) {
      return Difficulty::VeryEasy;  // fully private or read-only
    }
    if (e.var_write_sites == 0 && e.conflicting_write_sites == 0) {
      return Difficulty::VeryEasy;  // pure disjoint-index output writes
    }
    return Difficulty::Easy;  // shared scalars to privatize / merge
  }
  if (e.flow_sites <= kFlowMedium) return Difficulty::Medium;  // reduction-like
  if (e.flow_sites <= kFlowHard) return Difficulty::Hard;
  return Difficulty::VeryHard;
}

Difficulty classify_parallelization(const NestEvidence& e) {
  const Difficulty deps = classify_dependences(e);
  const bool touches_host = e.touches_dom || e.touches_canvas;
  if (touches_host && e.dom_touches_per_iteration >= kDomHeavy) {
    // DOM/Canvas access *is* the iteration's work: with non-concurrent
    // browser data structures there is nothing left to parallelize.
    return Difficulty::VeryHard;
  }
  // Secondary obstacles (incidental host access, divergence, granularity)
  // only matter when the dependences themselves are breakable; once the
  // loop is hard for dependence reasons, they are not the binding
  // constraint (e.g. the paper rates D3 "hard" despite DOM access and
  // divergence).
  if (deps >= Difficulty::Hard) return deps;
  Difficulty difficulty = deps;
  if (touches_host) difficulty = bump(difficulty);
  if (classify_divergence(e) == Divergence::Yes) difficulty = bump(difficulty);
  if (e.trips_mean > 0 && e.trips_mean < kTripsGranularity) {
    difficulty = bump(difficulty);
  }
  return difficulty;
}

double amdahl_bound(double parallel_fraction, int cores) {
  const double p = std::clamp(parallel_fraction, 0.0, 1.0);
  if (cores <= 0) {
    return p >= 1.0 ? std::numeric_limits<double>::infinity() : 1.0 / (1.0 - p);
  }
  return 1.0 / ((1.0 - p) + p / double(cores));
}

}  // namespace jsceres::analysis
