#pragma once

#include <string>
#include <vector>

#include "analysis/nest.h"
#include "ceres/dependence_analyzer.h"
#include "js/loop_scanner.h"

namespace jsceres::analysis {

/// Table 3 column 5.
enum class Divergence { None, Little, Yes };

/// Table 3 columns 7 and 8.
enum class Difficulty { VeryEasy, Easy, Medium, Hard, VeryHard };

const char* divergence_label(Divergence d);
const char* difficulty_label(Difficulty d);

Difficulty bump(Difficulty d, int levels = 1);

/// Inputs distilled from the three instrumentation modes for one loop nest.
struct NestEvidence {
  // mode 2 (dynamic):
  double trips_mean = 0;
  double trips_cv = 0;  // stddev / mean
  bool touches_dom = false;
  bool touches_canvas = false;
  double dom_touches_per_iteration = 0;
  // static:
  int branch_sites = 0;
  bool condition_data_dependent = false;
  // mode 3 (dependence), at the nest root's level, induction-variable writes
  // excluded:
  bool recursion_detected = false;
  int var_write_sites = 0;      // type (a) sites
  int prop_write_sites = 0;     // type (b) sites
  int flow_sites = 0;           // type (c) sites
  int conflicting_write_sites = 0;  // same-field cross-iteration writes
  bool shared_reads = false;
};

/// Extract evidence for `nest` from the raw analysis outputs. Warnings whose
/// access line equals the loop-header line are induction-variable updates
/// (i++ and friends) and are excluded from the site counts, as a human
/// inspector would.
NestEvidence gather_evidence(const LoopNest& nest, const js::Program& program,
                             const std::map<int, js::LoopStaticInfo>& static_info,
                             const ceres::DependenceAnalyzer& analyzer);

/// Rule-based classifiers reproducing the paper's hand-inspection rubric
/// (§4.1/§4.2). The thresholds are named constants in classifier.cpp.
Divergence classify_divergence(const NestEvidence& e);

/// Column 7: how hard breaking the dependencies would be for a programmer.
Difficulty classify_dependences(const NestEvidence& e);

/// Column 8: overall parallelization difficulty, combining dependence
/// difficulty with browser limitations (non-concurrent DOM/Canvas),
/// divergence, and granularity.
Difficulty classify_parallelization(const NestEvidence& e);

/// Amdahl bound: speedup limit with parallel fraction `p` on `cores` cores
/// (cores <= 0 means the asymptotic 1/(1-p) bound).
double amdahl_bound(double parallel_fraction, int cores = 0);

}  // namespace jsceres::analysis
