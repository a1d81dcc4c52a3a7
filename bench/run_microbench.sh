#!/usr/bin/env bash
# Regenerate microbenchmark snapshots.
#
#   bench/run_microbench.sh [--smoke] [--rivertrail|--interp|--ceres|--pipeline|--all] [build-dir] [output.json]
#
# --interp (default): the interpreter hot-path set backing
#   BENCH_interp_baseline.json.
# --rivertrail: the parallel-runtime set backing BENCH_rivertrail_baseline.json
#   (dispatch latency, divergent-balance, scaling).
# --ceres: the mode-3 dependence-analysis set backing BENCH_ceres_baseline.json
#   (var/prop event processing, characterization depth sweep, end-to-end).
# --pipeline: the parallel_pipeline set backing BENCH_pipeline_baseline.json
#   (pipeline dispatch, frame-shaped stages).
# --all: everything.
# --smoke: short CI pass: 5 randomly interleaved repetitions of 0.02 s each,
#   reported as aggregates (diff_bench.py reads the medians). One 0.01 s
#   repetition made the ratio guard trip on scheduling noise.
#
# Requires google-benchmark (the microbench target is skipped by CMake when it
# is not installed). Compare ratios, not absolute times.
set -euo pipefail

FILTER_INTERP='BM_Lex|BM_Parse|BM_Compile|BM_Interpret|BM_Resolve|BM_PropertyAccess|BM_SessionStartup'
FILTER_RIVERTRAIL='BM_ParallelFor|BM_NBodyStepPar'
FILTER_CERES='BM_Dependence|BM_Characterize'
FILTER_PIPELINE='BM_Pipeline'

FILTER="${FILTER_INTERP}"
MIN_TIME=0.3
REPS=3
INTERLEAVE=false

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke)
      MIN_TIME=0.02
      REPS=5
      INTERLEAVE=true
      shift
      ;;
    --rivertrail)
      FILTER="${FILTER_RIVERTRAIL}"
      shift
      ;;
    --interp)
      FILTER="${FILTER_INTERP}"
      shift
      ;;
    --ceres)
      FILTER="${FILTER_CERES}"
      shift
      ;;
    --pipeline)
      FILTER="${FILTER_PIPELINE}"
      shift
      ;;
    --all)
      FILTER="${FILTER_INTERP}|${FILTER_RIVERTRAIL}|${FILTER_CERES}|${FILTER_PIPELINE}"
      shift
      ;;
    *)
      break
      ;;
  esac
done

BUILD_DIR="${1:-build}"
OUT="${2:-/dev/stdout}"

if [[ ! -x "${BUILD_DIR}/microbench" ]]; then
  echo "building ${BUILD_DIR}/microbench ..." >&2
  cmake -B "${BUILD_DIR}" -S "$(dirname "$0")/.." >&2
  cmake --build "${BUILD_DIR}" --target microbench -j >&2
fi

"${BUILD_DIR}/microbench" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_enable_random_interleaving="${INTERLEAVE}" \
  --benchmark_format=json >"${OUT}"
