// One-shot generator for tests/golden/*.txt — serializes the mode-3
// dependence report + per-loop summaries for every Table-1 workload. The
// serialization here must stay in sync with tests/test_ceres_golden.cpp
// (golden_serialize), which asserts byte-identical output.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "workloads/runner.h"

using namespace jsceres;

static std::string golden_serialize(const workloads::InstrumentedRun& run) {
  std::ostringstream out;
  out << run.dependence->report();
  out << "summaries:\n";
  for (const auto& [loop_id, s] : run.dependence->summaries()) {
    out << "loop " << loop_id << ": a=" << s.shared_var_writes
        << " b=" << s.shared_prop_writes << " c=" << s.flow_deps
        << " reads=" << s.shared_reads << " private=" << s.private_writes
        << " conflicts=" << s.conflicting_write_sites
        << " recursion=" << (s.recursion_detected ? 1 : 0) << "\n";
  }
  out << "globals:";
  for (const auto& w : run.dependence->warnings()) {
    out << " " << (w.global_binding ? 1 : 0);
  }
  out << "\n";
  return out.str();
}

// Build and run from the repository root:
//   g++ -O2 -std=c++20 -I src tests/golden_gen.cpp build/libjsceres.a \
//       -lpthread -o golden_gen && ./golden_gen
int main() {
  for (const auto& workload : workloads::all_workloads()) {
    const auto run = workloads::run_workload(workload, workloads::Mode::Dependence);
    std::string file = "tests/golden/" + workload.name + ".mode3.txt";
    for (auto& c : file) {
      if (c == ' ') c = '_';
    }
    std::ofstream(file) << golden_serialize(run);
    std::printf("wrote %s (%zu warnings)\n", file.c_str(),
                run.dependence->warnings().size());
  }
  return 0;
}
