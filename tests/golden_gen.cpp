// One-shot generator for tests/golden/*.txt. `mode3` serializes the mode-3
// dependence report + per-loop summaries for every Table-1 workload; the
// serialization here must stay in sync with tests/test_ceres_golden.cpp
// (golden_serialize), which asserts byte-identical output. `corpus` writes
// the engine-behaviour corpus (tests/engine_corpus.h), which
// tests/test_engine_corpus.cpp replays. Neither is re-blessed to make an
// engine change pass: the corpus is the record of how the engine behaved.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "tests/engine_corpus.h"
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
//   g++ -O2 -std=c++20 -I src -I . tests/golden_gen.cpp build/libjsceres_fuzz.a \
//       build/libjsceres.a -lpthread -o golden_gen && ./golden_gen mode3|corpus
int main(int argc, char** argv) {
  if (argc != 2 || (std::strcmp(argv[1], "mode3") != 0 && std::strcmp(argv[1], "corpus") != 0)) {
    std::fprintf(stderr, "usage: golden_gen mode3|corpus\n");
    return 2;
  }
  if (std::strcmp(argv[1], "corpus") == 0) {
    const std::vector<std::string> lines = corpus::record();
    std::ofstream out("tests/golden/engine_corpus.txt");
    for (const std::string& line : lines) out << line << "\n";
    std::printf("wrote tests/golden/engine_corpus.txt (%zu runs)\n", lines.size());
    return 0;
  }
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
