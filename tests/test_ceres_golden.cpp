// Golden-report differential tests: the mode-3 dependence reports and
// per-loop summaries for all 12 Table-1 workloads must stay BYTE-IDENTICAL to
// the snapshots in tests/golden/. CamanJS, fluidSim and Tear-able Cloth were
// recorded with the pre-stamp-tree (vector-copy) analyzer; the other nine
// with the stamp-tree analyzer before its dense stamp tables and flat
// warning index. This is the acceptance gate for the mode-3 hot path: same
// warnings, same order, same counts, same summary counters — only faster.
//
// Regenerate (only when the *semantics* deliberately change) with
// tests/golden_gen.cpp; its serialization must stay in sync with
// golden_serialize below.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "workloads/runner.h"

namespace jsceres {
namespace {

std::string golden_serialize(const workloads::InstrumentedRun& run) {
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

std::string read_golden(const std::string& workload_name) {
  std::string stem = workload_name;  // mangle the name only, never the dir
  for (auto& c : stem) {
    if (c == ' ') c = '_';
  }
  const std::string file =
      std::string(JSCERES_TESTS_DIR) + "/golden/" + stem + ".mode3.txt";
  std::ifstream in(file);
  EXPECT_TRUE(in.good()) << "missing golden file: " << file;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& workload : workloads::all_workloads()) {
    names.push_back(workload.name);
  }
  return names;
}

class GoldenMode3 : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenMode3, WarningReportAndSummariesAreByteIdentical) {
  const auto& workload = workloads::workload_by_name(GetParam());
  const auto run = workloads::run_workload(workload, workloads::Mode::Dependence);
  EXPECT_EQ(golden_serialize(run), read_golden(GetParam()));
}

// Every Table-1 app; the test name is the workload name with anything that
// is not alphanumeric dropped ("Tear-able Cloth" -> TearableCloth).
INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenMode3, ::testing::ValuesIn(workload_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name;
      for (const char c : info.param) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace jsceres
