// Replays the engine-behaviour corpus (tests/engine_corpus.h): every run of
// the 12 apps and of the generated programs must reproduce its recorded
// console, clocks, ticks, inline-cache counters and hook-stream hash
// exactly. The corpus was recorded from the tree-walking evaluator the
// bytecode VM replaced, so it is that evaluator's only record; it is never
// regenerated to make an engine change pass.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "tests/engine_corpus.h"

namespace jsceres {
namespace {

std::vector<std::string> read_corpus() {
  std::ifstream in(std::string(JSCERES_TESTS_DIR) + "/golden/engine_corpus.txt");
  EXPECT_TRUE(in.good()) << "missing tests/golden/engine_corpus.txt";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(EngineCorpus, EveryRunMatchesItsRecord) {
  const std::vector<std::string> expected = read_corpus();
  const std::vector<std::string> actual = corpus::record();
  ASSERT_EQ(actual.size(), expected.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (actual[i] == expected[i]) continue;
    ++mismatches;
    ADD_FAILURE() << "run " << i << "\n  recorded: " << expected[i]
                  << "\n  replayed: " << actual[i];
    if (mismatches >= 20) break;
  }
}

}  // namespace
}  // namespace jsceres
