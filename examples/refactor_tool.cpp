// The SS5.3 refactoring tool as a standalone demo: convert canonical
// imperative array loops to forEach, show the before/after source, and prove
// behaviour is unchanged by running both versions.
#include <cstdio>

#include "interp/interpreter.h"
#include "js/parser.h"
#include "js/refactor.h"

using namespace jsceres;

namespace {

std::string run(const std::string& source) {
  VirtualClock clock;
  interp::Interpreter interp(js::parse(source), clock);
  interp.run();
  return interp.console_output();
}

}  // namespace

int main() {
  const std::string source = R"JS(
var prices = [12.5, 3.2, 8.9, 15.0, 4.4];
var taxed = [];
taxed.length = prices.length;
for (var i = 0; i < prices.length; i++) {
  var withTax = prices[i] * 1.2;
  taxed[i] = withTax;
}
var total = 0;
for (var j = 0; j < taxed.length; j++) {
  total += taxed[j];
}
console.log('total with tax:', total.toFixed(2));
for (var k = 0; k < prices.length; k++) {
  if (prices[k] > 100) { break; }
}
)JS";

  std::printf("--- before ---\n%s\n", source.c_str());

  js::Program program = js::parse(source);
  const js::RefactorReport report = js::to_functional(program);

  std::printf("--- after (%d of %d candidates rewritten) ---\n%s\n",
              report.rewritten, report.candidates, report.source.c_str());
  for (const auto& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  const std::string before = run(source);
  const std::string after = run(report.source);
  std::printf("\nbehaviour preserved: %s\n  before: %s  after:  %s",
              before == after ? "yes" : "NO", before.c_str(), after.c_str());
  return before == after ? 0 : 1;
}
