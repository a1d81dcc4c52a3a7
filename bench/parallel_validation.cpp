// Validation of the paper's central claim: the loop nests Table 3 classifies
// as (very) easy really are latently data-parallel. C++ ports of those
// kernels run on the River-Trail-style runtime; outputs must match the
// sequential reference.
#include <cstdio>

#include "rivertrail/validator.h"

using namespace jsceres::rivertrail;

int main() {
  ThreadPool pool;
  const auto results = validate_all(pool, /*scale=*/2.0);
  std::fputs(render_validation_table(results, pool.size()).c_str(), stdout);

  bool all_match = true;
  for (const auto& r : results) all_match &= r.outputs_match;
  std::printf("all kernels produce sequential-identical results: %s\n",
              all_match ? "yes" : "NO");

  return all_match ? 0 : 1;
}
