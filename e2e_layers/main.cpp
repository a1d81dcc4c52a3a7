// e2e_layers: the repository's end-to-end and per-layer benchmark.
//
//   e2e_layers --workload <wire_small|study_mode3|study_mode0> --seed <n>
//              --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans;
// --trace 1 replays each request down the layer ladder, prints the
// per-layer table and writes a Chrome trace into --out-dir. The last line of
// standard output is always the JSON result; README.md documents it.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_layers: %s\nusage: e2e_layers --workload "
               "<wire_small|study_mode3|study_mode0> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

bool make_dirs(const std::string& path) {
  for (std::size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  e2e::Result (*run)(const e2e::Options&) = nullptr;
  if (options.workload == "wire_small") {
    run = e2e::run_wire_small;
  } else if (options.workload == "study_mode3") {
    run = [](const e2e::Options& o) { return e2e::run_study(o, 3); };
  } else if (options.workload == "study_mode0") {
    run = [](const e2e::Options& o) { return e2e::run_study(o, 0); };
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (options.trace && !make_dirs(options.out_dir)) {
    usage(("cannot create " + options.out_dir).c_str());
  }

  std::printf("host: %s\n", e2e::host_facts_json().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              int(options.trace));
  std::fflush(stdout);

  e2e::Result result = run(options);
  result.correct = result.correct && result.failed == 0 && !result.metrics.empty();

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const e2e::Metric& metric : result.metrics) {
    std::printf("  %-34s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& metric = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
