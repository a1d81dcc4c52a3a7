#include "report/tables.h"

#include "analysis/nest.h"
#include "js/loop_scanner.h"
#include "support/str.h"
#include "support/table.h"

namespace jsceres::report {

std::vector<Table2Row> build_table2() {
  std::vector<Table2Row> rows;
  for (const auto& workload : workloads::all_workloads()) {
    auto run = workloads::run_workload(workload, workloads::Mode::Lightweight);
    rows.push_back(Table2Row{workload.name, run.table2_row(), workload.paper});
  }
  return rows;
}

std::string render_table2(const std::vector<Table2Row>& rows) {
  Table table({"Name", "Total (s)", "Active (s)", "In Loops (s)", "paper T/A/L"});
  for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, Table::Align::Right);
  for (const auto& row : rows) {
    table.add_row({row.name, str::fixed(row.measured.total_s, 2),
                   str::fixed(row.measured.active_s, 2),
                   str::fixed(row.measured.in_loops_s, 2),
                   str::fixed(row.paper.total_s, 0) + " / " +
                       str::fixed(row.paper.active_s, 2) + " / " +
                       str::fixed(row.paper.in_loops_s, 2)});
  }
  return "Table 2. Case study - running time (measured on the simulated "
         "engine; paper values for shape comparison)\n" +
         table.render();
}

std::vector<Table3Row> build_table3_rows(const workloads::Workload& workload) {
  // Mode 2 at full scale: timings, trip counts, DOM column.
  auto profile_run = workloads::run_workload(workload, workloads::Mode::LoopProfile);
  // Mode 3 at reduced scale: dependence evidence (very high overhead — the
  // staged-mode design of the paper).
  auto dep_run = workloads::run_workload(workload, workloads::Mode::Dependence);

  const auto nests =
      analysis::build_nests(*profile_run.loops, profile_run.nest_roots);
  const auto static_info = js::scan_loops(profile_run.program);

  std::vector<Table3Row> rows;
  for (const auto& nest : nests) {
    // The dependence run re-parses the same source: loop ids are identical.
    analysis::LoopNest dep_nest = nest;
    const auto evidence = analysis::gather_evidence(dep_nest, dep_run.program,
                                                    static_info, *dep_run.dependence);
    Table3Row row;
    row.workload = workload.name;
    row.root_line = profile_run.program->loop(nest.root_loop_id).line;
    row.share = nest.share_of_loop_time;
    row.instances = nest.instances;
    row.trips_mean = nest.trips_mean;
    row.trips_stddev = nest.trips_stddev;
    row.divergence = analysis::classify_divergence(evidence);
    row.dom_access = nest.touches_dom || nest.touches_canvas;
    row.breaking_deps = analysis::classify_dependences(evidence);
    row.difficulty = analysis::classify_parallelization(evidence);
    rows.push_back(row);
  }
  return rows;
}

std::vector<Table3Row> build_table3() {
  std::vector<Table3Row> rows;
  for (const auto& workload : workloads::all_workloads()) {
    const auto app_rows = build_table3_rows(workload);
    rows.insert(rows.end(), app_rows.begin(), app_rows.end());
  }
  return rows;
}

std::string render_table3(const std::vector<Table3Row>& rows) {
  Table table({"name", "%", "instances", "trips", "divergence", "DOM",
               "breaking deps", "difficulty"});
  table.set_align(1, Table::Align::Right);
  table.set_align(2, Table::Align::Right);
  table.set_align(3, Table::Align::Right);
  std::string last;
  for (const auto& row : rows) {
    if (!last.empty() && last != row.workload) table.add_rule();
    std::string trips = str::compact_count(row.trips_mean);
    if (row.trips_stddev >= 0.5) {
      trips += "±" + str::compact_count(row.trips_stddev);
    }
    table.add_row({row.workload == last ? "" : row.workload,
                   str::fixed(row.share * 100, 0), str::compact_count(double(row.instances)),
                   trips, analysis::divergence_label(row.divergence),
                   row.dom_access ? "yes" : "no",
                   analysis::difficulty_label(row.breaking_deps),
                   analysis::difficulty_label(row.difficulty)});
    last = row.workload;
  }
  return "Table 3. Case study - detailed inspection of loop nests\n" + table.render();
}

std::vector<AmdahlRow> build_amdahl(analysis::Difficulty max_difficulty) {
  std::vector<AmdahlRow> rows;
  for (const auto& workload : workloads::all_workloads()) {
    auto profile_run = workloads::run_workload(workload, workloads::Mode::LoopProfile);
    auto dep_run = workloads::run_workload(workload, workloads::Mode::Dependence);
    const auto nests =
        analysis::build_nests(*profile_run.loops, profile_run.nest_roots);
    const auto static_info = js::scan_loops(profile_run.program);

    double parallel_ns = 0;
    for (const auto& nest : nests) {
      const auto evidence = analysis::gather_evidence(nest, dep_run.program,
                                                      static_info, *dep_run.dependence);
      if (analysis::classify_parallelization(evidence) <= max_difficulty) {
        parallel_ns += nest.runtime_ns;
      }
    }
    const double active_ns = double(profile_run.clock.cpu_ns());
    AmdahlRow row;
    row.workload = workload.name;
    row.parallel_fraction = active_ns > 0 ? std::min(1.0, parallel_ns / active_ns) : 0;
    row.bound_4_cores = analysis::amdahl_bound(row.parallel_fraction, 4);
    row.bound_infinite = analysis::amdahl_bound(row.parallel_fraction, 0);
    rows.push_back(row);
  }
  return rows;
}

std::string render_amdahl(const std::vector<AmdahlRow>& rows) {
  Table table({"name", "parallel fraction", "bound (4 cores)", "bound (inf)"});
  for (std::size_t c = 1; c <= 3; ++c) table.set_align(c, Table::Align::Right);
  int above_3x = 0;
  for (const auto& row : rows) {
    if (row.bound_infinite > 3.0) ++above_3x;
    table.add_row({row.workload, str::fixed(row.parallel_fraction * 100, 1) + "%",
                   str::fixed(row.bound_4_cores, 2) + "x",
                   std::isfinite(row.bound_infinite)
                       ? str::fixed(row.bound_infinite, 2) + "x"
                       : "inf"});
  }
  return "Amdahl upper bounds from easy-to-parallelize loop nests (paper "
         "SS4.2: >3x for 5 of 12 apps)\n" +
         table.render() + "apps with upper bound > 3x: " + std::to_string(above_3x) +
         " of " + std::to_string(rows.size()) + "\n";
}

}  // namespace jsceres::report
