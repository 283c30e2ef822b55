#include "checks.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/oracle.hpp"

namespace nexuspp::perfbench {

std::string check_completed(const engine::RunReport& report,
                            std::uint64_t tasks) {
  if (report.deadlocked) return "deadlocked: " + report.diagnosis;
  if (report.tasks_expected != tasks || report.tasks_submitted != tasks ||
      report.tasks_completed != tasks) {
    return "task counts expected/submitted/completed " +
           std::to_string(report.tasks_expected) + "/" +
           std::to_string(report.tasks_submitted) + "/" +
           std::to_string(report.tasks_completed) + ", workload has " +
           std::to_string(tasks);
  }
  return {};
}

std::string check_completion_order(const std::vector<trace::TaskRecord>& trace,
                                   core::MatchMode mode,
                                   const std::vector<std::uint64_t>& order) {
  std::vector<std::vector<core::Param>> params;
  params.reserve(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    if (trace[k].serial != k) {
      return "trace serial " + std::to_string(trace[k].serial) +
             " at index " + std::to_string(k) + " (oracle needs dense keys)";
    }
    params.push_back(trace[k].params);
  }
  std::string problem =
      core::GraphOracle::validate_completion_order(mode, params, order);
  return problem.empty() ? problem : "completion order: " + problem;
}

std::string check_values(const std::vector<double>& got,
                         const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return "result has " + std::to_string(got.size()) + " values, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << "checksum mismatch at cell " << i << ": " << got[i]
         << " != " << want[i];
      return os.str();
    }
  }
  return {};
}

GoldenEntry golden_of(const engine::RunReport& report, std::uint32_t workers) {
  return GoldenEntry{report.engine,      workers,
                     report.makespan,    report.sim_events,
                     report.raw_hazards, report.war_hazards,
                     report.waw_hazards, report.tasks_completed};
}

Golden read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "spec") {
      ls >> golden.spec;
      continue;
    }
    GoldenEntry e;
    e.engine = head;
    ls >> e.workers >> e.makespan_ps >> e.sim_events >> e.raw >> e.war >>
        e.waw >> e.completed;
    if (!ls) throw std::runtime_error("malformed golden line: " + line);
    golden.entries.push_back(e);
  }
  if (golden.spec.empty() || golden.entries.empty()) {
    throw std::runtime_error("golden file " + path + " has no spec/entries");
  }
  return golden;
}

void write_golden(const std::string& path, const Golden& golden) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden file " + path);
  out << "# sim-gaussian goldens: simulated outcome per (engine, simulated\n"
         "# workers). Regenerate with `perfbench --write-golden <path>` only\n"
         "# when a change is meant to alter simulated behaviour.\n"
         "# engine workers makespan_ps sim_events raw war waw completed\n";
  out << "spec " << golden.spec << '\n';
  for (const GoldenEntry& e : golden.entries) {
    out << e.engine << ' ' << e.workers << ' ' << e.makespan_ps << ' '
        << e.sim_events << ' ' << e.raw << ' ' << e.war << ' ' << e.waw << ' '
        << e.completed << '\n';
  }
}

std::string check_golden(const GoldenEntry& got, const Golden& golden) {
  for (const GoldenEntry& want : golden.entries) {
    if (want.engine != got.engine || want.workers != got.workers) continue;
    if (want == got) return {};
    std::ostringstream os;
    os << got.engine << " at " << got.workers
       << " workers differs from golden: makespan " << got.makespan_ps << " vs "
       << want.makespan_ps << ", events " << got.sim_events << " vs "
       << want.sim_events << ", hazards " << got.raw << '/' << got.war << '/'
       << got.waw << " vs " << want.raw << '/' << want.war << '/' << want.waw
       << ", completed " << got.completed << " vs " << want.completed;
    return os.str();
  }
  return "no golden entry for " + got.engine + " at " +
         std::to_string(got.workers) + " workers";
}

}  // namespace nexuspp::perfbench
