#pragma once
// The four workloads and the traced layer pass.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "common.hpp"
#include "graphs.hpp"

namespace nexuspp::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fault to inject into one checked output: "bad-order", "bad-checksum"
  /// or "golden-mismatch" (empty = none). Used by the self-test.
  std::string inject;
  std::string golden_path = "perfbench/golden/sim-gaussian.txt";
  std::string out_dir = ".bench_out";
  /// Fewest multi-worker graphs a run times (graph_p90_ms needs 100 for
  /// ten samples beyond p90). Lowered only by the self-test's short runs.
  std::size_t min_graphs = 100;
};

struct Env {
  Options opt;
  unsigned nproc = 1;
  unsigned threads = 1;  ///< T = nproc - 1 workers (at least 1)
  Clock::time_point process_start;
  std::ostream& out;
  Ledger ledger;
  Spans spans;

  Env(Options o, Clock::time_point start, std::ostream& os);

  /// True exactly once when `kind` is the fault to inject.
  [[nodiscard]] bool take_injection(const char* kind);
};

struct WorkloadDef {
  const char* name;
  const char* why;
  /// Fills `metrics` (end-to-end, or per-layer with --trace 1).
  std::function<void(Env&, MetricSet&)> run;
};

[[nodiscard]] const std::vector<WorkloadDef>& workload_defs();

/// Writes the golden file of sim-gaussian from a fresh pass.
void write_sim_golden(const std::string& path);

}  // namespace nexuspp::perfbench
