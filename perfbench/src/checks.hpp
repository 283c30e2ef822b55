#pragma once
// Output checks behind `ok_frac`. Each returns an empty string when the
// output is correct and a one-line description of the first problem
// otherwise, so the same routines serve the measured run, the injected
// faults of `--inject` and the self-test.

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "engine/run_report.hpp"
#include "trace/trace.hpp"

namespace nexuspp::perfbench {

/// A whole graph ran to completion: no deadlock, every task submitted and
/// completed, and the count matches the workload's.
[[nodiscard]] std::string check_completed(const engine::RunReport& report,
                                          std::uint64_t tasks);

/// The recorded completion order is a legal execution of `trace` (every
/// task once, never before a predecessor), per core::GraphOracle.
[[nodiscard]] std::string check_completion_order(
    const std::vector<trace::TaskRecord>& trace, core::MatchMode mode,
    const std::vector<std::uint64_t>& order);

/// `got` equals `want` bit for bit (the stencil checksum check).
[[nodiscard]] std::string check_values(const std::vector<double>& got,
                                       const std::vector<double>& want);

/// The deterministic outcome of one simulated run, pinned by the golden
/// file: every field must repeat bit for bit.
struct GoldenEntry {
  std::string engine;
  std::uint32_t workers = 0;
  std::int64_t makespan_ps = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t raw = 0;
  std::uint64_t war = 0;
  std::uint64_t waw = 0;
  std::uint64_t completed = 0;

  friend bool operator==(const GoldenEntry&, const GoldenEntry&) = default;
};

[[nodiscard]] GoldenEntry golden_of(const engine::RunReport& report,
                                    std::uint32_t workers);

struct Golden {
  std::string spec;  ///< workload spec the entries were recorded on
  std::vector<GoldenEntry> entries;
};

/// Reads the golden file; throws std::runtime_error when it is missing or
/// malformed.
[[nodiscard]] Golden read_golden(const std::string& path);
void write_golden(const std::string& path, const Golden& golden);

/// `got` matches the golden entry of the same (engine, workers).
[[nodiscard]] std::string check_golden(const GoldenEntry& got,
                                       const Golden& golden);

}  // namespace nexuspp::perfbench
