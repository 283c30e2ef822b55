#pragma once
// The traced pass: per-layer numbers for one workload, measured from
// outside each layer's public entry point, plus the span file and one
// Chrome-trace export.

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "graphs.hpp"

namespace nexuspp::perfbench {

struct LayerInput {
  std::string spec;   ///< workload spec the trace was generated from
  Trace trace;        ///< the workload's task graph
  std::uint32_t sim_workers = 1;  ///< simulated workers of the engine probes
  const Golden* golden = nullptr;    ///< pins the engine probes (sim-gaussian)
  const Stencil* stencil = nullptr;  ///< Runtime probe runs it (runtime-stencil)
};

/// Runs every layer probe on `in` and fills the per-layer metrics.
void run_layers(Env& env, const LayerInput& in, MetricSet& metrics);

}  // namespace nexuspp::perfbench
