#include "engine/capture.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "trace/capture.hpp"

namespace nexuspp::engine {

CapturedRun run_captured(const Engine& engine,
                         std::unique_ptr<trace::TaskStream> stream,
                         const EngineParams* params,
                         const std::string& workload) {
  if (!stream) {
    throw std::invalid_argument("run_captured: null task stream");
  }
  auto sink = std::make_shared<std::vector<trace::TaskRecord>>();
  sink->reserve(static_cast<std::size_t>(stream->total_tasks()));

  CapturedRun out;
  out.report =
      engine.run(trace::capture_into(std::move(stream), sink));
  out.trace.tasks = std::move(*sink);
  if (!workload.empty()) {
    out.trace.meta.set(trace::TraceMeta::kWorkload, workload);
  }
  out.trace.meta.set(trace::TraceMeta::kEngine, engine.name());
  if (params != nullptr) {
    // Label for humans, individual knobs for replay tools: a bare replay
    // can restore the capture configuration from the trace alone.
    out.trace.meta.set(trace::TraceMeta::kParams, params->label());
    out.trace.meta.set(trace::TraceMeta::kWorkers,
                       std::to_string(params->num_workers));
    if (params->match_mode.has_value()) {
      out.trace.meta.set(trace::TraceMeta::kMatchMode,
                         core::to_string(*params->match_mode));
    }
    if (params->banks != 0) {
      out.trace.meta.set(trace::TraceMeta::kBanks,
                         std::to_string(params->banks));
    }
    if (params->threads != 0) {
      out.trace.meta.set(trace::TraceMeta::kThreads,
                         std::to_string(params->threads));
    }
    if (params->kernel.has_value()) {
      out.trace.meta.set(trace::TraceMeta::kKernel,
                         exec::to_string(*params->kernel));
    }
  }
  return out;
}

RunReport replay(const trace::Trace& trace, const EngineRegistry& registry,
                 const std::string& engine_name, const EngineParams& params) {
  const auto engine = registry.make(engine_name, params);
  return engine->run(trace::make_vector_stream(trace.tasks));
}

}  // namespace nexuspp::engine
