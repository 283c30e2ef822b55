// The capture/replay pipeline's core guarantee: capture a run's stream,
// serialize it (text and binary), read it back, replay it through the
// same engine and configuration — and the replayed RunReport compares
// equal field for field with the original run's, for every registered
// engine in both match modes. Also pins the capture side (the recorded
// stream is exactly the generator's output), the sweep driver's
// trace-file workloads, and that traces written by older captures still
// load and run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "engine/capture.hpp"
#include "engine/sweep.hpp"
#include "exec/executor.hpp"
#include "trace/capture.hpp"
#include "trace/io.hpp"
#include "workloads/factorization.hpp"
#include "workloads/library.hpp"
#include "workloads/spatial.hpp"

namespace nexuspp {
namespace {

/// Small but structurally rich: factorization fan-out plus an irregular
/// sparse stream appended via separate specs where needed.
constexpr const char* kWorkload = "tiled-cholesky:tiles=4,tile-elems=16";

engine::EngineParams test_params(core::MatchMode mode) {
  engine::EngineParams params;
  params.num_workers = 4;
  params.match_mode = mode;
  return params;
}

/// Bit-identity only holds for engines whose reports are deterministic
/// functions of (config, stream) — the simulated models. The real
/// exec-threads backend reports wall-clock measurements and is covered by
/// exec_executor_test's oracle-validated ordering instead.
std::vector<std::string> deterministic_engine_names() {
  std::vector<std::string> names;
  const auto& registry = engine::EngineRegistry::builtins();
  for (const auto& name : registry.names()) {
    if (registry.make(name, {})->deterministic_report()) {
      names.push_back(name);
    }
  }
  return names;
}

class TraceReplayAllEngines
    : public ::testing::TestWithParam<std::tuple<std::string, core::MatchMode>> {
};

TEST_P(TraceReplayAllEngines, RoundTripReplayIsBitIdentical) {
  const auto& [engine_name, mode] = GetParam();
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params = test_params(mode);

  const auto eng = registry.make(engine_name, params);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params, kWorkload);

  // The capture consumed the full stream and completed.
  ASSERT_FALSE(captured.report.deadlocked) << captured.report.diagnosis;
  EXPECT_EQ(captured.trace.tasks.size(),
            workloads::cholesky_task_count(4));
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kEngine), engine_name);

  // Text round trip -> replay.
  {
    std::stringstream ss;
    trace::write_text(ss, captured.trace);
    const auto back = trace::read_text_trace(ss);
    EXPECT_EQ(back, captured.trace);
    const auto report = engine::replay(back, registry, engine_name, params);
    EXPECT_EQ(report, captured.report);
  }
  // Binary round trip -> replay.
  {
    std::stringstream ss;
    trace::write_binary(ss, captured.trace);
    const auto back = trace::read_binary_trace(ss);
    EXPECT_EQ(back, captured.trace);
    const auto report = engine::replay(back, registry, engine_name, params);
    EXPECT_EQ(report, captured.report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesBothModes, TraceReplayAllEngines,
    ::testing::Combine(
        ::testing::ValuesIn(deterministic_engine_names()),
        ::testing::Values(core::MatchMode::kBaseAddr,
                          core::MatchMode::kRange)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         core::to_string(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '+') c = 'p';
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(TraceCapture, StampsMachineReadableKnobsForReplay) {
  // The recorded workers/match-mode/banks are what lets a bare
  // `trace_tool replay` restore the capture configuration.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  engine::EngineParams params;
  params.num_workers = 8;
  params.match_mode = core::MatchMode::kRange;
  params.banks = 4;

  const auto eng = registry.make("nexus-banked", params);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params, kWorkload);
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kWorkers), "8");
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kMatchMode), "range");
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kBanks), "4");

  // Rebuilding params from those knobs replays bit-identically.
  engine::EngineParams rebuilt;
  rebuilt.num_workers = 8;
  rebuilt.match_mode = core::match_mode_from_string(
      *captured.trace.meta.get(trace::TraceMeta::kMatchMode));
  rebuilt.banks = 4;
  EXPECT_EQ(engine::replay(captured.trace, registry, "nexus-banked", rebuilt),
            captured.report);
}

TEST(TraceCapture, NullStreamThrows) {
  const auto& registry = engine::EngineRegistry::builtins();
  const auto eng = registry.make("nexus++", {});
  EXPECT_THROW((void)engine::run_captured(*eng, nullptr),
               std::invalid_argument);
}

TEST(TraceCapture, RecordsExactlyTheConsumedStream) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto direct = library.make_trace(kWorkload);

  auto sink = std::make_shared<std::vector<trace::TaskRecord>>();
  auto stream = trace::capture_into(library.make_stream(kWorkload), sink);
  while (stream->next().has_value()) {
  }
  EXPECT_EQ(*sink, *direct);
}

TEST(TraceCapture, CaptureStreamReportsInnerTotal) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  auto sink = std::make_shared<std::vector<trace::TaskRecord>>();
  const auto stream =
      trace::capture_into(library.make_stream(kWorkload), sink);
  EXPECT_EQ(stream->total_tasks(), workloads::cholesky_task_count(4));
}

TEST(TraceReplay, ReplayOfIrregularSpatialStreamMatches) {
  // The irregular workload exercises variable param counts through the
  // serialization layer; range mode exercises the halo partial overlaps.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params = test_params(core::MatchMode::kRange);
  const std::string spec = "spatial:cells-x=8,cells-y=8,steps=2,halo-bytes=32";

  const auto eng = registry.make("nexus++", params);
  const auto captured =
      engine::run_captured(*eng, library.make_stream(spec), &params, spec);
  ASSERT_FALSE(captured.report.deadlocked);

  std::stringstream ss;
  trace::write_binary(ss, captured.trace);
  const auto back = trace::read_binary_trace(ss);
  EXPECT_EQ(engine::replay(back, registry, "nexus++", params),
            captured.report);
}

TEST(TraceReplay, SweepRunsOverTraceFiles) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  const std::string path = "/tmp/nexuspp_replay_sweep_test.nxb";
  trace::Trace trace;
  trace.tasks = *library.make_trace("tiled-lu:tiles=3,tile-elems=8");
  trace::save(path, trace);

  engine::SweepSpec spec;
  spec.workload_from_trace("lu-from-file", path);
  engine::EngineParams params;
  params.num_workers = 4;
  spec.grid({"nexus++", "software-rts"}, {"lu-from-file"}, {params});

  const auto results = engine::run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.report.deadlocked) << r.report.diagnosis;
    EXPECT_EQ(r.report.tasks_completed, workloads::lu_task_count(3));
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, UnknownWorkloadFromTraceThrows) {
  engine::SweepSpec spec;
  EXPECT_THROW(spec.workload_from_trace("x", "/nonexistent/file.nxt"),
               trace::TraceIoError);
}

TEST(TraceReplay, ReplayHonoursDifferentParamsThanCapture) {
  // Replay is not tied to the capture configuration: the same trace file
  // replayed with different worker counts gives different (but internally
  // complete) runs.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params4 = test_params(core::MatchMode::kBaseAddr);
  auto params1 = params4;
  params1.num_workers = 1;

  const auto eng = registry.make("nexus++", params4);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params4, kWorkload);

  const auto narrow =
      engine::replay(captured.trace, registry, "nexus++", params1);
  EXPECT_FALSE(narrow.deadlocked);
  EXPECT_EQ(narrow.tasks_completed, captured.report.tasks_completed);
  EXPECT_GT(narrow.makespan, captured.report.makespan);
}

/// An exec-threads capture written while the executor still had a
/// `sync=mutex|lockfree` shard-backend option
/// (`trace_tool capture tiled-cholesky:tiles=3,tile-elems=16 old.nxt
/// --engine=exec-threads --threads=2 --sync=lockfree --cores=4`). Its meta
/// carries a `sync` key no current reader knows.
constexpr const char* kLockfreeEraTrace = R"(nexus-trace v2
# tasks: 10
meta workload tiled-cholesky:tiles=3,tile-elems=16
meta engine exec-threads
meta params w=4 threads=2 sync=lockfree
meta workers 4
meta threads 2
meta sync lockfree
meta captured-by trace_tool capture
task 0 50177 682.66700000000003 2048 2048 1
param a0000000 2048 inout
task 1 50178 2048 4096 2048 2
param a0000000 2048 in
param a0001800 2048 inout
task 2 50178 2048 4096 2048 2
param a0000000 2048 in
param a0003000 2048 inout
task 3 50179 2048 4096 2048 2
param a0001800 2048 in
param a0002000 2048 inout
task 4 50180 4096 6144 2048 3
param a0003000 2048 in
param a0001800 2048 in
param a0003800 2048 inout
task 5 50179 2048 4096 2048 2
param a0003000 2048 in
param a0004000 2048 inout
task 6 50177 682.66700000000003 2048 2048 1
param a0002000 2048 inout
task 7 50178 2048 4096 2048 2
param a0002000 2048 in
param a0003800 2048 inout
task 8 50179 2048 4096 2048 2
param a0003800 2048 in
param a0004000 2048 inout
task 9 50177 682.66700000000003 2048 2048 1
param a0004000 2048 inout
)";

TEST(TraceReplay, LockfreeEraTraceStillLoadsAndReplaysOnExecThreads) {
  std::istringstream in(kLockfreeEraTrace);
  const auto trace = trace::read_text_trace(in);
  ASSERT_EQ(trace.tasks.size(), 10u);
  // Unknown meta keys are preserved, not rejected.
  EXPECT_EQ(trace.meta.get("sync"), std::optional<std::string>("lockfree"));
  EXPECT_EQ(trace.meta.get(trace::TraceMeta::kThreads),
            std::optional<std::string>("2"));

  // The engine path: replay with the capture's worker pool.
  engine::EngineParams params;
  params.threads = 2;
  const auto report = engine::replay(
      trace, engine::EngineRegistry::builtins(), "exec-threads", params);
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, trace.tasks.size());

  // The completion order of a real run respects every dependence.
  core::CompletionRecorder recorder;
  exec::ExecConfig cfg;
  cfg.threads = 2;
  cfg.observer = &recorder;
  exec::ThreadedExecutor executor(cfg);
  const auto exec_report =
      executor.run(trace::make_vector_stream(trace.tasks));
  ASSERT_FALSE(exec_report.deadlocked) << exec_report.diagnosis;
  std::vector<std::vector<core::Param>> task_params;
  for (const auto& task : trace.tasks) task_params.push_back(task.params);
  std::vector<std::uint64_t> order;
  for (const auto serial : recorder.order()) {
    const auto it = std::find_if(
        trace.tasks.begin(), trace.tasks.end(),
        [serial](const trace::TaskRecord& r) { return r.serial == serial; });
    ASSERT_NE(it, trace.tasks.end()) << "unknown serial " << serial;
    order.push_back(static_cast<std::uint64_t>(it - trace.tasks.begin()));
  }
  ASSERT_EQ(order.size(), trace.tasks.size());
  const auto violation = core::GraphOracle::validate_completion_order(
      cfg.match_mode, task_params, order);
  EXPECT_TRUE(violation.empty()) << violation;

  // Captures no longer write the key.
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto eng = engine::EngineRegistry::builtins().make("exec-threads",
                                                           params);
  const auto recaptured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params, kWorkload);
  EXPECT_FALSE(recaptured.trace.meta.get("sync").has_value());
}

}  // namespace
}  // namespace nexuspp
