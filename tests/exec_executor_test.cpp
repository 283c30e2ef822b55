// The real concurrent executor (`exec-threads`): GraphOracle-validated
// execution order across thread counts, both match modes and several
// seeds; the frozen single-thread completion order; param-less tasks that
// bypass a full task pool; behaviour
// under core oversubscription; master-side release while stalled on small
// tables; park/wake churn; 8 and 16 workers on any host; task-channel
// rings wrapped by a long stream; wake-ups while a worker is in a long
// kernel;
// capacity/structural deadlock diagnosis; and the registry/report contract
// of the engine adapter.
//
// The correctness claim differs from the simulated engines': reports are
// wall-clock measurements (never bit-identical), so what is asserted is
// the *partial order* — every task completed only after all of its
// dependencies, per core::GraphOracle::validate_completion_order — plus
// full completion counts. This file runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "engine/capture.hpp"
#include "engine/registry.hpp"
#include "exec/executor.hpp"
#include "exec/spin.hpp"
#include "sim/time.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "workloads/library.hpp"
#include "workloads/overlap.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using core::GraphOracle;
using core::MatchMode;

/// Parameter lists in submission order, plus the serial -> index mapping
/// the validator needs (all shipped generators emit serial == index, but
/// the tests must not depend on that).
struct OracleInput {
  std::vector<std::vector<core::Param>> params;
  std::unordered_map<std::uint64_t, std::uint64_t> index_of;
};

OracleInput oracle_input(const std::vector<trace::TaskRecord>& tasks) {
  OracleInput in;
  in.params.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    in.params.push_back(tasks[i].params);
    in.index_of.emplace(tasks[i].serial, i);
  }
  return in;
}

/// Validates a recorded completion order (serials) against the oracle.
void expect_oracle_valid(const std::vector<trace::TaskRecord>& tasks,
                         MatchMode mode,
                         const std::vector<std::uint64_t>& serials) {
  const auto in = oracle_input(tasks);
  std::vector<std::uint64_t> order;
  for (const auto serial : serials) {
    const auto it = in.index_of.find(serial);
    if (it == in.index_of.end()) {
      ADD_FAILURE() << "recorder saw unknown serial " << serial;
      return;
    }
    order.push_back(it->second);
  }
  const auto violation =
      GraphOracle::validate_completion_order(mode, in.params, order);
  EXPECT_TRUE(violation.empty()) << violation;
}

/// Runs `tasks` through a ThreadedExecutor and validates the recorded
/// completion order against the oracle. Returns the report.
exec::ExecReport run_validated(const std::vector<trace::TaskRecord>& tasks,
                               exec::ExecConfig cfg) {
  core::CompletionRecorder recorder;
  cfg.observer = &recorder;
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, tasks.size());
  expect_oracle_valid(tasks, cfg.match_mode, recorder.order());
  return report;
}

std::vector<trace::TaskRecord> small_dag(std::uint64_t seed,
                                         std::uint32_t tasks = 300) {
  workloads::RandomDagConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.addr_space = 24;  // dense enough for real hazard chains
  return *workloads::make_random_dag_trace(cfg);
}

// --- Differential: oracle-validated order across the whole grid ---------------

struct GridCase {
  std::uint32_t threads;
  MatchMode mode;
  std::uint64_t seed;
};

class ExecOrderGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ExecOrderGrid, CompletionOrderRespectsDependencies) {
  const auto& param = GetParam();
  exec::ExecConfig cfg;
  cfg.threads = param.threads;
  cfg.match_mode = param.mode;
  cfg.duration_scale = 0.05;  // keep kernels short; order is what matters
  const auto report = run_validated(small_dag(param.seed), cfg);
  EXPECT_EQ(report.threads, param.threads);
  EXPECT_GT(report.wall_ns, 0.0);
  EXPECT_GT(report.tasks_per_sec, 0.0);
  EXPECT_EQ(report.turnaround_ns.count(), report.tasks_completed);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint64_t seed : {1ull, 3ull, 7ull, 11ull}) {
        cases.push_back({threads, mode, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsModesSeeds, ExecOrderGrid, ::testing::ValuesIn(grid_cases()),
    [](const auto& info) {
      // Built with += — GCC 12's -Wrestrict misfires on chained
      // `"lit" + std::to_string(x) + "lit"` (gcc PR 105651).
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += info.param.mode == MatchMode::kRange ? "_range" : "_base";
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

/// Range mode with partially overlapping halo reads — the workload whose
/// hazards only interval matching sees.
TEST(ExecThreads, HaloStencilRangeModeStaysOracleValid) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 24;
  halo.steps = 4;
  const auto tasks = *workloads::make_halo_stencil_trace(halo);
  exec::ExecConfig cfg;
  cfg.threads = 4;
  cfg.match_mode = MatchMode::kRange;
  cfg.duration_scale = 0.05;
  (void)run_validated(tasks, cfg);
}

// --- Determinism anchor -------------------------------------------------------

/// Runs `tasks` inline (threads = 1, zero-length kernels: the order is
/// pure protocol) and returns the recorded completion order.
std::vector<std::uint64_t> inline_order(
    const std::vector<trace::TaskRecord>& tasks, exec::ExecConfig cfg) {
  core::CompletionRecorder recorder;
  cfg.threads = 1;
  cfg.duration_scale = 0.0;
  cfg.observer = &recorder;
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, tasks.size());
  return recorder.order();
}

TEST(ExecThreads, SingleThreadCompletionOrderIsFrozen) {
  // threads=1 runs inline, so its completion order is a pure function of
  // the resolver protocol: registration order, grant order per release,
  // and the resumable stall cursor. These orders were recorded from the
  // executor and must stay bit-identical through any change to the
  // resolver; a change here changes the protocol, not just the speed.
  const std::vector<std::uint64_t> dag42 = {
    0, 3, 7, 9, 10, 11, 17, 20, 29, 4, 1, 12, 15, 69,
    6, 16, 33, 2, 23, 22, 5, 36, 45, 8, 27, 24, 14, 71,
    13, 28, 32, 34, 18, 19, 40, 39, 21, 41, 66, 25, 35, 26,
    59, 102, 92, 37, 30, 42, 38, 31, 46, 55, 54, 63, 52, 43,
    57, 58, 47, 48, 44, 53, 139, 79, 70, 49, 51, 50, 133, 72,
    61, 56, 82, 62, 60, 64, 84, 65, 73, 94, 67, 75, 74, 117,
    145, 81, 68, 90, 83, 76, 88, 77, 96, 107, 78, 97, 101, 103,
    108, 143, 80, 85, 86, 91, 134, 106, 87, 89, 99, 93, 121, 122,
    98, 110, 95, 104, 126, 105, 100, 148, 132, 109, 116, 111, 113, 112,
    115, 118, 114, 119, 127, 129, 128, 120, 123, 125, 166, 124, 138, 130,
    131, 144, 154, 140, 135, 147, 152, 155, 153, 142, 136, 137, 146, 156,
    141, 151, 149, 165, 150, 170, 160, 169, 157, 158, 159, 171, 163, 161,
    162, 168, 167, 164, 181, 176, 172, 173, 201, 202, 174, 208, 175, 177,
    254, 179, 178, 180, 182, 184, 197, 183, 188, 185, 187, 186, 191, 193,
    190, 198, 189, 192, 255, 194, 204, 216, 195, 196, 199, 200, 205, 213,
    206, 203, 211, 209, 210, 212, 207, 217, 215, 218, 214, 224, 237, 221,
    232, 219, 220, 228, 231, 235, 229, 260, 222, 233, 238, 227, 236, 239,
    223, 246, 256, 248, 294, 225, 226, 230, 242, 247, 234, 241, 269, 240,
    245, 243, 251, 244, 250, 258, 249, 261, 282, 252, 253, 279, 262, 259,
    257, 275, 264, 267, 263, 268, 272, 265, 270, 278, 284, 274, 273, 295,
    266, 292, 271, 280, 277, 299, 285, 276, 283, 287, 286, 281, 288, 297,
    291, 289, 296, 290, 298, 293,
  };
  EXPECT_EQ(inline_order(small_dag(42), exec::ExecConfig{}), dag42);

  // Range mode with halo spans, on tables small enough that registration
  // stalls and resumes mid-task many times.
  workloads::HaloStencilConfig halo;
  halo.blocks = 24;
  halo.steps = 4;
  exec::ExecConfig cfg;
  cfg.match_mode = MatchMode::kRange;
  cfg.task_pool_capacity = 16;
  cfg.dep_table_capacity = 32;
  const std::vector<std::uint64_t> halo_order = {
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
    14, 24, 15, 25, 16, 26, 17, 27, 18, 28, 19, 29, 20, 30,
    21, 31, 22, 32, 23, 33, 34, 35, 36, 37, 38, 48, 39, 49,
    40, 50, 41, 51, 42, 52, 43, 53, 44, 54, 45, 55, 46, 56,
    47, 57, 58, 59, 60, 61, 62, 72, 63, 73, 64, 74, 65, 75,
    66, 76, 67, 77, 68, 78, 69, 79, 70, 80, 71, 81, 82, 83,
    84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95,
  };
  EXPECT_EQ(inline_order(*workloads::make_halo_stencil_trace(halo), cfg),
            halo_order);
}

// --- Oversubscription ---------------------------------------------------------

TEST(ExecThreads, OversubscribedWorkersStayOracleValid) {
  // More workers than cores: heavy preemption, maximal interleaving — the
  // ordering guarantee must not depend on the scheduler.
  const auto cores = std::max(1u, std::thread::hardware_concurrency());
  exec::ExecConfig cfg;
  cfg.threads = std::max(16u, 2 * cores);
  cfg.duration_scale = 0.02;
  const auto report = run_validated(small_dag(4242, 400), cfg);
  EXPECT_EQ(report.worker_busy_ns.size(), cfg.threads);
  EXPECT_EQ(report.worker_utilization.size(), cfg.threads);
}

// --- Workload library DAGs and captured traces --------------------------------

TEST(ExecThreads, CompletesWorkloadLibraryDags) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  for (const char* spec :
       {"tiled-cholesky:tiles=4,tile-elems=16",
        "tiled-lu:tiles=4,tile-elems=16",
        "spatial:cells-x=6,cells-y=6,steps=2"}) {
    SCOPED_TRACE(spec);
    const auto tasks = *library.make_trace(spec);
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        cfg.match_mode = mode;
        cfg.duration_scale = 0.01;  // FLOP-derived durations are long
        (void)run_validated(tasks, cfg);
      }
    }
  }
}

TEST(ExecThreads, CompletesPatternWorkloads) {
  // The task-bench timestep grids: structurally diverse dependence shapes
  // (double-buffered addresses, so base-addr and range matching must both
  // hold) across thread counts, GraphOracle-validated like everything
  // else in this file.
  const auto& library = workloads::WorkloadLibrary::builtins();
  for (const char* spec :
       {"pattern:kind=stencil1d,width=8,steps=6,task-ns=500",
        "pattern:kind=fft,width=8,steps=6,task-ns=500",
        "pattern:kind=all-to-all,width=6,steps=4,task-ns=500",
        "pattern:kind=random-nearest,width=8,steps=5,radius=3,task-ns=500"}) {
    SCOPED_TRACE(spec);
    const auto tasks = *library.make_trace(spec);
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        cfg.match_mode = mode;
        (void)run_validated(tasks, cfg);
      }
    }
  }
}

TEST(ExecThreads, RunsCapturedTracesFromTheReplayPipeline) {
  // Capture a run on the simulated flagship, serialize, reload, and
  // execute the captured stream for real — the full pipeline the ISSUE's
  // "captured traces" clause names.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  engine::EngineParams params;
  params.num_workers = 8;
  const auto eng = registry.make("nexus++", params);
  const auto captured =
      engine::run_captured(*eng, library.make_stream("tiled-lu:tiles=4"),
                           &params, "tiled-lu:tiles=4");
  ASSERT_FALSE(captured.report.deadlocked) << captured.report.diagnosis;

  std::stringstream buffer;
  trace::write_binary(buffer, captured.trace);
  const auto reloaded = trace::read_binary_trace(buffer);
  ASSERT_EQ(reloaded.tasks.size(), captured.trace.tasks.size());

  exec::ExecConfig cfg;
  cfg.threads = 4;
  cfg.duration_scale = 0.01;
  (void)run_validated(reloaded.tasks, cfg);
}

// --- Deadlock diagnosis (terminates, never hangs) -----------------------------

TEST(ExecThreads, CapacityDeadlockIsDiagnosed) {
  // A single task needing more table entries than the table can ever hold:
  // the executor must report a capacity deadlock, not wait forever.
  std::vector<trace::TaskRecord> tasks(1);
  tasks[0].serial = 0;
  tasks[0].params = {core::out(0x1000), core::out(0x2000),
                     core::out(0x3000), core::out(0x4000)};
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.dep_table_capacity = 2;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    EXPECT_TRUE(report.deadlocked);
    EXPECT_NE(report.diagnosis.find("capacity deadlock"), std::string::npos)
        << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, 0u);
  }
}

TEST(ExecThreads, ParamlessTasksBypassAFullTaskPool) {
  // A one-slot task pool, held by the first task for the whole
  // registration phase, then 200 param-less tasks: they take no
  // descriptor, so none of them may stall behind the held slot.
  std::vector<trace::TaskRecord> tasks(201);
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].serial = i;
  tasks[0].params = {core::inout(0x1000)};

  // Inline, the master registers every task before it runs any: one slot
  // is enough exactly when no param-less task needs it.
  exec::ExecConfig cfg;
  cfg.threads = 1;
  cfg.task_pool_capacity = 1;
  const auto inline_report = run_validated(tasks, cfg);
  EXPECT_EQ(inline_report.submit_stall_ns, 0.0);
  EXPECT_EQ(inline_report.ready_queue_peak, tasks.size());

  cfg.threads = 2;
  (void)run_validated(tasks, cfg);
}

TEST(ExecThreads, PooledMasterReleasesWhileStalled) {
  // Tables far smaller than the graph, and 50 us kernels the master
  // out-registers: it fills them, stalls, and must release the workers'
  // completions to make room — the stall -> release -> re-advance cycle
  // with workers running, which full-size tables never reach. The
  // Dependence Table (12 entries; a task needs at most 8) is shrunk too,
  // because resolver.stalls counts table-space stalls only.
  const auto tasks = *workloads::WorkloadLibrary::builtins().make_trace(
      "pattern:kind=random-nearest,width=8,steps=40,radius=3,task-ns=50000");
  for (const std::uint32_t threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.task_pool_capacity = 32;
    cfg.dep_table_capacity = 12;
    const auto report = run_validated(tasks, cfg);
    EXPECT_GT(report.resolver.stalls, 0u);
    EXPECT_GT(report.submit_stall_ns, 0.0);
  }
}

TEST(ExecThreads, ParkWakeChurnCompletes) {
  // Zero-length kernels on a small graph: workers park and wake around
  // nearly every task, and the master parks waiting for completions. A
  // lost chain wake or master wake would hang a run here.
  const auto tasks = small_dag(11, 64);
  for (const std::uint32_t threads : {2u, 4u, 16u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.duration_scale = 0.0;
    for (int run = 0; run < 200; ++run) {
      const auto report = run_validated(tasks, cfg);
      if (report.deadlocked || report.tasks_completed != tasks.size()) {
        FAIL() << "run " << run << " did not complete";
      }
    }
  }
}

TEST(ExecThreads, ManyWorkersOnAnyHostFinishOracleValid) {
  // 8 and 16 workers: on a host with fewer hardware threads the waits
  // skip the spin phase and end in parks, on a larger one they spin. Either
  // way every run must finish (a lost wake-up hangs it) in a valid order.
  const auto tasks = small_dag(8216, 400);
  for (const std::uint32_t threads : {8u, 16u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.duration_scale = 0.01;
    for (int run = 0; run < 25; ++run) {
      const auto report = run_validated(tasks, cfg);
      if (report.deadlocked || report.tasks_completed != tasks.size()) {
        FAIL() << "run " << run << " did not complete";
      }
    }
  }
}

TEST(ExecThreads, LongStreamWrapsEveryChannelRing) {
  // 12,000 zero-length tasks on 2 workers: each worker's depth-2 inbox
  // and outbox counters go round their rings thousands of times.
  struct Recorder final : core::ExecutionObserver {
    core::CompletionRecorder order;
    std::atomic<std::uint64_t> ran[2] = {};
    void on_completed(std::uint64_t serial, std::uint32_t worker) override {
      order.on_completed(serial, worker);
      ran[worker].fetch_add(1, std::memory_order_relaxed);
    }
  };
  const auto tasks = small_dag(10007, 12'000);
  Recorder recorder;
  exec::ExecConfig cfg;
  cfg.threads = 2;
  cfg.duration_scale = 0.0;
  cfg.observer = &recorder;
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, tasks.size());
  expect_oracle_valid(tasks, cfg.match_mode, recorder.order.order());
  EXPECT_EQ(recorder.ran[0].load() + recorder.ran[1].load(), tasks.size());
  // The master fills idle workers first, so both take part; 100 tasks is
  // 50 trips round a depth-2 ring.
  EXPECT_GT(recorder.ran[0].load(), 100u);
  EXPECT_GT(recorder.ran[1].load(), 100u);
}

/// Yields one long task, then — once that task's kernel has started and
/// the other workers have had time to park — `shorts` independent short
/// tasks.
class LongThenShortStream final : public trace::TaskStream {
 public:
  LongThenShortStream(std::uint64_t shorts, const std::atomic<bool>& started)
      : shorts_(shorts), started_(started) {}

  std::optional<trace::TaskRecord> next() override {
    if (cursor_ > shorts_) return std::nullopt;
    trace::TaskRecord record;
    record.serial = cursor_;
    record.params = {core::out(0x1000 + 0x100 * cursor_)};
    if (cursor_ == 0) {
      record.exec_time = sim::ms(100);
    } else {
      record.exec_time = sim::us(1);
      if (cursor_ == 1) {
        while (!started_.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ++cursor_;
    return record;
  }

  [[nodiscard]] std::uint64_t total_tasks() const override {
    return shorts_ + 1;
  }

 private:
  std::uint64_t shorts_;
  const std::atomic<bool>& started_;
  std::uint64_t cursor_ = 0;
};

TEST(ExecThreads, LongKernelDoesNotHoldBackIndependentWork) {
  // One worker is inside a 100 ms kernel when independent short tasks
  // become ready. That worker cannot take them, so the master must wake a
  // parked one: some short task has to start before the long one ends.
  struct Observer final : core::ExecutionObserver {
    std::atomic<bool> long_started{false};
    std::atomic<bool> long_completed{false};
    std::atomic<std::uint64_t> started_during_long{0};
    void on_started(std::uint64_t serial, std::uint32_t worker) override {
      (void)worker;
      if (serial == 0) {
        long_started.store(true);
      } else if (!long_completed.load()) {
        started_during_long.fetch_add(1);
      }
    }
    void on_completed(std::uint64_t serial, std::uint32_t worker) override {
      (void)worker;
      if (serial == 0) long_completed.store(true);
    }
  };
  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    Observer observer;
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.observer = &observer;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(
        std::make_unique<LongThenShortStream>(100, observer.long_started));
    EXPECT_FALSE(report.deadlocked) << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, 101u);
    EXPECT_GT(observer.started_during_long.load(), 0u);
  }
}

TEST(ExecThreads, StructuralKickOffOverflowIsDiagnosed) {
  // Classic-Nexus limits: dummies disabled, kick-off capacity 2. A writer
  // holds an address while four more writers queue behind it — the third
  // can never be recorded, which is permanent, not a capacity wait.
  std::vector<trace::TaskRecord> tasks(6);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].serial = i;
    tasks[i].params = {core::out(0x1000)};
  }
  exec::ExecConfig cfg;
  cfg.threads = 1;  // inline: the first writer stays unexecuted, so the
                    // queue genuinely fills — and the run is deterministic
  cfg.allow_dummies = false;
  cfg.kick_off_capacity = 2;
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.diagnosis.find("structural"), std::string::npos)
      << report.diagnosis;
}

// --- Engine adapter / registry contract ---------------------------------------

TEST(ExecThreads, RegisteredEngineFillsTheRealExecutionReport) {
  const auto& registry = engine::EngineRegistry::builtins();
  ASSERT_TRUE(registry.contains("exec-threads"));

  engine::EngineParams params;
  params.num_workers = 2;
  params.threads = 4;  // explicit threads knob wins over num_workers
  const auto eng = registry.make("exec-threads", params);
  EXPECT_EQ(eng->name(), "exec-threads");
  EXPECT_FALSE(eng->deterministic_report());
  EXPECT_TRUE(registry.make("nexus++", params)->deterministic_report());

  const auto tasks = small_dag(1, 200);
  const auto report = eng->run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.engine, "exec-threads");
  EXPECT_EQ(report.num_workers, 4u);
  EXPECT_EQ(report.banks, 0u);  // one resolver: no banks, like software-rts
  EXPECT_EQ(report.tasks_completed, tasks.size());
  EXPECT_GT(report.makespan, 0);
  EXPECT_GT(report.exec_tasks_per_sec, 0.0);
  EXPECT_EQ(report.exec_worker_utilization.size(), 4u);
  // The resolver's table and hazard telemetry reaches the report.
  EXPECT_GT(report.dt_lookups, 0u);
  EXPECT_GT(report.tp_max_used, 0u);
  EXPECT_GT(report.raw_hazards + report.war_hazards + report.waw_hazards,
            0u);
  EXPECT_EQ(report.turnaround_ns.count(), tasks.size());
  // The real-execution columns ride the shared CSV schema.
  const auto header = engine::RunReport::csv_header();
  const auto row = report.csv_row();
  ASSERT_EQ(header.size(), row.size());
  const auto col = std::find(header.begin(), header.end(),
                             "exec_tasks_per_sec");
  ASSERT_NE(col, header.end());
  EXPECT_NE(row[static_cast<std::size_t>(col - header.begin())], "0.000");
  EXPECT_EQ(std::find(header.begin(), header.end(), "exec_lock_acquisitions"),
            header.end());

  // The threads knob shows up in sweep labels.
  EXPECT_NE(params.label().find("threads=4"), std::string::npos);
}

TEST(ExecThreads, SpinKernelHonorsRequestedDuration) {
  const auto t0 = std::chrono::steady_clock::now();
  exec::spin_for_ns(2'000'000);  // 2 ms
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 2'000'000);
  EXPECT_GT(exec::spin_iters_per_us(), 0u);
}

}  // namespace
}  // namespace nexuspp
