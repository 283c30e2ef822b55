// The real concurrent executor (`exec-threads`): GraphOracle-validated
// execution order across thread counts, bank (lock-shard) counts, both
// match modes and several seeds; single-thread determinism; behaviour
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
  std::uint32_t banks;
  MatchMode mode;
  std::uint64_t seed;
};

class ExecOrderGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ExecOrderGrid, CompletionOrderRespectsDependencies) {
  const auto& param = GetParam();
  exec::ExecConfig cfg;
  cfg.threads = param.threads;
  cfg.banks = param.banks;
  cfg.match_mode = param.mode;
  cfg.duration_scale = 0.05;  // keep kernels short; order is what matters
  const auto report = run_validated(small_dag(param.seed), cfg);
  EXPECT_EQ(report.threads, param.threads);
  EXPECT_EQ(report.banks, param.banks);
  EXPECT_GT(report.sync.lock_acquisitions, 0u);
  EXPECT_GT(report.wall_ns, 0.0);
  EXPECT_GT(report.tasks_per_sec, 0.0);
  EXPECT_EQ(report.turnaround_ns.count(), report.tasks_completed);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t banks : {1u, 4u}) {
      for (const MatchMode mode :
           {MatchMode::kBaseAddr, MatchMode::kRange}) {
        for (const std::uint64_t seed : {1ull, 3ull, 7ull, 11ull}) {
          cases.push_back({threads, banks, mode, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBanksModesSeeds, ExecOrderGrid, ::testing::ValuesIn(grid_cases()),
    [](const auto& info) {
      // Built with += — GCC 12's -Wrestrict misfires on chained
      // `"lit" + std::to_string(x) + "lit"` (gcc PR 105651).
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_b";
      name += std::to_string(info.param.banks);
      name += info.param.mode == MatchMode::kRange ? "_range" : "_base";
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

/// Range mode with partially overlapping halo reads — the workload whose
/// hazards only interval matching sees, including spans that cross shard
/// home-region boundaries (multi-shard registration).
TEST(ExecThreads, HaloStencilRangeModeAcrossShards) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 24;
  halo.steps = 4;
  const auto tasks = *workloads::make_halo_stencil_trace(halo);
  for (const std::uint32_t banks : {1u, 4u}) {
    exec::ExecConfig cfg;
    cfg.threads = 4;
    cfg.banks = banks;
    cfg.region_bytes = 256;  // well below a tile: spans cross regions
    cfg.match_mode = MatchMode::kRange;
    cfg.duration_scale = 0.05;
    (void)run_validated(tasks, cfg);
  }
}

// --- Determinism anchor -------------------------------------------------------

TEST(ExecThreads, SingleThreadCompletionOrderIsStable) {
  const auto tasks = small_dag(42);
  const auto run_once = [&tasks] {
    core::CompletionRecorder recorder;
    exec::ExecConfig cfg;
    cfg.threads = 1;
    cfg.banks = 2;
    cfg.duration_scale = 0.0;  // zero-length kernels: order is pure protocol
    cfg.observer = &recorder;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    EXPECT_FALSE(report.deadlocked) << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, tasks.size());
    return recorder.order();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), tasks.size());
  EXPECT_EQ(first, second)
      << "threads=1 must execute inline and deterministically";
}

// --- Oversubscription ---------------------------------------------------------

TEST(ExecThreads, OversubscribedWorkersStayOracleValid) {
  // More workers than cores: heavy preemption, maximal interleaving — the
  // ordering guarantee must not depend on the scheduler.
  const auto cores = std::max(1u, std::thread::hardware_concurrency());
  exec::ExecConfig cfg;
  cfg.threads = std::max(16u, 2 * cores);
  cfg.banks = 4;
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
        for (const std::uint32_t banks : {1u, 4u}) {
          exec::ExecConfig cfg;
          cfg.threads = threads;
          cfg.banks = banks;
          cfg.match_mode = mode;
          cfg.duration_scale = 0.01;  // FLOP-derived durations are long
          (void)run_validated(tasks, cfg);
        }
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
        cfg.banks = 2;
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
  cfg.banks = 2;
  cfg.duration_scale = 0.01;
  (void)run_validated(reloaded.tasks, cfg);
}

// --- Deadlock diagnosis (terminates, never hangs) -----------------------------

TEST(ExecThreads, CapacityDeadlockIsDiagnosed) {
  // A single task needing more table entries than a shard can ever hold:
  // the executor must report a capacity deadlock, not wait forever.
  std::vector<trace::TaskRecord> tasks(1);
  tasks[0].serial = 0;
  tasks[0].params = {core::out(0x1000), core::out(0x2000),
                     core::out(0x3000), core::out(0x4000)};
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.banks = 1;
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
    cfg.banks = 1;
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
  params.banks = 2;
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
  EXPECT_EQ(report.banks, 2u);
  EXPECT_EQ(report.tasks_completed, tasks.size());
  EXPECT_GT(report.makespan, 0);
  EXPECT_GT(report.exec_tasks_per_sec, 0.0);
  EXPECT_GT(report.exec_lock_acquisitions, 0u);
  EXPECT_EQ(report.exec_worker_utilization.size(), 4u);
  EXPECT_GT(report.dt_lookups, 0u);
  EXPECT_EQ(report.turnaround_ns.count(), tasks.size());
  // The real-execution columns ride the shared CSV schema.
  const auto header = engine::RunReport::csv_header();
  const auto row = report.csv_row();
  ASSERT_EQ(header.size(), row.size());
  const auto col = std::find(header.begin(), header.end(),
                             "exec_tasks_per_sec");
  ASSERT_NE(col, header.end());
  EXPECT_NE(row[static_cast<std::size_t>(col - header.begin())], "0.000");

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
