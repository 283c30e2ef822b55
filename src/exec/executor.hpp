#pragma once
// ThreadedExecutor: a real concurrent StarSs executor — the first backend
// that *runs* task graphs on worker threads instead of simulating them.
//
// The roles follow the paper's Nexus++ split. The master (the calling
// thread) is the Maestro: it pulls TaskRecords from any trace::TaskStream
// in submission order, registers them with the exec::ShardedResolver (one
// core::TaskPool + core::DependenceTable + core::Resolver stack), and is
// the resolver's *only* caller — it also performs every release (the
// Maestro's Handle Finished block) and dispatches the tasks a release
// makes ready. One owner means no lock: the tables are plain state.
// The `threads` workers are the Task Controllers: each runs the tasks
// that arrive on its own channel with a spin-calibrated synthetic kernel
// honoring the record's exec_time, and posts each finished id back on the
// same channel. Workers never touch the dependence tables, so the table
// cache lines stay on the master's core and no worker ever waits on
// resolution.
//
// Channel protocol (exec/channel.hpp). Each worker has one TaskChannel: a
// master -> worker inbox of depth 2 (the running task plus one buffered
// task, the Task Controller's double buffer) and a worker -> master
// outbox. Both rings are single-producer/single-consumer and published by
// one atomic counter each, so the steady state takes no lock. The master
// keeps the ready tasks in a private FIFO and dispatches them itself:
// idle workers first, awake ones before parked ones, then a second,
// buffered task to a busy worker. A worker never holds more than 2 tasks,
// so a long kernel holds back at most one task while a peer is idle.
//
// The master releases posted completions in batches: before each
// registration, and while stalled on table/pool space or waiting for the
// last tasks (waiting only when nothing has been posted).
//
// Waiting policy. A worker with an empty inbox, or the master with no
// completion to drain, first pause-spins for a bounded number of polls —
// only when the workers plus the master fit on the host's hardware
// threads — then yields for a short bounded number of polls, then parks
// on its own mutex/condvar (a worker's lives in its channel). Parking is
// a Dekker-style handshake on a `sleeping` flag that the waiter re-checks
// after setting and the producer checks after publishing, so no wake-up
// is lost and a producer pays for a notify only when its consumer really
// sleeps.
//
// Deadlock diagnosis is exact and poll-free: only the master grants, so a
// stall with nothing in flight, or tasks in flight with none dispatched and
// unreleased, can never progress — the run terminates with a diagnosis
// instead of hanging.
//
// threads == 1 runs a fully inline master-worker loop on the calling
// thread: no concurrency, hence a *stable, reproducible completion order*
// — the determinism anchor the multi-threaded runs are differentially
// tested against (same GraphOracle-validated partial order, arbitrary
// interleaving).
//
// The report carries real wall-clock results (tasks/sec, per-worker
// kernel utilization) next to the structural/hazard
// telemetry shared with the simulated engines; ordering evidence flows
// through core::ExecutionObserver (on_completed fires on the worker before
// the master releases the task's accesses, so recorded completion order is
// always oracle-checkable).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "core/resolver.hpp"
#include "core/types.hpp"
#include "exec/kernels.hpp"
#include "exec/sharded_resolver.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace nexuspp::exec {

struct ExecConfig {
  std::uint32_t threads = 4;  ///< worker pool size (1 = deterministic inline)
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  /// Table sizes — same meaning as the simulated engines' capacity knobs.
  std::uint32_t task_pool_capacity = 16384;
  std::uint32_t dep_table_capacity = 65536;
  std::uint32_t kick_off_capacity = 8;
  bool allow_dummies = true;
  /// Multiplier on trace exec times (1.0 honors them; tests shrink it).
  double duration_scale = 1.0;
  /// Kernel body workers run per task (see exec/kernels.hpp). kSpin is
  /// the status-quo pure delay; the other kinds convert the (scaled)
  /// trace duration into calibrated work units with a real resource
  /// signature. Simulated engines never see this knob, so sim-vs-real
  /// comparisons stay on identical trace durations.
  KernelConfig kernel{};
  /// Optional execution-event sink (not owned; must outlive run()).
  core::ExecutionObserver* observer = nullptr;
  /// Tracing knobs (carried from EngineParams for the adapter's benefit).
  obs::TimelineOptions timeline{};
  /// Optional per-run timeline recorder (not owned; must outlive run()).
  /// Null — the default — compiles every hook site down to a pointer test,
  /// keeping the instrumented build within noise of the no-hooks one.
  obs::TimelineRecorder* timeline_recorder = nullptr;

  void validate() const;

  /// The resolver slice of this config — the one place the field pairing
  /// is spelled out.
  [[nodiscard]] ShardedResolverConfig resolver_config() const;
};

struct ExecReport {
  std::uint64_t tasks_expected = 0;
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  bool deadlocked = false;
  std::string diagnosis;

  // --- Real wall-clock results ----------------------------------------------
  double wall_ns = 0.0;        ///< run start to last completion
  double tasks_per_sec = 0.0;  ///< completed / wall seconds
  double total_exec_ns = 0.0;  ///< sum of kernel spin budgets (scaled)
  /// Per worker: kernel time only. Releases run on the master; a traced
  /// run shows them as `release` spans on the master track.
  std::vector<double> worker_busy_ns;
  std::vector<double> worker_utilization; ///< per worker: busy / wall
  double avg_utilization = 0.0;
  /// Per-task turnaround (registration to kernel completion), wall ns.
  util::RunningStats turnaround_ns;
  double submit_busy_ns = 0.0;   ///< master time registering tasks
  /// Master time stalled on table space: waiting for completions and
  /// releasing them (inline: running ready tasks) until registration can
  /// resume.
  double submit_stall_ns = 0.0;

  // --- Resolution telemetry (same meaning as the simulated engines') --------
  core::Resolver::Stats resolver;
  ShardedResolver::TableStats tables;
  /// Most ready tasks the master held in its FIFO at once (not yet handed
  /// to a worker; inline: not yet run).
  std::size_t ready_queue_peak = 0;
  std::uint32_t threads = 0;
  /// Kernel body that ran the tasks, and total calibrated work units it
  /// executed across all workers (0 under kSpin, whose model is time).
  KernelKind kernel = KernelKind::kSpin;
  std::uint64_t kernel_work_units = 0;
};

/// Single-use, like the simulated systems: construct, run once.
class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(ExecConfig config);

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;
  ~ThreadedExecutor();

  /// Executes the whole stream; returns when every task has completed or a
  /// deadlock was diagnosed. Throws std::logic_error on reuse.
  [[nodiscard]] ExecReport run(std::unique_ptr<trace::TaskStream> stream);

  [[nodiscard]] const ExecConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ExecConfig config_;
  std::unique_ptr<Impl> impl_;
  bool used_ = false;
};

}  // namespace nexuspp::exec
