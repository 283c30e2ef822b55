#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "chk/chk.hpp"
#include "exec/channel.hpp"
#include "exec/spin.hpp"
#include "sim/time.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

void ExecConfig::validate() const {
  if (threads == 0) {
    throw std::invalid_argument("ExecConfig: threads must be >= 1");
  }
  if (!(duration_scale >= 0.0)) {
    throw std::invalid_argument("ExecConfig: duration_scale must be >= 0");
  }
  kernel.validate();
  resolver_config().validate();
}

ShardedResolverConfig ExecConfig::resolver_config() const {
  ShardedResolverConfig cfg;
  cfg.match_mode = match_mode;
  cfg.pool_capacity = task_pool_capacity;
  cfg.table_capacity = dep_table_capacity;
  cfg.kick_off_capacity = kick_off_capacity;
  cfg.allow_dummies = allow_dummies;
  return cfg;
}

struct ThreadedExecutor::Impl {
  // --- Set up before any worker starts, then only read ----------------------
  std::unique_ptr<ShardedResolver> resolver;
  std::uint64_t expected = 0;
  /// Worker threads in the pool (0 in inline mode).
  std::uint32_t workers = 0;

  // Per-task bookkeeping (written by the master before it sends the task).
  std::vector<std::uint64_t> serials;
  std::vector<std::uint64_t> exec_ns;
  std::vector<Clock::time_point> submitted_at;

  /// One Task Controller link per worker (exec/channel.hpp).
  std::unique_ptr<TaskChannel[]> channels;
  WaitPolicy wait_policy;

  /// Per-worker state (slot w written only by worker w — the inline
  /// master uses slot 0). The accounting is read after the pool is joined.
  struct alignas(kCacheLine) WorkerSlot {
    double busy_ns = 0.0;      ///< kernel time
    std::uint64_t units = 0;   ///< calibrated work units executed
    util::RunningStats turnaround;
  };
  std::unique_ptr<WorkerSlot[]> slots;
  /// Per-worker kernel bodies (slot w used only by worker w).
  std::vector<KernelBody> kernels;

  core::ExecutionObserver* observer = nullptr;

  // Timeline tracing (null when disabled — every hook is a pointer test).
  obs::TimelineRecorder* rec = nullptr;
  std::uint32_t master_track = 0;
  std::uint32_t worker_track0 = 0;

  /// Where the master parks while waiting for any worker to post. Every
  /// post reads it, so it sits on its own cache line.
  alignas(kCacheLine) Parker master_parker;

  // --- Master-only state, on cache lines no worker reads --------------------

  // The ready FIFO. Every task becomes ready exactly once, so it is an
  // append-only log of `expected` ids: release() and registration append
  // at `appended`, dispatch() (inline: the master itself) takes from
  // `head`. Nothing ever allocates.
  alignas(kCacheLine) std::vector<std::uint64_t> queue;
  std::size_t head = 0;
  std::size_t appended = 0;
  std::size_t noted = 0;  ///< `appended` when the depth was last noted
  std::size_t queue_peak = 0;
  /// Tasks sent to workers and not yet drained back, over all channels.
  std::uint64_t in_hand = 0;
  std::uint64_t submitted = 0;  ///< fully registered
  std::uint64_t completed = 0;  ///< released
  /// Reusable grant buffer for ShardedResolver::finish.
  std::vector<std::uint64_t> grants;

  [[nodiscard]] std::uint64_t in_flight() const {
    return submitted - completed;
  }

  /// Runs one task's kernel on worker `widx` (the inline master is worker
  /// 0). The completion event fires here, before the master releases the
  /// task's accesses, so recorded completion order stays oracle-valid.
  void run_kernel(std::uint64_t gid, std::uint32_t widx) {
    if (observer != nullptr) observer->on_started(serials[gid], widx);
    const auto t0 = Clock::now();
    double obs_run0 = 0.0;
    if (rec != nullptr) obs_run0 = rec->now_ns();
    WorkerSlot& slot = slots[widx];
    slot.units += kernels[widx].run(exec_ns[gid], serials[gid]);
    const auto t1 = Clock::now();
    if (observer != nullptr) observer->on_completed(serials[gid], widx);
    if (rec != nullptr) {
      rec->record(worker_track0 + widx, obs::EventKind::kRun, obs_run0,
                  rec->now_ns() - obs_run0, serials[gid], 0);
    }
    slot.turnaround.add(elapsed_ns(submitted_at[gid], t1));
    slot.busy_ns += elapsed_ns(t0, t1);
  }

  /// Worker `widx`: runs what arrives on its channel until it is closed.
  void worker_loop(std::uint32_t widx) {
    TaskChannel& channel = channels[widx];
    std::uint64_t gid = 0;
    while (channel.receive(gid, wait_policy)) {
      run_kernel(gid, widx);
      channel.post(gid, master_parker);
    }
  }

  /// Master: releases completed task `gid` (the Maestro's Handle Finished
  /// step) and appends the tasks it made ready to the ready FIFO.
  // NEXUS_HOT_PATH
  void release(std::uint64_t gid) {
    const double obs0 = rec != nullptr ? rec->now_ns() : 0.0;
    resolver->finish(gid, grants);
    for (const std::uint64_t granted : grants) queue[appended++] = granted;
    ++completed;
    if (rec != nullptr) {
      const double obs_end = rec->now_ns();
      rec->record(master_track, obs::EventKind::kRelease, obs0, obs_end - obs0,
                  serials[gid], 0);
      rec->record(master_track, obs::EventKind::kFinish, obs_end, 0.0,
                  serials[gid], 0);
      // One grant instant per dependant this finish made runnable; the
      // granter's serial is the edge the critical-path analysis walks.
      for (const std::uint64_t granted : grants) {
        rec->record(master_track, obs::EventKind::kReady, obs_end, 0.0,
                    serials[granted], serials[gid]);
      }
      rec->record(master_track, obs::EventKind::kInFlight, obs_end, 0.0, 0,
                  in_flight());
    }
  }

  /// Master: releases every completion posted so far, without blocking.
  // NEXUS_HOT_PATH
  void release_posted() {
    const util::NoAllocScope no_alloc("ThreadedExecutor::release_posted");
    for (std::uint32_t w = 0; w < workers; ++w) {
      in_hand -= channels[w].drain([this](std::uint64_t gid) { release(gid); });
    }
  }

  /// Master: hands ready tasks to the workers. Idle workers get work
  /// first, awake ones before parked ones; then a worker with one task in
  /// hand gets a second, buffered one. A worker inside a long kernel
  /// therefore holds back at most one task while a peer is idle. The
  /// inline master only notes the FIFO depth.
  // NEXUS_HOT_PATH
  void dispatch() {
    const util::NoAllocScope no_alloc("ThreadedExecutor::dispatch");
    if (appended != noted) {
      noted = appended;
      const std::size_t depth = appended - head;
      queue_peak = std::max(queue_peak, depth);
      if (rec != nullptr) {
        obs::record_here(obs::EventKind::kReadyDepth, obs::here_now_ns(), 0.0,
                         0, depth);
      }
    }
    const std::uint64_t capacity =
        std::uint64_t{workers} * TaskChannel::kDepth;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uint32_t w = 0; w < workers; ++w) {
        if (head == appended || in_hand == capacity) return;
        TaskChannel& channel = channels[w];
        const std::uint32_t held = channel.held();
        const bool take = pass == 0   ? held == 0 && !channel.worker_sleeping()
                          : pass == 1 ? held == 0
                                      : held < TaskChannel::kDepth;
        if (!take) continue;
        channel.send(queue[head++]);
        ++in_hand;
      }
    }
  }

  /// Master: dispatches, then waits until some worker posted a completion.
  /// Call only with work outstanding (appended > completed).
  void wait_for_completion() {
    dispatch();
    await_posts({channels.get(), workers}, master_parker, wait_policy);
  }

  /// Tasks ready (or dispatched) whose release is still pending: their
  /// completions are the only events that can unblock the master.
  [[nodiscard]] std::uint64_t outstanding() const {
    return appended - completed;
  }
};

ThreadedExecutor::ThreadedExecutor(ExecConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  config_.validate();
}

ThreadedExecutor::~ThreadedExecutor() = default;

ExecReport ThreadedExecutor::run(std::unique_ptr<trace::TaskStream> stream) {
  if (stream == nullptr) {
    throw std::invalid_argument("ThreadedExecutor: null task stream");
  }
  if (used_) {
    throw std::logic_error("ThreadedExecutor is single-use; make a new one");
  }
  used_ = true;

  const bool inline_mode = config_.threads == 1;
  Impl& im = *impl_;
  im.expected = stream->total_tasks();
  im.workers = inline_mode ? 0 : config_.threads;
  im.observer = config_.observer;
  im.resolver = std::make_unique<ShardedResolver>(config_.resolver_config(),
                                                  im.expected);
  im.serials.resize(im.expected);
  im.exec_ns.resize(im.expected);
  im.submitted_at.resize(im.expected);
  // The ready FIFO holds one entry per task, so dispatching never
  // allocates (ShardedResolver::finish sizes the grant buffer once).
  im.queue.resize(im.expected);
  im.channels = std::make_unique<TaskChannel[]>(im.workers);
  im.wait_policy = WaitPolicy::for_pool(im.workers);
  im.slots = std::make_unique<Impl::WorkerSlot[]>(config_.threads);
  // Kernel state (stream buffers, matmul tiles) is built here, before any
  // worker thread exists: each body is then touched by exactly one worker.
  im.kernels.reserve(config_.threads);
  for (std::uint32_t w = 0; w < config_.threads; ++w) {
    im.kernels.emplace_back(config_.kernel, w);
  }
  // Track registration happens here, before any worker thread exists —
  // the rings are single-writer and must not be added to concurrently.
  obs::TimelineRecorder* const rec = config_.timeline_recorder;
  im.rec = rec;
  if (rec != nullptr) {
    im.master_track = rec->add_track("master");
    im.worker_track0 = rec->add_track("worker-0");
    for (std::uint32_t w = 1; w < config_.threads; ++w) {
      (void)rec->add_track("worker-" + std::to_string(w));
    }
  }

  ExecReport report;
  report.tasks_expected = im.expected;
  report.threads = config_.threads;

  std::vector<std::thread> pool;
  // Fork/join happens-before edges for the race checker — without them a
  // checker session would flag the master's post-join reads of worker
  // accounting as races. Inert (empty objects) when schedcheck is off.
  std::vector<chk::ThreadLink> links(config_.threads);
  // Shutdown is idempotent and runs on *every* exit path while workers
  // are live — including exceptions from the stream, observer callbacks
  // or allocation failures. Unwinding past a joinable std::thread calls
  // std::terminate, which would take the whole sweep process down instead
  // of letting SweepDriver contain the point's failure.
  const auto shutdown_pool = [&im, &pool, &links] {
    if (pool.empty()) return;
    for (std::uint32_t w = 0; w < im.workers; ++w) im.channels[w].close();
    for (std::size_t w = 0; w < pool.size(); ++w) {
      if (pool[w].joinable()) {
        pool[w].join();
        links[w].parent_join();
      }
    }
    pool.clear();
  };
  struct PoolGuard {
    const decltype(shutdown_pool)& shutdown;
    ~PoolGuard() { shutdown(); }
  };
  const PoolGuard pool_guard{shutdown_pool};
  if (!inline_mode) {
    pool.reserve(config_.threads);
    for (std::uint32_t w = 0; w < config_.threads; ++w) {
      chk::ThreadLink& link = links[w];
      pool.emplace_back([&im, &link, w] {
        link.child_begin();
        im.worker_loop(w);
        link.child_end();
      });
    }
  }

  // The master binds its own track for resolver-level events raised while
  // registering and releasing tasks.
  const obs::ThreadTrackScope obs_scope(rec, im.master_track);

  // Force the one-time spin calibration (>= 1 ms) before the clock starts:
  // lazily it would land inside the first task's measured kernel and bias
  // the first run's makespan — which is the baseline row in benches. The
  // work-unit kernels have their own one-time calibration; force it for
  // the same reason.
  (void)spin_iters_per_us();
  (void)kernel_unit_ns(config_.kernel.kind);

  const auto run_start = Clock::now();
  double total_exec_ns = 0.0;
  const auto abort_run = [&](std::string why) {
    report.deadlocked = true;
    report.diagnosis = std::move(why);
  };
  // Only the master grants tasks, so "tasks in flight but none dispatched
  // and unreleased" can never change again: exact, lock-free diagnosis.
  const auto abort_wedged = [&] {
    abort_run("internal deadlock: " + std::to_string(im.in_flight()) +
              " task(s) in flight but none ready or running");
  };
  // One step of waiting for completions. Inline: run the oldest ready
  // task's kernel and release it here. Pooled: release what the workers
  // posted, blocking until there is something. `waited` runs between the
  // wait and the release work.
  const auto await_completions = [&im, inline_mode](const auto& waited) {
    if (inline_mode) {
      im.dispatch();
      const std::uint64_t next_gid = im.queue[im.head++];
      im.run_kernel(next_gid, 0);
      waited();
      im.release(next_gid);
      im.dispatch();
    } else {
      im.wait_for_completion();
      waited();
      im.release_posted();
    }
  };

  // --- Master: release, pull, register, dispatch -----------------------------
  std::uint64_t gid = 0;
  while (!report.deadlocked) {
    if (!inline_mode) im.release_posted();
    im.dispatch();
    auto record = stream->next();
    if (!record.has_value()) break;
    if (gid >= im.expected) {
      abort_run("malformed stream: produced more tasks than total_tasks()");
      break;
    }
    if (im.observer != nullptr) im.observer->on_submitted(record->serial);
    im.serials[gid] = record->serial;
    im.exec_ns[gid] = static_cast<std::uint64_t>(
        sim::to_ns(record->exec_time) * config_.duration_scale);
    total_exec_ns += static_cast<double>(im.exec_ns[gid]);

    auto session = im.resolver->begin_submit(gid, record->serial, record->fn,
                                             std::move(record->params));
    const auto submit_start = Clock::now();
    // Stamped before the task can be dispatched; the worker that runs it
    // reads this timestamp.
    im.submitted_at[gid] = submit_start;
    double task_stall_ns = 0.0;  // time not spent registering this task
    for (;;) {
      const double obs_seg0 = rec != nullptr ? rec->now_ns() : 0.0;
      const auto progress = session.advance();
      if (rec != nullptr) {
        // One span per registration burst; stalls between bursts get their
        // own spans, so master-track spans stay disjoint and ordered.
        rec->record(im.master_track, obs::EventKind::kSubmit, obs_seg0,
                    rec->now_ns() - obs_seg0, record->serial, 0);
      }
      if (progress == ShardedResolver::Progress::kDone) break;
      if (progress == ShardedResolver::Progress::kStructural) {
        abort_run("structural deadlock: " + session.failure());
        break;
      }
      // Stalled on table/pool space. Every finish runs on this thread, so
      // with nothing in flight no space can ever be freed: conclusive.
      if (im.in_flight() == 0) {
        abort_run("capacity deadlock: task " + std::to_string(record->serial) +
                  " cannot be registered (dependence table / task pool too "
                  "small) and nothing is in flight to free space");
        break;
      }
      if (im.outstanding() == 0) {
        abort_wedged();
        break;
      }
      const auto stall_start = Clock::now();
      const double obs_stall0 = rec != nullptr ? rec->now_ns() : 0.0;
      await_completions([&] {
        // The stall span ends where release work begins, so the release
        // spans that follow stay disjoint from it.
        if (rec != nullptr) {
          rec->record(im.master_track, obs::EventKind::kStall, obs_stall0,
                      rec->now_ns() - obs_stall0, record->serial, 0);
        }
      });
      task_stall_ns += elapsed_ns(stall_start, Clock::now());
    }
    if (report.deadlocked) break;

    const auto now = Clock::now();
    report.submit_stall_ns += task_stall_ns;
    report.submit_busy_ns += elapsed_ns(submit_start, now) - task_stall_ns;
    ++im.submitted;
    if (rec != nullptr) {
      const double obs_now = rec->now_ns();
      rec->record(im.master_track, obs::EventKind::kInFlight, obs_now, 0.0,
                  0, im.in_flight());
      if (session.ready()) {
        // Runnable straight from submission: no granting predecessor.
        rec->record(im.master_track, obs::EventKind::kReady, obs_now, 0.0,
                    record->serial, obs::kNoPred);
      }
    }
    // Dispatched with the next dispatch() (top of the loop, or before the
    // master waits).
    if (session.ready()) im.queue[im.appended++] = gid;
    ++gid;
  }

  // --- Stream exhausted (or aborted): release until everything completed ----
  im.dispatch();
  while (!report.deadlocked && im.completed < im.submitted) {
    if (im.outstanding() == 0) {
      abort_wedged();
      break;
    }
    await_completions([] {});
  }
  shutdown_pool();

  const double wall_ns = elapsed_ns(run_start, Clock::now());

  // --- Report -----------------------------------------------------------------
  report.tasks_submitted = im.submitted;
  report.tasks_completed = im.completed;
  report.wall_ns = wall_ns;
  report.total_exec_ns = total_exec_ns;
  report.tasks_per_sec =
      wall_ns > 0.0
          ? static_cast<double>(report.tasks_completed) * 1e9 / wall_ns
          : 0.0;
  double busy_total = 0.0;
  for (std::uint32_t w = 0; w < config_.threads; ++w) {
    const Impl::WorkerSlot& slot = im.slots[w];
    report.worker_busy_ns.push_back(slot.busy_ns);
    report.worker_utilization.push_back(
        wall_ns > 0.0 ? slot.busy_ns / wall_ns : 0.0);
    report.turnaround_ns.merge(slot.turnaround);
    report.kernel_work_units += slot.units;
    busy_total += slot.busy_ns;
  }
  report.avg_utilization =
      wall_ns > 0.0
          ? busy_total / (wall_ns * static_cast<double>(config_.threads))
          : 0.0;
  report.resolver = im.resolver->resolver_stats();
  report.tables = im.resolver->table_stats();
  report.ready_queue_peak = im.queue_peak;
  report.kernel = config_.kernel.kind;
  if (!report.deadlocked && report.tasks_completed != report.tasks_expected) {
    report.deadlocked = true;
    report.diagnosis = "stream ended after " + std::to_string(im.submitted) +
                       " of " + std::to_string(report.tasks_expected) +
                       " expected tasks";
  }
  return report;
}

}  // namespace nexuspp::exec
