#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "chk/chk.hpp"
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
  cfg.shards = banks;
  cfg.region_bytes = region_bytes;
  cfg.match_mode = match_mode;
  cfg.pool_capacity = task_pool_capacity;
  cfg.table_capacity = dep_table_capacity;
  cfg.kick_off_capacity = kick_off_capacity;
  cfg.allow_dummies = allow_dummies;
  return cfg;
}

struct ThreadedExecutor::Impl {
  std::unique_ptr<ShardedResolver> resolver;
  std::uint64_t expected = 0;
  /// Worker threads in the pool (0 in inline mode).
  std::uint32_t workers = 0;

  // Per-task bookkeeping, pre-sized before any worker starts.
  std::vector<std::uint64_t> serials;
  std::vector<std::uint64_t> exec_ns;
  std::vector<Clock::time_point> submitted_at;

  // Run queue. Every task is dispatched exactly once, so the queue is an
  // append-only log of `expected` ids: the master writes entries past
  // `tail` without the lock and publishes them by advancing `tail` under
  // it; workers pop at `head`. Nothing on either side ever allocates.
  std::vector<std::uint64_t> queue;
  // qmu guards head, tail, parked, signaled, done and queue_peak.
  chk::Mutex qmu;
  chk::CondVar qcv;
  std::size_t head = 0;
  std::size_t tail = 0;
  /// Workers blocked on qcv, and how many of them were already notified
  /// but have not run yet: a notified worker is as good as awake, so
  /// nobody pays for a second wake-up meant for the same worker.
  std::uint32_t parked = 0;
  std::uint32_t signaled = 0;
  bool done = false;
  std::size_t queue_peak = 0;

  // Completion channel, the Task Controllers' "finished" signal: another
  // append-only log of `expected` ids. Workers append under cmu and
  // publish the new length through `posted` (release); the master reads
  // `posted` (acquire) and consumes entries without the lock. cmu is only
  // needed among posting workers and for the master's park/wake protocol.
  std::vector<std::uint64_t> completions;
  // cmu guards appends to `completions` and master_parked.
  chk::Mutex cmu;
  chk::CondVar ccv;
  chk::Atomic<std::uint64_t> posted{0};
  bool master_parked = false;

  // Master-only progress state (the master is the resolver's only caller,
  // so none of this is shared).
  std::uint64_t submitted = 0;  ///< fully registered
  std::uint64_t completed = 0;  ///< released (== completion entries consumed)
  std::size_t appended = 0;     ///< queue entries written (>= tail)
  /// Reusable grant buffer for ShardedResolver::finish.
  std::vector<std::uint64_t> grants;

  /// Per-worker state (slot w written only by worker w — the inline
  /// master uses slot 0). The accounting is read after the pool is joined.
  struct WorkerSlot {
    /// Set under qmu when the worker takes a task and cleared when its
    /// kernel returns; publish() reads it under qmu. A worker inside a
    /// kernel cannot take new work, however long the kernel runs.
    chk::Atomic<bool> in_kernel{false};
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

  /// Worker side of the completion channel: append, publish, and wake the
  /// master only if it is parked waiting for completions.
  // NEXUS_HOT_PATH
  void post_completion(std::uint64_t gid) {
    const util::NoAllocScope no_alloc("ThreadedExecutor::post_completion");
    bool wake_master = false;
    {
      const std::lock_guard<chk::Mutex> lock(cmu);
      const util::LockRankGuard rank(util::LockDomain::kCompletion);
      // Relaxed: appends are serialized by cmu; the release store below
      // publishes the entry to the master's lock-free reads.
      const std::uint64_t n = posted.load(std::memory_order_relaxed);
      completions[n] = gid;
      posted.store(n + 1, std::memory_order_release);
      wake_master = master_parked;
    }
    if (wake_master) ccv.notify_one();
  }

  /// Call with qmu held: claims one wake-up if some parked worker has not
  /// been notified yet.
  [[nodiscard]] bool claim_wake() {
    if (parked == signaled) return false;
    ++signaled;
    return true;
  }

  /// Call with qmu held: true when no worker will take queued work
  /// without a wake-up, because every worker is either parked and not yet
  /// notified or inside a kernel. A worker between kernels is about to pop,
  /// and a notified one is about to run.
  [[nodiscard]] bool none_free() const {
    std::uint32_t free = workers - parked + signaled;
    for (std::uint32_t w = 0; w < workers && free > 0; ++w) {
      // Relaxed: set under qmu (held here); a stale `true` after the
      // kernel returned only costs a spare wake-up.
      if (slots[w].in_kernel.load(std::memory_order_relaxed)) --free;
    }
    return free == 0;
  }

  /// Worker `widx`: pops the next ready task into `gid`, parking while the
  /// queue is empty. Returns false once the pool shuts down with the queue
  /// drained.
  bool pop(std::uint64_t& gid, std::uint32_t widx) {
    bool chain_wake = false;
    {
      std::unique_lock<chk::Mutex> lock(qmu);
      const util::LockRankGuard rank(util::LockDomain::kRunQueue);
      if (head == tail && !done) {
        ++parked;
        bool woke = false;
        qcv.wait(lock, [this, &woke] {
          // Every return from a wait retires one pending wake-up, even if
          // the task was taken meanwhile and the worker waits again.
          if (woke && signaled > 0) --signaled;
          woke = true;
          return done || head != tail;
        });
        --parked;
      }
      if (head == tail) return false;
      gid = queue[head++];
      // Relaxed: published to publish() by qmu.
      slots[widx].in_kernel.store(true, std::memory_order_relaxed);
      // Chain wake: the master wakes a worker only when none is free, so
      // a worker that leaves work behind passes the wake on.
      chain_wake = head != tail && claim_wake();
    }
    if (chain_wake) qcv.notify_one();
    return true;
  }

  void worker_loop(std::uint32_t widx) {
    std::uint64_t gid = 0;
    while (pop(gid, widx)) {
      run_kernel(gid, widx);
      slots[widx].in_kernel.store(false, std::memory_order_relaxed);
      post_completion(gid);
    }
  }

  /// Master: releases completed task `gid` (the Maestro's Handle Finished
  /// step) and appends the tasks it made ready to the unpublished tail of
  /// the run queue.
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
    // Acquire: pairs with post_completion's release store, so the entries
    // below it are visible.
    const std::uint64_t n = posted.load(std::memory_order_acquire);
    while (completed < n) release(completions[completed]);
  }

  /// Master: publishes the appended run-queue entries under one lock and
  /// wakes a worker only when none is free to take them (a free worker
  /// takes the work itself and chain-wakes if it leaves some behind).
  void publish() {
    if (appended == tail) return;  // tail is master-written: no race
    std::size_t depth = 0;
    bool wake = false;
    {
      const std::lock_guard<chk::Mutex> lock(qmu);
      const util::LockRankGuard rank(util::LockDomain::kRunQueue);
      tail = appended;
      depth = tail - head;
      queue_peak = std::max(queue_peak, depth);
      wake = parked > signaled && none_free() && claim_wake();
    }
    if (rec != nullptr) {
      obs::record_here(obs::EventKind::kReadyDepth, obs::here_now_ns(), 0.0,
                       0, depth);
    }
    if (wake) qcv.notify_one();
  }

  /// Master: blocks until at least one unreleased completion is posted.
  /// Call only with dispatched work outstanding (appended > completed).
  void wait_for_completion() {
    publish();
    // Relaxed: a hint only; release_posted() does the acquire read.
    if (posted.load(std::memory_order_relaxed) > completed) return;
    std::unique_lock<chk::Mutex> lock(cmu);
    const util::LockRankGuard rank(util::LockDomain::kCompletion);
    master_parked = true;
    // Relaxed: the value is written under cmu, which this wait holds.
    ccv.wait(lock, [this] {
      return posted.load(std::memory_order_relaxed) > completed;
    });
    master_parked = false;
  }

  /// Tasks dispatched (or about to be) whose release is still pending:
  /// their completions are the only events that can unblock the master.
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
  // Both logs hold one entry per task, so posting and dispatching never
  // allocate (ShardedResolver::finish sizes the grant buffer once).
  im.queue.resize(im.expected);
  if (!inline_mode) im.completions.resize(im.expected);
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
  report.banks = config_.banks;

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
    {
      const std::lock_guard<chk::Mutex> lock(im.qmu);
      const util::LockRankGuard rank(util::LockDomain::kRunQueue);
      im.done = true;
    }
    im.qcv.notify_all();
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
      im.publish();
      const std::uint64_t next_gid = im.queue[im.head++];
      im.run_kernel(next_gid, 0);
      waited();
      im.release(next_gid);
      im.publish();
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
    im.publish();
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
    // Dispatched with the next publish (top of the loop, or before the
    // master blocks).
    if (session.ready()) im.queue[im.appended++] = gid;
    ++gid;
  }

  // --- Stream exhausted (or aborted): release until everything completed ----
  im.publish();
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
  report.sync = im.resolver->sync_stats();
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
