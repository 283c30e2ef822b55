// The traced pass. Every probe times a public entry point from outside and
// opens a span around each call; nothing inside src/ is instrumented
// beyond the existing obs timeline option.

#include "layers.hpp"

#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <thread>

#include "engine/engine.hpp"
#include "exec/executor.hpp"
#include "exec/sharded_resolver.hpp"
#include "exec/spin.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "sim/time.hpp"

namespace nexuspp::perfbench {
namespace {

constexpr int kGenerateReps = 3;
constexpr int kCtorReps = 5;
constexpr int kResolverRuns = 3;
constexpr int kSimReps = 3;
constexpr int kRuntimeReps = 5;
constexpr std::size_t kMinExecPairs = 5;
/// Requested spin time per thread of the kernel probe.
constexpr double kOvershootBudgetNs = 30e6;

// --- Resolver ----------------------------------------------------------------

struct DriveOutcome {
  double submit_ns = 0.0;  ///< begin_submit + advance, summed
  double finish_ns = 0.0;  ///< finish, summed
  std::uint64_t stalls = 0;
  double queued_frac = 0.0;
  double probes_per_lookup = 0.0;
  std::string problem;
};

/// Single-thread drive of the resolver over the trace, in the order of the
/// executor's threads=1 inline path: submit in stream order; on a capacity
/// stall finish the oldest ready task (FIFO) and retry; drain at the end.
/// Time is taken per run of consecutive submits or finishes.
DriveOutcome resolver_drive(Env& env, const std::vector<trace::TaskRecord>& t) {
  std::vector<std::vector<core::Param>> params;
  params.reserve(t.size());
  for (const auto& r : t) params.push_back(r.params);

  DriveOutcome out;
  const ScopedSpan drive(env.spans, "exec.resolver.drive");
  std::unique_ptr<exec::ShardedResolver> res;
  {
    const ScopedSpan span(env.spans, "exec.resolver.ctor");
    res = std::make_unique<exec::ShardedResolver>(
        exec::ExecConfig{}.resolver_config(), t.size());
  }
  std::deque<std::uint64_t> ready;
  std::vector<std::uint64_t> now_ready;
  std::uint64_t finished = 0;
  const auto finish_one = [&] {
    const std::uint64_t gid = ready.front();
    ready.pop_front();
    res->finish(gid, now_ready);
    ready.insert(ready.end(), now_ready.begin(), now_ready.end());
    ++finished;
  };
  {
    const ScopedSpan span(env.spans, "exec.resolver.submit_and_finish");
    auto seg = Clock::now();
    for (std::uint64_t gid = 0; gid < t.size(); ++gid) {
      auto session =
          res->begin_submit(gid, t[gid].serial, t[gid].fn,
                            std::move(params[gid]));
      for (;;) {
        const auto p = session.advance();
        if (p == exec::ShardedResolver::Progress::kDone) break;
        if (p == exec::ShardedResolver::Progress::kStructural) {
          out.problem = "resolver drive: " + session.failure();
          return out;
        }
        ++out.stalls;
        if (ready.empty()) {
          out.problem = "resolver drive stalled with nothing ready";
          return out;
        }
        const auto mid = Clock::now();
        out.submit_ns += ns_between(seg, mid);
        finish_one();
        seg = Clock::now();
        out.finish_ns += ns_between(mid, seg);
      }
      if (session.ready()) ready.push_back(gid);
    }
    const auto mid = Clock::now();
    out.submit_ns += ns_between(seg, mid);
    while (!ready.empty()) finish_one();
    out.finish_ns += ns_between(mid, Clock::now());
  }
  if (finished != t.size()) {
    out.problem = "resolver drive finished " + std::to_string(finished) +
                  " of " + std::to_string(t.size()) + " tasks";
  }
  const auto rs = res->resolver_stats();
  const auto ts = res->table_stats();
  const double grants = static_cast<double>(rs.granted + rs.queued);
  out.queued_frac = grants > 0 ? static_cast<double>(rs.queued) / grants : 0.0;
  out.probes_per_lookup =
      ts.lookups > 0 ? static_cast<double>(ts.lookup_probes) /
                           static_cast<double>(ts.lookups)
                     : 0.0;
  {
    const ScopedSpan span(env.spans, "exec.resolver.dtor");
    res.reset();
  }
  return out;
}

void probe_resolver(Env& env, const std::vector<trace::TaskRecord>& t,
                    MetricSet& m) {
  std::vector<double> ctor_ms;
  for (int i = 0; i < kCtorReps; ++i) {
    env.spans.next_graph();
    const ScopedSpan span(env.spans, "exec.resolver.ctor");
    const auto t0 = Clock::now();
    auto res = std::make_unique<exec::ShardedResolver>(
        exec::ExecConfig{}.resolver_config(), t.size());
    ctor_ms.push_back(ns_between(t0, Clock::now()) * 1e-6);
  }
  m.set("exec.resolver.ctor_ms", median(ctor_ms));

  std::vector<double> submit_ns;
  std::vector<double> finish_ns;
  DriveOutcome last;
  for (int i = 0; i < kResolverRuns; ++i) {
    env.spans.next_graph();
    last = resolver_drive(env, t);
    env.ledger.record_check(last.problem, "resolver drive");
    const double n = static_cast<double>(t.size());
    submit_ns.push_back(last.submit_ns / n);
    finish_ns.push_back(last.finish_ns / n);
  }
  m.set("exec.resolver.submit_ns", median(submit_ns));
  m.set("exec.resolver.finish_ns", median(finish_ns));
  m.set("exec.resolver.stalls", static_cast<double>(last.stalls));
  m.set("exec.resolver.queued_frac", last.queued_frac);
  m.set("exec.resolver.probes_per_lookup", last.probes_per_lookup);
}

// --- Kernel ------------------------------------------------------------------

/// Wall time over requested time of spin_for_ns over the trace's
/// durations (cycled up to kOvershootBudgetNs), on 1 thread and on T
/// threads at once.
void probe_kernel(Env& env, const std::vector<trace::TaskRecord>& t,
                  MetricSet& m) {
  std::vector<std::uint64_t> durations;
  double requested = 0.0;
  const bool has_work = total_exec_ns(t) > 0.0;
  for (std::size_t i = 0; has_work && requested < kOvershootBudgetNs; ++i) {
    const auto ns =
        static_cast<std::uint64_t>(sim::to_ns(t[i % t.size()].exec_time));
    durations.push_back(ns);
    requested += static_cast<double>(ns);
  }
  const auto spin_all = [&] {
    const auto t0 = Clock::now();
    for (const std::uint64_t d : durations) exec::spin_for_ns(d);
    return ns_between(t0, Clock::now()) / std::max(requested, 1.0);
  };
  env.spans.next_graph();
  {
    const ScopedSpan span(env.spans, "exec.kernel.spin_1t");
    m.set("exec.kernel.overshoot_1t", spin_all());
  }
  const unsigned T = env.threads;
  std::vector<double> ratios(T, 0.0);
  {
    const ScopedSpan span(env.spans, "exec.kernel.spin_nt");
    std::atomic<unsigned> arrived{0};
    const auto body = [&](unsigned i) {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < T) {
      }
      ratios[i] = spin_all();
    };
    std::vector<std::thread> pool;
    for (unsigned i = 1; i < T; ++i) pool.emplace_back(body, i);
    body(0);
    for (auto& th : pool) th.join();
  }
  double sum = 0.0;
  for (const double r : ratios) sum += r;
  m.set("exec.kernel.overshoot_nt", sum / T);
}

// --- Simulators --------------------------------------------------------------

void probe_simulators(Env& env, const LayerInput& in, MetricSet& m) {
  const double n = static_cast<double>(in.trace->size());
  struct Acc {
    std::vector<double> wall_ns;
    std::uint64_t events = 0;
  };
  std::vector<Acc> acc(sim_engines().size());
  for (int rep = 0; rep < kSimReps; ++rep) {
    env.spans.next_graph();
    const ScopedSpan pass(env.spans, "sim.pass");
    std::string problem;
    for (std::size_t e = 0; e < sim_engines().size(); ++e) {
      const std::string& name = sim_engines()[e];
      TimedRun r;
      {
        const ScopedSpan span(env.spans, name == "nexus++"        ? "nexus.run"
                                         : name == "nexus-banked" ? "bank.run"
                                                                  : "rts.run");
        r = sim_run(name, in.trace, in.sim_workers);
      }
      acc[e].wall_ns.push_back(r.wall_s * 1e9);
      acc[e].events = r.report.sim_events;
      if (problem.empty()) problem = check_completed(r.report, in.trace->size());
      if (problem.empty() && in.golden != nullptr) {
        problem = check_golden(golden_of(r.report, in.sim_workers), *in.golden);
      }
    }
    env.ledger.record_check(problem, "simulator pass");
  }
  const auto per_event = [](const Acc& a) {
    return a.events > 0 ? median(a.wall_ns) / static_cast<double>(a.events)
                        : 0.0;
  };
  m.set("nexus.host_ns_per_task", median(acc[0].wall_ns) / n);
  m.set("nexus.host_ns_per_event", per_event(acc[0]));
  m.set("nexus.sim_events", static_cast<double>(acc[0].events));
  m.set("bank.host_ns_per_task", median(acc[1].wall_ns) / n);
  m.set("bank.host_ns_per_event", per_event(acc[1]));
  m.set("rts.host_ns_per_task", median(acc[2].wall_ns) / n);
}

// --- Runtime -----------------------------------------------------------------

void probe_runtime(Env& env, const LayerInput& in, MetricSet& m) {
  const unsigned T = env.threads;
  std::vector<double> submit_ns, drain_ms, fixed_ms, body_util, max_conc;
  for (int rep = 0; rep < kRuntimeReps; ++rep) {
    env.spans.next_graph();
    const ScopedSpan span(env.spans, "runtime.graph");
    RuntimeTiming timing;
    timing.spans = &env.spans;
    double wall_s = 0.0;
    std::string problem;
    std::uint64_t tasks = 0;
    if (in.stencil != nullptr) {
      tasks = in.stencil->tasks();
      problem = check_values(in.stencil->run(T, wall_s, &timing),
                             in.stencil->reference());
    } else {
      tasks = in.trace->size();
      wall_s = runtime_trace_graph(*in.trace, T, timing);
    }
    if (problem.empty() && timing.executed != tasks) {
      problem = "runtime executed " + std::to_string(timing.executed) +
                " of " + std::to_string(tasks) + " tasks";
    }
    env.ledger.record_check(problem, "runtime graph");
    double submit_sum = 0.0;
    for (const double v : timing.submit_ns) submit_sum += v;
    submit_ns.push_back(submit_sum / static_cast<double>(tasks));
    drain_ms.push_back(timing.drain_ns * 1e-6);
    fixed_ms.push_back((timing.ctor_ns + timing.dtor_ns) * 1e-6);
    body_util.push_back(static_cast<double>(timing.body_ns.load()) /
                        (wall_s * 1e9 * T));
    max_conc.push_back(timing.max_concurrency);
  }
  m.set("runtime.submit_ns", median(submit_ns));
  m.set("runtime.drain_ms", median(drain_ms));
  m.set("runtime.fixed_ms", median(fixed_ms));
  m.set("runtime.body_util", median(body_util));
  m.set("runtime.max_concurrency", median(max_conc));
}

// --- Executor, phases, obs ---------------------------------------------------

/// Per-task phase lengths of one traced graph, from the obs timeline.
struct Phases {
  std::vector<double> submit, queue_wait, kernel, release;
  double stall_ns = 0.0;
  double lock_wait_ns = 0.0;
};

Phases phases_of(const obs::Timeline& tl, std::size_t tasks) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> submit(tasks, 0.0), ready_at(tasks, nan),
      run_at(tasks, nan);
  Phases p;
  for (const obs::TimelineTrack& track : tl.tracks) {
    for (const obs::TimelineEvent& e : track.events) {
      const bool task_ok = e.task < tasks;
      switch (e.kind) {
        case obs::EventKind::kSubmit:
          if (task_ok) submit[e.task] += e.dur_ns;
          break;
        case obs::EventKind::kStall:
          p.stall_ns += e.dur_ns;
          break;
        case obs::EventKind::kReady:
          if (task_ok) ready_at[e.task] = e.ts_ns;
          break;
        case obs::EventKind::kRun:
          if (task_ok) run_at[e.task] = e.ts_ns;
          p.kernel.push_back(e.dur_ns);
          break;
        case obs::EventKind::kRelease:
          p.release.push_back(e.dur_ns);
          break;
        case obs::EventKind::kLockWait:
          p.lock_wait_ns += e.dur_ns;
          break;
        default:
          break;
      }
    }
  }
  p.submit = std::move(submit);
  for (std::size_t i = 0; i < tasks; ++i) {
    if (!std::isnan(ready_at[i]) && !std::isnan(run_at[i])) {
      p.queue_wait.push_back(std::max(0.0, run_at[i] - ready_at[i]));
    }
  }
  return p;
}

void export_chrome_trace(Env& env, const engine::RunReport& report) {
  const std::filesystem::path path =
      std::filesystem::path(env.opt.out_dir) /
      (env.opt.workload + "-seed" + std::to_string(env.opt.seed) +
       "-graph.trace.json");
  obs::MetricsRegistry registry;
  report.register_metrics(registry);
  obs::TraceExportOptions options;
  options.metrics = &registry;
  if (obs::save_chrome_trace(*report.timeline.data, path.string(), options)) {
    env.out << "  chrome trace of one traced graph: " << path.string() << '\n';
  } else {
    env.out << "  could not write " << path.string() << '\n';
  }
}

void probe_executor(Env& env, const LayerInput& in, MetricSet& m,
                    Clock::time_point pass_start) {
  const unsigned T = env.threads;
  const std::size_t n = in.trace->size();
  // Every task records a bounded number of events on whichever track runs
  // it (submit/stall spans, ready/finish instants, counters), so ten per
  // task plus slack for stall retries can never overflow a ring.
  const auto events = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(10ull * n + 65536, 1ull << 31));

  std::vector<double> untraced_s, traced_s;
  std::vector<double> fixed_ms, util, busy_frac, stall_frac, contention,
      queue_peak, ta_p50, ta_p99;
  std::vector<double> ph[8];
  std::vector<double> stall_ms, lock_ms, crit_ms, resolution;
  bool exported = false;
  while (untraced_s.size() < kMinExecPairs ||
         seconds_since(pass_start) < env.opt.seconds) {
    env.spans.next_graph();
    {
      const ScopedSpan span(env.spans, "exec.graph");
      const TimedRun r = exec_graph(in.trace, T);
      env.ledger.record_check(check_completed(r.report, n), "exec graph");
      const engine::RunReport& rep = r.report;
      const double makespan_ns = sim::to_ns(rep.makespan);
      untraced_s.push_back(r.wall_s);
      fixed_ms.push_back((r.wall_s * 1e9 - makespan_ns) * 1e-6);
      util.push_back(rep.avg_core_utilization);
      if (const auto* st = rep.stage("submit"); st != nullptr) {
        busy_frac.push_back(sim::to_ns(st->busy) / makespan_ns);
        stall_frac.push_back(sim::to_ns(st->stall) / makespan_ns);
      }
      contention.push_back(
          rep.exec_lock_acquisitions > 0
              ? static_cast<double>(rep.exec_lock_contentions) /
                    static_cast<double>(rep.exec_lock_acquisitions)
              : 0.0);
      queue_peak.push_back(static_cast<double>(rep.ready_queue_peak));
      ta_p50.push_back(rep.turnaround_ns.p50() * 1e-3);
      ta_p99.push_back(rep.turnaround_ns.p99() * 1e-3);
    }
    env.spans.next_graph();
    {
      const ScopedSpan span(env.spans, "exec.graph_traced");
      const TimedRun r = exec_graph(in.trace, T, events);
      const engine::RunReport& rep = r.report;
      std::string problem = check_completed(rep, n);
      if (problem.empty() && rep.obs_timeline_dropped != 0) {
        problem = std::to_string(rep.obs_timeline_dropped) +
                  " timeline events dropped";
      }
      env.ledger.record_check(problem, "traced exec graph");
      traced_s.push_back(r.wall_s);
      const ScopedSpan analysis(env.spans, "obs.phase_analysis");
      const Phases p = phases_of(*rep.timeline.data, n);
      const std::vector<double>* src[4] = {&p.submit, &p.queue_wait,
                                           &p.kernel, &p.release};
      for (int k = 0; k < 4; ++k) {
        ph[2 * k].push_back(percentile(*src[k], 0.5));
        ph[2 * k + 1].push_back(percentile(*src[k], 0.99));
      }
      stall_ms.push_back(p.stall_ns * 1e-6);
      lock_ms.push_back(p.lock_wait_ns * 1e-6);
      crit_ms.push_back(rep.obs_critical_path_ns * 1e-6);
      resolution.push_back(rep.obs_resolution_overhead_frac);
      if (!exported) {
        exported = true;
        export_chrome_trace(env, rep);
      }
    }
    if (seconds_since(pass_start) > 150.0) break;
  }
  m.set("exec.executor.fixed_ms", median(fixed_ms));
  m.set("exec.executor.worker_util", median(util));
  m.set("exec.executor.submit_busy_frac", median(busy_frac));
  m.set("exec.executor.submit_stall_frac", median(stall_frac));
  m.set("exec.executor.lock_contention_frac", median(contention));
  m.set("exec.executor.ready_queue_peak", median(queue_peak));
  m.set("exec.executor.turnaround_p50_us", median(ta_p50));
  m.set("exec.executor.turnaround_p99_us", median(ta_p99));
  static const char* const kPhaseNames[8] = {
      "exec.phase.submit_p50_ns",     "exec.phase.submit_p99_ns",
      "exec.phase.queue_wait_p50_ns", "exec.phase.queue_wait_p99_ns",
      "exec.phase.kernel_p50_ns",     "exec.phase.kernel_p99_ns",
      "exec.phase.release_p50_ns",    "exec.phase.release_p99_ns"};
  for (int k = 0; k < 8; ++k) m.set(kPhaseNames[k], median(ph[k]));
  m.set("exec.phase.stall_ms", median(stall_ms));
  m.set("exec.phase.lock_wait_ms", median(lock_ms));
  m.set("obs.critical_path_ms", median(crit_ms));
  m.set("obs.resolution_overhead_frac", median(resolution));
  const double overhead = 1.0 - median(untraced_s) / median(traced_s);
  m.set("obs.tracing_overhead_frac", overhead);

  env.out << std::fixed << std::setprecision(1) << "  phase table ("
          << traced_s.size() << " traced graphs on " << T
          << " workers; median over graphs)\n"
          << "    phase         p50_ns      p99_ns\n";
  const char* rows[4] = {"submit", "queue_wait", "kernel", "release"};
  for (int k = 0; k < 4; ++k) {
    env.out << "    " << std::left << std::setw(12) << rows[k] << std::right
            << std::setw(10) << median(ph[2 * k]) << std::setw(12)
            << median(ph[2 * k + 1]) << '\n';
  }
  env.out << std::setprecision(3) << "    stall " << median(stall_ms)
          << " ms, lock wait " << median(lock_ms) << " ms per graph\n"
          << std::setprecision(4) << "  obs.tracing_overhead_frac = "
          << overhead << " (traced median " << median(traced_s) * 1e3
          << " ms vs untraced " << median(untraced_s) * 1e3 << " ms, "
          << untraced_s.size() << " graphs each)\n";
  env.out.unsetf(std::ios::floatfield);
}

}  // namespace

void run_layers(Env& env, const LayerInput& in, MetricSet& m) {
  env.spans.enable();
  const auto pass_start = Clock::now();
  env.out << "traced pass (" << env.opt.workload << ")\n";

  std::vector<double> generate_ms;
  for (int i = 0; i < kGenerateReps; ++i) {
    env.spans.next_graph();
    const ScopedSpan span(env.spans, "workloads.make_trace");
    const auto t0 = Clock::now();
    const Trace again = make_trace(in.spec);
    generate_ms.push_back(ns_between(t0, Clock::now()) * 1e-6);
    env.ledger.record(*again == *in.trace, "regenerated trace is identical");
  }
  m.set("workloads.generate_ms", median(generate_ms));

  probe_resolver(env, *in.trace, m);
  probe_kernel(env, *in.trace, m);
  probe_simulators(env, in, m);
  probe_runtime(env, in, m);
  probe_executor(env, in, m, pass_start);

  const std::filesystem::path path =
      std::filesystem::path(env.opt.out_dir) /
      (env.opt.workload + "-seed" + std::to_string(env.opt.seed) +
       "-spans.jsonl");
  std::ofstream spans_out(path);
  env.spans.write_jsonl(spans_out);
  env.out << "  span file: " << path.string() << "\n  span self times\n";
  env.spans.print_self_times(env.out);
}

}  // namespace nexuspp::perfbench
