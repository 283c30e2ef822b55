// The four workloads: set-up, the closed timing loop, output checks and the
// end-to-end metrics. With --trace 1 each hands its inputs to the layer
// pass instead of timing graphs.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "core/observer.hpp"
#include "engine/engine.hpp"
#include "exec/executor.hpp"
#include "layers.hpp"
#include "sim/time.hpp"

namespace nexuspp::perfbench {

Env::Env(Options o, Clock::time_point start, std::ostream& os)
    : opt(std::move(o)), process_start(start), out(os), spans(start) {}

bool Env::take_injection(const char* kind) {
  if (opt.inject != kind) return false;
  opt.inject.clear();
  return true;
}

namespace {

constexpr int kSetupRounds = 3;
constexpr std::size_t kMinSingleGraphs = 10;
/// The closed loop stops here even when its minimum counts are not met,
/// so a run always ends well inside its time limit.
constexpr double kLoopCapS = 120.0;

constexpr const char* kCoarseSpec = "h264:rows=120,cols=120";
constexpr const char* kFineSpec =
    "pattern:kind=random-nearest,width=32,steps=600,radius=3,fraction=0.5,"
    "task-ns=200";
constexpr const char* kGaussianSpec = "gaussian:n=200";
/// Simulated worker cores of sim-gaussian (fixed, so the goldens do not
/// depend on the host), and the single-worker configuration of
/// tasks_per_s_1t.
constexpr std::uint32_t kSimWorkers = 4;
constexpr std::uint32_t kStencilWidth = 64;
constexpr std::uint32_t kStencilSteps = 200;
/// The stencil's task graph as a library trace (same shape: 3-point
/// stencil, double buffered), for the trace-based layer probes.
constexpr const char* kStencilSpec =
    "pattern:kind=stencil1d,width=64,steps=200,radius=1,task-ns=2500";

std::string seeded(const char* spec, std::uint64_t seed) {
  return std::string(spec) + ",seed=" + std::to_string(seed);
}

/// Runs one set-up round kSetupRounds times (once in the traced pass) and
/// returns the median round in seconds. The first round is timed from
/// process start, so one-time costs (static initialisation, the spin
/// calibration) land in it.
double setup_rounds(Env& env, const std::function<void()>& round) {
  const int rounds = env.opt.trace ? 1 : kSetupRounds;
  std::vector<double> times;
  for (int i = 0; i < rounds; ++i) {
    const auto t0 = i == 0 ? env.process_start : Clock::now();
    round();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

struct LoopSamples {
  std::vector<double> multi_s;   ///< wall seconds of multi-worker graphs
  std::vector<double> single_s;  ///< wall seconds of one-worker graphs
};

/// Closed loop with one client: each graph starts only after the previous
/// one completed. Multi-worker graphs get about three quarters of the time
/// and one-worker graphs the rest, interleaved so drift hits both alike. Ends
/// once --seconds have passed and both sample minimums are met. The walls
/// are also written, in run order, to <out>/<workload>-seed<S>-graphs.tsv.
LoopSamples closed_loop(Env& env, const std::function<double()>& multi,
                        const std::function<double()>& single) {
  LoopSamples s;
  const std::size_t min_single =
      std::min(kMinSingleGraphs, env.opt.min_graphs);
  double t_multi = 0.0;
  double t_single = 0.0;
  std::vector<std::pair<char, double>> order;
  const auto t0 = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(t0);
    const bool done = elapsed >= env.opt.seconds &&
                      s.multi_s.size() >= env.opt.min_graphs &&
                      s.single_s.size() >= min_single;
    if (done || elapsed >= kLoopCapS) break;
    if (3.0 * t_single < t_multi) {
      s.single_s.push_back(single());
      t_single += s.single_s.back();
      order.emplace_back('1', s.single_s.back());
    } else {
      s.multi_s.push_back(multi());
      t_multi += s.multi_s.back();
      order.emplace_back('T', s.multi_s.back());
    }
  }
  // Per-graph walls in run order, for looking at drift and outliers.
  std::ofstream walls(std::filesystem::path(env.opt.out_dir) /
                      (env.opt.workload + "-seed" +
                       std::to_string(env.opt.seed) + "-graphs.tsv"));
  walls << "graph\tworkers\twall_ms\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    walls << i << '\t' << (order[i].first == 'T' ? env.threads : 1u) << '\t'
          << order[i].second * 1e3 << '\n';
  }
  return s;
}

void print_row(Env& env, const std::string& name, double value,
               const std::string& unit, const std::string& note) {
  env.out << "  " << std::left << std::setw(16) << name << " = " << std::right
          << std::setw(14) << std::setprecision(6) << value << ' '
          << std::left << std::setw(8) << unit << std::right << note << '\n';
}

/// Sets the three timing metrics from the loop samples. `tasks` is the
/// number of tasks one graph completes.
void timing_metrics(Env& env, MetricSet& m, const LoopSamples& s,
                    double tasks, const std::string& multi_label,
                    const std::string& single_label) {
  const double med = median(s.multi_s);
  const double med1 = median(s.single_s);
  const auto tail = highest_supported_percentile(s.multi_s.size());
  const double p90_ms = level_corrected_percentile(s.multi_s, 0.9) * 1e3;
  m.set("tasks_per_s", tasks / med);
  m.set("graph_p90_ms", p90_ms);
  m.set("tasks_per_s_1t", tasks / med1);
  print_row(env, "tasks_per_s", tasks / med, "tasks/s",
            "median of " + std::to_string(s.multi_s.size()) + " graphs " +
                multi_label);
  std::string p90_note = "p90 of " + std::to_string(s.multi_s.size()) +
                         " graphs, each over the median of its " +
                         std::to_string(2 * kLevelHalfWindow + 1) +
                         " neighbours, x the median; highest supported "
                         "percentile ";
  p90_note += tail.has_value()
                  ? "p" + std::to_string(static_cast<int>(*tail * 100))
                  : std::string("none");
  if (!tail_supported(s.multi_s.size(), 0.9)) {
    p90_note += " (p90 has fewer than 10 samples beyond it)";
  }
  print_row(env, "graph_p90_ms", p90_ms, "ms", p90_note);
  print_row(env, "(plain p90)", percentile(s.multi_s, 0.9) * 1e3, "ms",
            "p90 of the raw walls, slow host stretches included; not gated");
  print_row(env, "tasks_per_s_1t", tasks / med1, "tasks/s",
            "median of " + std::to_string(s.single_s.size()) + " graphs " +
                single_label);
}

void set_setup(Env& env, MetricSet& m, double setup_s) {
  m.set("setup_s", setup_s);
  print_row(env, "setup_s", setup_s, "s",
            "median of " + std::to_string(kSetupRounds) + " set-up rounds");
}

// --- exec-coarse / exec-fine -------------------------------------------------

/// Untimed verification graphs: ThreadedExecutor with a CompletionRecorder
/// (a mutex per completion, so never timed), each completion order checked
/// by GraphOracle.
void verify_exec_orders(Env& env, const Trace& trace) {
  for (const unsigned threads : {env.threads, env.threads, 1u}) {
    engine::EngineParams params;
    params.num_workers = threads;
    params.threads = threads;
    exec::ExecConfig cfg =
        engine::ThreadedExecEngine::apply(exec::ExecConfig{}, params);
    core::CompletionRecorder recorder;
    cfg.observer = &recorder;
    exec::ThreadedExecutor executor(cfg);
    const exec::ExecReport rep =
        executor.run(std::make_unique<trace::VectorStream>(trace));
    std::string problem;
    if (rep.deadlocked) {
      problem = "deadlocked: " + rep.diagnosis;
    } else if (rep.tasks_completed != trace->size()) {
      problem = "completed " + std::to_string(rep.tasks_completed) + " of " +
                std::to_string(trace->size()) + " tasks";
    } else {
      std::vector<std::uint64_t> order = recorder.order();
      if (env.take_injection("bad-order")) {
        std::reverse(order.begin(), order.end());
      }
      problem = check_completion_order(*trace, cfg.match_mode, order);
    }
    env.ledger.record_check(problem, "verification graph on " +
                                         std::to_string(threads) + " worker(s)");
  }
}

void run_exec(Env& env, const char* spec_base, MetricSet& m) {
  const std::string spec = seeded(spec_base, env.opt.seed);
  const unsigned T = env.threads;
  Trace trace;
  const auto graph = [&](std::uint32_t threads, const char* what) {
    TimedRun r = exec_graph(trace, threads);
    env.ledger.record_check(check_completed(r.report, trace->size()), what);
    return r.wall_s;
  };
  const double setup_s = setup_rounds(env, [&] {
    trace = make_trace(spec);
    (void)graph(T, "warm-up graph");
    (void)graph(1, "warm-up graph (1 worker)");
  });
  const double tasks = static_cast<double>(trace->size());
  env.out << "workload input: " << spec << " (" << trace->size()
          << " tasks, exec-threads defaults, " << T << " workers)\n";
  verify_exec_orders(env, trace);
  if (env.opt.trace) {
    run_layers(env, LayerInput{spec, trace, T, nullptr, nullptr}, m);
    return;
  }
  const LoopSamples s = closed_loop(
      env, [&] { return graph(T, "timed graph"); },
      [&] { return graph(1, "timed graph (1 worker)"); });

  timing_metrics(env, m, s, tasks, "on " + std::to_string(T) + " workers",
                 "on the threads=1 inline path");
  set_setup(env, m, setup_s);

  // Reference figures (printed, not gated).
  const double med = median(s.multi_s);
  const TimedRun sim = sim_run("nexus++", trace, T);
  env.ledger.record_check(check_completed(sim.report, trace->size()),
                          "nexus++ reference run");
  env.out << std::setprecision(4) << "  reference: speedup "
          << median(s.single_s) / med << "x over 1 worker; efficiency "
          << total_exec_ns(*trace) * 1e-9 / (med * T)
          << " (requested kernel time / (graph wall x " << T
          << ")); nexus++ simulated makespan at " << T << " workers "
          << sim::to_ms(sim.report.makespan) << " ms vs measured "
          << med * 1e3 << " ms\n";
}

// --- sim-gaussian ------------------------------------------------------------

void run_sim(Env& env, MetricSet& m) {
  const Golden golden = read_golden(env.opt.golden_path);
  if (golden.spec != kGaussianSpec) {
    throw std::runtime_error("golden file is for " + golden.spec + ", not " +
                             kGaussianSpec);
  }
  Trace trace;
  // One pass = one graph: every engine once, each outcome golden-checked.
  const auto pass = [&](std::uint32_t workers, const char* what) {
    double wall = 0.0;
    std::string problem;
    for (const std::string& name : sim_engines()) {
      const TimedRun r = sim_run(name, trace, workers);
      wall += r.wall_s;
      GoldenEntry got = golden_of(r.report, workers);
      if (env.take_injection("golden-mismatch")) ++got.makespan_ps;
      if (problem.empty()) problem = check_golden(got, golden);
    }
    env.ledger.record_check(problem, what);
    return wall;
  };
  const double setup_s = setup_rounds(env, [&] {
    trace = make_trace(kGaussianSpec);
    (void)pass(kSimWorkers, "warm-up pass");
  });
  env.out << "workload input: " << kGaussianSpec << " (" << trace->size()
          << " tasks) through nexus++, nexus-banked (banks=4), software-rts; "
          << kSimWorkers << " simulated workers\n";
  if (env.opt.trace) {
    run_layers(env, LayerInput{kGaussianSpec, trace, kSimWorkers, &golden,
                               nullptr},
               m);
    return;
  }
  const LoopSamples s = closed_loop(
      env, [&] { return pass(kSimWorkers, "timed pass"); },
      [&] { return pass(1, "timed pass (1 simulated worker)"); });
  const double tasks =
      static_cast<double>(trace->size() * sim_engines().size());
  timing_metrics(env, m, s, tasks,
                 "(simulated tasks per host second, " +
                     std::to_string(kSimWorkers) + " simulated workers)",
                 "(1 simulated worker)");
  set_setup(env, m, setup_s);
}

// --- runtime-stencil ---------------------------------------------------------

void run_runtime(Env& env, MetricSet& m) {
  const unsigned T = env.threads;
  std::unique_ptr<Stencil> stencil;
  const auto graph = [&](unsigned threads, const char* what) {
    double wall = 0.0;
    std::vector<double> result = stencil->run(threads, wall);
    if (env.take_injection("bad-checksum")) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, result.data(), sizeof bits);
      bits ^= 1;
      std::memcpy(result.data(), &bits, sizeof bits);
    }
    env.ledger.record_check(check_values(result, stencil->reference()), what);
    return wall;
  };
  const double setup_s = setup_rounds(env, [&] {
    stencil =
        std::make_unique<Stencil>(kStencilWidth, kStencilSteps, env.opt.seed);
    (void)graph(T, "warm-up graph");
    (void)graph(1, "warm-up graph (1 worker)");
  });
  env.out << "workload input: 3-point stencil " << kStencilWidth << " x "
          << kStencilSteps << " (" << stencil->tasks()
          << " tasks) on starss::Runtime, " << T << " workers\n";
  if (env.opt.trace) {
    const std::string spec = seeded(kStencilSpec, env.opt.seed);
    run_layers(env, LayerInput{spec, make_trace(spec), T, nullptr,
                               stencil.get()},
               m);
    return;
  }
  const LoopSamples s = closed_loop(
      env, [&] { return graph(T, "timed graph"); },
      [&] { return graph(1, "timed graph (1 worker)"); });
  timing_metrics(env, m, s, static_cast<double>(stencil->tasks()),
                 "on Runtime(" + std::to_string(T) + ")", "on Runtime(1)");
  set_setup(env, m, setup_s);
}

}  // namespace

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"exec-coarse",
       "H.264 wavefront, 14,400 tasks of ~12 us that fit the task pool: "
       "kernel and worker wake-up dominate, the resolver does little",
       [](Env& env, MetricSet& m) { run_exec(env, kCoarseSpec, m); }},
      {"exec-fine",
       "random-nearest pattern, 19,200 tasks of 200 ns that overflow the "
       "task pool: resolution, stalls and per-graph fixed costs dominate",
       [](Env& env, MetricSet& m) { run_exec(env, kFineSpec, m); }},
      {"sim-gaussian",
       "Gaussian elimination (Table II) through nexus++, nexus-banked and "
       "software-rts: host speed of the simulators, goldens pinned",
       [](Env& env, MetricSet& m) { run_sim(env, m); }},
      {"runtime-stencil",
       "3-point stencil of ~2-3 us callables on starss::Runtime, "
       "checksum-verified: the user-facing runtime API",
       [](Env& env, MetricSet& m) { run_runtime(env, m); }},
  };
  return defs;
}

void write_sim_golden(const std::string& path) {
  const Trace trace = make_trace(kGaussianSpec);
  Golden golden;
  golden.spec = kGaussianSpec;
  for (const std::uint32_t workers : {kSimWorkers, 1u}) {
    for (const std::string& name : sim_engines()) {
      const TimedRun r = sim_run(name, trace, workers);
      const std::string problem = check_completed(r.report, trace->size());
      if (!problem.empty()) {
        throw std::runtime_error(name + " on " + kGaussianSpec + ": " +
                                 problem);
      }
      golden.entries.push_back(golden_of(r.report, workers));
    }
  }
  write_golden(path, golden);
}

}  // namespace nexuspp::perfbench
