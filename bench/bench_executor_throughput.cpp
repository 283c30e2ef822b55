// Real-execution throughput: the exec-threads backend actually running
// task graphs on worker threads, next to the simulated engines' predicted
// makespans on the same streams.
//
// Grid per workload:
//   exec-threads x threads {1, 2, 4, 8} x shards (banks) {1, 4} — one
//   speedup series with threads=1/banks=1 as baseline, so the speedup
//   column reads as *measured* parallel scaling, and the tasks/sec,
//   per-worker-utilization and lock-contention columns show where it goes.
//   nexus++ / software-rts (8 workers) — their own series; their makespan
//   column is simulated (predicted) time for the same stream, the number
//   the real wall-clock makespan of exec-threads sits next to.
//
// Four workload regimes:
//   wavefront  — ~11.8 us kernels on a wide H.264-style frontier: the
//                scaling showcase (the ready queue stays deep, so worker
//                kernels overlap).
//   fine-dag   — 250 ns kernels on a chain-heavy random DAG: resolver-
//                bound, the regime where the master's per-task
//                registration and release cost decides throughput.
//   fine-stream — ~100 ns kernels, wide fan-in (up to 6 params/task):
//                kernels are noise, resolution *is* the workload.
//   tiled-cholesky — the application-shaped factorization DAG.
//
// NEXUSPP_BENCH_TIMELINE=out.json additionally records a task timeline of
// the fine-stream 4-thread / 4-shard point (the CI artifact).
//
// Measured scaling is bounded by the *host's* cores — that is the point of
// a real backend. On a starved host the wavefront rows still overlap
// (deadline-based kernels progress while descheduled, as long as the
// frontier is deeper than the scheduler quantum), while chain-heavy DAGs
// collapse toward serial; the simulated rows show what a machine with as
// many free cores as `workers` would do with the same streams.
//
// Unlike the simulation benches this one runs its points *serially*
// (sweep threads = 1): concurrent points would time-share cores with the
// executor under measurement and corrupt the wall-clock numbers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "engine/sweep.hpp"
#include "workloads/factorization.hpp"
#include "workloads/library.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

int run() {
  const auto wavefront_tasks =
      workloads::WorkloadLibrary::builtins().make_trace(
          bench::full_mode() ? "h264:rows=120,cols=68" : "h264:rows=64,cols=48");

  workloads::RandomDagConfig fine;
  fine.num_tasks = bench::full_mode() ? 20'000 : 4'000;
  fine.addr_space = 96;
  fine.timing.mean_exec_ns = 250.0;
  fine.timing.mean_mem_ns = 100.0;
  const auto fine_tasks = make_random_dag_trace(fine);

  // Resolution-bound: kernels of ~100 ns under a deep dependence web mean
  // nearly all wall clock is spent inside the resolver shards.
  workloads::RandomDagConfig fine_stream;
  fine_stream.num_tasks = bench::full_mode() ? 30'000 : 6'000;
  fine_stream.addr_space = 48;  // dense RAW/WAR/WAW web
  fine_stream.max_params = 6;
  fine_stream.write_prob = 0.5;
  fine_stream.timing.mean_exec_ns = 100.0;
  fine_stream.timing.mean_mem_ns = 50.0;
  const auto fine_stream_tasks = make_random_dag_trace(fine_stream);

  workloads::FactorizationConfig chol;
  chol.tiles = bench::full_mode() ? 12 : 8;
  chol.tile_elems = 32;
  const auto chol_tasks = workloads::make_cholesky_trace(chol);

  engine::SweepSpec spec;
  spec.workload("wavefront", [&wavefront_tasks] {
    return std::make_unique<trace::VectorStream>(wavefront_tasks);
  });
  spec.workload("fine-dag", [&fine_tasks] {
    return std::make_unique<trace::VectorStream>(fine_tasks);
  });
  spec.workload("fine-stream", [&fine_stream_tasks] {
    return std::make_unique<trace::VectorStream>(fine_stream_tasks);
  });
  spec.workload("tiled-cholesky", [&chol_tasks] {
    return std::make_unique<trace::VectorStream>(chol_tasks);
  });

  const bool want_timeline = std::getenv("NEXUSPP_BENCH_TIMELINE") != nullptr;
  for (const char* workload :
       {"wavefront", "fine-dag", "fine-stream", "tiled-cholesky"}) {
    bool first = true;
    for (const std::uint32_t banks : {1u, 4u}) {
      for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        engine::PointSpec p;
        p.engine = "exec-threads";
        p.workload = workload;
        p.params.threads = threads;
        p.params.banks = banks;
        p.params.timeline.enabled = want_timeline &&
                                    std::string(workload) == "fine-stream" &&
                                    threads == 4 && banks == 4;
        p.series = std::string(workload) + "/real";
        p.baseline = first;
        first = false;
        p.label = std::to_string(threads) + " thr / " +
                  std::to_string(banks) + (banks == 1 ? " shard" : " shards");
        spec.point(p);
      }
    }
    for (const char* sim_engine : {"nexus++", "software-rts"}) {
      engine::PointSpec p;
      p.engine = sim_engine;
      p.workload = workload;
      p.params.num_workers = 8;
      p.series = std::string(workload) + "/" + sim_engine;
      p.baseline = true;
      p.label = std::string(sim_engine) + " (simulated; 8w)";
      spec.point(p);
    }
  }

  // Serial execution: one point at a time owns the machine.
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  const auto results = driver.run(spec);

  if (const char* timeline_path = std::getenv("NEXUSPP_BENCH_TIMELINE")) {
    const auto written =
        engine::SweepDriver::export_timelines(results, timeline_path);
    for (const auto& path : written) {
      std::fprintf(stderr, "[timeline] wrote %s\n", path.c_str());
    }
  }

  bench::emit(
      "Real vs simulated throughput (exec-threads wall clock; simulated "
      "rows are predicted time)",
      results,
      {{"tasks/sec",
        [](const engine::SweepResult& r) {
          return r.report.exec_tasks_per_sec > 0.0
                     ? util::fmt_f(r.report.exec_tasks_per_sec, 0)
                     : std::string("-");
        }},
       {"lock cont.",
        [](const engine::SweepResult& r) {
          if (r.report.exec_lock_acquisitions == 0) return std::string("-");
          return util::fmt_count(r.report.exec_lock_contentions) + "/" +
                 util::fmt_count(r.report.exec_lock_acquisitions);
        }},
       {"worker util min-max",
        [](const engine::SweepResult& r) {
          const auto& per_worker = r.report.exec_worker_utilization;
          if (per_worker.empty()) return std::string("-");
          const auto [lo, hi] =
              std::minmax_element(per_worker.begin(), per_worker.end());
          return util::fmt_f(100.0 * *lo, 0) + "-" +
                 util::fmt_f(100.0 * *hi, 0) + "%";
        }}});

  bench::note(
      "Expected shape: wavefront's wide frontier overlaps kernels, so its "
      "wall-clock makespan falls with threads (up to the host's cores); "
      "fine-dag and fine-stream are bound by the master, which registers "
      "and releases every task, so their tasks/sec moves little with "
      "threads beyond the first few, and the lock-contention column stays "
      "at 0 (workers never touch the shards); worker utilization counts "
      "kernel time only; the "
      "simulated rows are predicted time for a machine with `workers` "
      "free cores, the yardstick the measured rows sit next to.");
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
