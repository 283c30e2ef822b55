// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//   perfbench --list-metrics
//   perfbench --write-golden <path>
//
// Prints a human-readable report and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. perfbench/run.py
// builds this program and is the command BENCHMARK.json names; NOTES.md
// explains the workloads and metrics.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "core/observer.hpp"
#include "engine/engine.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "exec/spin.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace nexuspp::perfbench {
namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject bad-order|bad-checksum|"
               "golden-mismatch] [--min-graphs <n>] [--golden <path>] "
               "[--out <dir>]\n"
               "       perfbench --self-test | --list-metrics | "
               "--write-golden <path>\n";
  return 2;
}

// --- Self-test ---------------------------------------------------------------

struct SelfTest {
  int checks = 0;
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cout << "  FAIL: " << what << '\n';
    }
  }
};

void test_percentiles(SelfTest& t) {
  t.expect(percentile({}, 0.5) == 0.0, "percentile of nothing is 0");
  t.expect(median({3, 1, 2}) == 2.0, "median of an odd sample");
  t.expect(median({4, 1, 3, 2}) == 2.5, "median interpolates");
  t.expect(percentile({1, 2, 3, 4, 5}, 0.0) == 1.0, "p0 is the minimum");
  t.expect(percentile({1, 2, 3, 4, 5}, 1.0) == 5.0, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  t.expect(percentile(hundred, 0.9) == 91.0, "p90 of 1..101 is 91");
  t.expect(!tail_supported(99, 0.9), "99 samples leave 9.9 beyond p90");
  t.expect(tail_supported(100, 0.9), "100 samples leave 10 beyond p90");
  t.expect(tail_supported(1000, 0.99), "1000 samples leave 10 beyond p99");
  t.expect(!tail_supported(999, 0.99), "999 samples leave 9.99 beyond p99");
  t.expect(!highest_supported_percentile(19).has_value(),
           "19 samples support no percentile");
  t.expect(highest_supported_percentile(20) == 0.5, "20 samples support p50");
  t.expect(highest_supported_percentile(99) == 0.5, "99 samples: p50 only");
  t.expect(highest_supported_percentile(100) == 0.9, "100 samples: p90");
  t.expect(highest_supported_percentile(10000) == 0.999, "10000: p99.9");

  // Level-corrected p90: every tenth graph is 30% slow (a tail the program
  // causes), and a stretch of 40 graphs runs 40% slow (the host).
  std::vector<double> walls;
  for (int i = 0; i < 200; ++i) walls.push_back(i % 10 == 0 ? 130.0 : 100.0);
  const double flat = level_corrected_percentile(walls, 0.9);
  t.expect(std::abs(flat - percentile(walls, 0.9)) < 1e-9,
           "without level shifts the corrected p90 is the plain p90");
  t.expect(flat > 100.0, "a tail in one graph of ten shows in the p90");
  std::vector<double> doubled = walls;
  for (double& w : doubled) w *= 2.0;
  t.expect(std::abs(level_corrected_percentile(doubled, 0.9) - 2.0 * flat) <
               1e-9,
           "uniformly slower graphs scale the corrected p90");
  std::vector<double> shifted = walls;
  for (int i = 50; i < 90; ++i) shifted[i] *= 1.4;
  t.expect(std::abs(level_corrected_percentile(shifted, 0.9) - flat) <
               0.05 * flat,
           "a slow stretch moves the corrected p90 by under 5%");
  t.expect(percentile(shifted, 0.9) > 1.05 * flat,
           "the same stretch moves the plain p90 by over 5%");
  t.expect(level_corrected_percentile({}, 0.9) == 0.0,
           "corrected percentile of nothing is 0");
}

void test_metric_names(SelfTest& t) {
  std::vector<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      t.expect(valid_metric_name(d.name),
               std::string("metric name ") + d.name + " is valid");
      t.expect(std::find(seen.begin(), seen.end(), d.name) == seen.end(),
               std::string("metric name ") + d.name + " is unique");
      seen.emplace_back(d.name);
    }
  }
  t.expect(!valid_metric_name("bad name"), "a space is rejected");
  t.expect(!valid_metric_name(".leading"), "a leading dot is rejected");
  t.expect(!valid_metric_name(""), "an empty name is rejected");
}

/// Each check passes its control and fails its injected fault, and the
/// ledger counts exactly the injected faults: none of them is vacuous.
void test_failure_accounting(SelfTest& t) {
  Ledger ledger;

  const Trace trace = make_trace("h264:rows=6,cols=6,seed=3");
  exec::ExecConfig cfg;
  cfg.threads = 2;
  core::CompletionRecorder recorder;
  cfg.observer = &recorder;
  exec::ThreadedExecutor executor(cfg);
  const exec::ExecReport rep =
      executor.run(std::make_unique<trace::VectorStream>(trace));
  t.expect(!rep.deadlocked && rep.tasks_completed == trace->size(),
           "verification graph completes");
  std::vector<std::uint64_t> order = recorder.order();
  ledger.record_check(check_completion_order(*trace, cfg.match_mode, order),
                      "good order");
  std::reverse(order.begin(), order.end());
  ledger.record_check(check_completion_order(*trace, cfg.match_mode, order),
                      "bad order");

  const Stencil stencil(8, 4, 7);
  double wall = 0.0;
  std::vector<double> result = stencil.run(2, wall);
  ledger.record_check(check_values(result, stencil.reference()),
                      "good checksum");
  result[3] = std::nextafter(result[3], 2.0);
  ledger.record_check(check_values(result, stencil.reference()),
                      "bad checksum");

  const Trace g = make_trace("gaussian:n=12");
  const TimedRun run = sim_run("nexus++", g, 4);
  const Golden golden{"gaussian:n=12", {golden_of(run.report, 4)}};
  GoldenEntry got = golden_of(sim_run("nexus++", g, 4).report, 4);
  ledger.record_check(check_golden(got, golden), "golden match");
  ++got.makespan_ps;
  ledger.record_check(check_golden(got, golden), "golden mismatch");

  t.expect(ledger.attempted() == 6, "six outputs attempted");
  t.expect(ledger.failed() == 3, "exactly the three injected faults fail");
  t.expect(ledger.failed_frac() == 0.5, "failed_frac counts them");
  for (const std::string& r : ledger.reasons()) {
    t.expect(r.rfind("bad order", 0) == 0 || r.rfind("bad checksum", 0) == 0 ||
                 r.rfind("golden mismatch", 0) == 0,
             "failure is an injected one: " + r);
  }

  engine::RunReport done = run.report;
  t.expect(check_completed(done, g->size()).empty(), "complete run passes");
  done.tasks_completed -= 1;
  t.expect(!check_completed(done, g->size()).empty(), "a lost task fails");
  done = run.report;
  done.deadlocked = true;
  t.expect(!check_completed(done, g->size()).empty(), "a deadlock fails");
  GoldenEntry other = golden_of(run.report, 1);
  t.expect(!check_golden(other, golden).empty(),
           "a run with no golden entry fails");
}

int self_test() {
  SelfTest t;
  test_percentiles(t);
  test_metric_names(t);
  test_failure_accounting(t);
  std::cout << "self-test: " << t.checks << " checks, " << t.failures
            << " failed\n";
  return t.failures == 0 ? 0 : 1;
}

// --- Run -----------------------------------------------------------------------

void print_host_header(const Env& env) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  env.out << "host: nproc " << env.nproc << ", T = " << env.threads
          << " workers, seed " << env.opt.seed << ", compiler "
          << PERFBENCH_COMPILER << ", build " << build
          << (build == "Release" ? "" : "  ** NOT A RELEASE BUILD **") << '\n'
          << "workload: " << env.opt.workload << " ("
          << (env.opt.trace ? "traced pass" : "end-to-end, tracing off")
          << ", " << env.opt.seconds << " s)\n";
}

/// Measured after the workload, so neither the set-up time nor the timed
/// graphs see these calibrations.
void print_host_measurements(const Env& env) {
  env.out << std::setprecision(4) << "host: steady_clock::now() "
          << clock_read_ns(1) << " ns on 1 thread, " << clock_read_ns(env.threads)
          << " ns per thread on " << env.threads << "; spin_iters_per_us "
          << exec::spin_iters_per_us() << "; kernel_unit_ns";
  for (const auto kind :
       {exec::KernelKind::kComputeBound, exec::KernelKind::kMemoryBound,
        exec::KernelKind::kLoadImbalance, exec::KernelKind::kComputeDgemm}) {
    env.out << ' ' << exec::to_string(kind) << '=' << exec::kernel_unit_ns(kind);
  }
  env.out << '\n';
}

int run(Options opt, Clock::time_point start) {
  const std::vector<WorkloadDef>& defs = workload_defs();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == opt.workload;
  });
  if (def == defs.end()) return usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Env env(std::move(opt), start, std::cout);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  env.nproc = online > 0 ? static_cast<unsigned>(online)
                         : std::max(1u, std::thread::hardware_concurrency());
  env.threads = std::max(1u, env.nproc - 1);
  std::filesystem::create_directories(env.opt.out_dir);
  print_host_header(env);

  MetricSet metrics(env.opt.trace ? per_layer_metrics() : end_to_end_metrics());
  def->run(env, metrics);
  if (!env.opt.trace) {
    const double rss = peak_rss_mib();
    metrics.set("peak_rss_mb", rss);
    metrics.set("ok_frac", 1.0 - env.ledger.failed_frac());
    env.out << "  peak_rss_mb      = " << rss << " MiB\n";
  }
  print_host_measurements(env);

  env.out << "graphs: " << env.ledger.attempted() << " attempted, "
          << env.ledger.failed() << " failed (failed_frac "
          << env.ledger.failed_frac() << ")\n";
  const auto& reasons = env.ledger.reasons();
  for (std::size_t i = 0; i < reasons.size() && i < 10; ++i) {
    env.out << "  failure: " << reasons[i] << '\n';
  }
  const std::vector<std::string> missing = metrics.missing();
  for (const std::string& name : missing) {
    env.out << "  metric not measured: " << name << '\n';
  }
  const bool correct = env.ledger.failed() == 0 && missing.empty();
  env.out << "{\"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << env.ledger.attempted()
          << ", \"failed\": " << env.ledger.failed() << ", \"metrics\": ";
  metrics.write_json(env.out);
  env.out << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace nexuspp::perfbench

int main(int argc, char** argv) {
  using namespace nexuspp::perfbench;
  const auto start = Clock::now();
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      std::string key = args[i];
      std::string value;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      } else if (key == "--self-test" || key == "--list-metrics") {
        // flags without a value
      } else if (i + 1 < args.size()) {
        value = args[++i];
      } else {
        return usage("missing value for " + key);
      }
      if (key == "--self-test") return self_test();
      if (key == "--list-metrics") {
        for (const MetricDef& d : end_to_end_metrics()) {
          std::cout << "end_to_end " << d.name << ' ' << d.unit << '\n';
        }
        for (const MetricDef& d : per_layer_metrics()) {
          std::cout << "per_layer " << d.name << ' ' << d.unit << '\n';
        }
        return 0;
      }
      if (key == "--write-golden") {
        write_sim_golden(value);
        return 0;
      }
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--inject") {
        if (value != "bad-order" && value != "bad-checksum" &&
            value != "golden-mismatch") {
          return usage("unknown fault '" + value + "'");
        }
        opt.inject = value;
      } else if (key == "--min-graphs") {
        opt.min_graphs = std::max<std::size_t>(1, std::stoull(value));
      } else if (key == "--golden") {
        opt.golden_path = value;
      } else if (key == "--out") {
        opt.out_dir = value;
      } else {
        return usage("unknown option " + key);
      }
    }
    if (opt.workload.empty()) return usage("--workload is required");
    return run(std::move(opt), start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
