#pragma once
// One graph of each kind the benchmark runs, driven only through public
// entry points and timed from outside: an `exec-threads` Engine::run, a
// pass of the simulated engines, and a starss::Runtime lifetime over either
// a trace or the benchmark's own stencil.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/run_report.hpp"
#include "trace/trace.hpp"

namespace nexuspp::perfbench {

using Trace = std::shared_ptr<const std::vector<trace::TaskRecord>>;

/// Generates `spec` through workloads::WorkloadLibrary.
[[nodiscard]] Trace make_trace(const std::string& spec);

/// Requested kernel nanoseconds of a trace (sum of exec times).
[[nodiscard]] double total_exec_ns(const std::vector<trace::TaskRecord>& t);

struct TimedRun {
  engine::RunReport report;
  double wall_s = 0.0;
};

/// One `exec-threads` graph on `threads` workers with the engine's default
/// configuration, timed around engine construction plus Engine::run.
/// `events_per_track` > 0 enables the obs timeline with that ring size.
[[nodiscard]] TimedRun exec_graph(const Trace& trace, std::uint32_t threads,
                                  std::uint32_t events_per_track = 0);

/// The simulated engines of one pass, in pass order. nexus-banked runs
/// with 4 banks; classic-nexus is not among them (see NOTES.md).
[[nodiscard]] const std::vector<std::string>& sim_engines();

/// One simulated run of `engine` over `trace` with `workers` simulated
/// worker cores.
[[nodiscard]] TimedRun sim_run(const std::string& engine, const Trace& trace,
                               std::uint32_t workers);

/// Per-call timing a Runtime graph collects when asked to (traced pass).
struct RuntimeTiming {
  std::vector<double> submit_ns;          ///< one entry per submit() call
  std::atomic<std::uint64_t> body_ns{0};  ///< summed inside the callables
  double ctor_ns = 0.0;
  double drain_ns = 0.0;  ///< wait_all()
  double dtor_ns = 0.0;
  std::uint64_t executed = 0;
  unsigned max_concurrency = 0;
  /// Receives one span per Runtime call (construction, submission, wait_all,
  /// destruction) when set.
  Spans* spans = nullptr;
};

/// Double-buffered 3-point stencil run as starss::Runtime tasks: one task
/// per (step, cell), reading cells i-1, i, i+1 of one buffer and writing
/// cell i of the other.
class Stencil {
 public:
  Stencil(std::uint32_t width, std::uint32_t steps, std::uint64_t seed);

  [[nodiscard]] std::uint64_t tasks() const noexcept {
    return std::uint64_t{width_} * steps_;
  }
  /// Final buffer of the serial reference, computed once.
  [[nodiscard]] const std::vector<double>& reference() const noexcept {
    return reference_;
  }

  /// Runs the whole stencil on a fresh Runtime of `threads` workers and
  /// returns the final buffer. The Runtime lifetime (construction,
  /// submission, wait_all, destruction) is timed into `wall_s`.
  [[nodiscard]] std::vector<double> run(unsigned threads, double& wall_s,
                                        RuntimeTiming* timing = nullptr) const;

 private:
  [[nodiscard]] static double update(double left, double centre,
                                     double right) noexcept;

  std::uint32_t width_;
  std::uint32_t steps_;
  std::vector<double> initial_;
  std::vector<double> reference_;
};

/// Runs `trace` on a fresh starss::Runtime of `threads` workers: one task
/// per record, accesses taken from its parameters (base addresses), body a
/// spin for the record's exec time. Returns the lifetime wall seconds.
[[nodiscard]] double runtime_trace_graph(const std::vector<trace::TaskRecord>& t,
                                         unsigned threads,
                                         RuntimeTiming& timing);

}  // namespace nexuspp::perfbench
