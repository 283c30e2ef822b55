#include "graphs.hpp"

#include <cstdint>

#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "exec/spin.hpp"
#include "runtime/runtime.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workloads/library.hpp"

namespace nexuspp::perfbench {

Trace make_trace(const std::string& spec) {
  return workloads::WorkloadLibrary::builtins().make_trace(spec);
}

double total_exec_ns(const std::vector<trace::TaskRecord>& t) {
  double sum = 0.0;
  for (const auto& r : t) sum += sim::to_ns(r.exec_time);
  return sum;
}

TimedRun exec_graph(const Trace& trace, std::uint32_t threads,
                    std::uint32_t events_per_track) {
  engine::EngineParams params;
  params.num_workers = threads;
  params.threads = threads;
  if (events_per_track > 0) {
    params.timeline.enabled = true;
    params.timeline.events_per_track = events_per_track;
  }
  TimedRun out;
  const auto t0 = Clock::now();
  const auto eng = engine::EngineRegistry::builtins().make("exec-threads",
                                                           params);
  out.report = eng->run(std::make_unique<trace::VectorStream>(trace));
  out.wall_s = seconds_since(t0);
  return out;
}

const std::vector<std::string>& sim_engines() {
  static const std::vector<std::string> names = {"nexus++", "nexus-banked",
                                                 "software-rts"};
  return names;
}

TimedRun sim_run(const std::string& engine, const Trace& trace,
                 std::uint32_t workers) {
  engine::EngineParams params;
  params.num_workers = workers;
  if (engine == "nexus-banked") params.banks = 4;
  TimedRun out;
  const auto t0 = Clock::now();
  const auto eng = engine::EngineRegistry::builtins().make(engine, params);
  out.report = eng->run(std::make_unique<trace::VectorStream>(trace));
  out.wall_s = seconds_since(t0);
  return out;
}

// --- Stencil -----------------------------------------------------------------

namespace {

/// Multiply-add steps per cell update: a dependent chain of ~2-3 us on a
/// current x86 core, so the bodies are a few times the runtime's per-task
/// cost.
constexpr int kInnerSteps = 800;

/// Times a callable into `timing->body_ns` when timing is on.
template <typename F>
void timed_body(RuntimeTiming* timing, F&& body) {
  if (timing == nullptr) {
    body();
    return;
  }
  const auto t0 = Clock::now();
  body();
  timing->body_ns.fetch_add(
      static_cast<std::uint64_t>(ns_between(t0, Clock::now())),
      std::memory_order_relaxed);
}

/// Submits through `rt`, timing the call when timing is on.
void timed_submit(starss::Runtime& rt, RuntimeTiming* timing,
                  starss::Runtime::TaskFn fn,
                  std::vector<starss::Access> accesses) {
  if (timing == nullptr) {
    rt.submit(std::move(fn), std::move(accesses));
    return;
  }
  const auto t0 = Clock::now();
  rt.submit(std::move(fn), std::move(accesses));
  timing->submit_ns.push_back(ns_between(t0, Clock::now()));
}

/// Runs `submit_all` on a Runtime of `threads` workers, timing its whole
/// lifetime into the return value and its phases into `timing`.
template <typename F>
double runtime_lifetime(unsigned threads, RuntimeTiming* timing,
                        F&& submit_all) {
  Spans* const spans = timing != nullptr ? timing->spans : nullptr;
  const auto t0 = Clock::now();
  std::unique_ptr<starss::Runtime> rt;
  {
    const ScopedSpan span(spans, "runtime.ctor");
    rt = std::make_unique<starss::Runtime>(threads);
  }
  const auto t_built = Clock::now();
  {
    const ScopedSpan span(spans, "runtime.submit_all");
    submit_all(*rt);
  }
  const auto t_submitted = Clock::now();
  {
    const ScopedSpan span(spans, "runtime.wait_all");
    rt->wait_all();
  }
  const auto t_drained = Clock::now();
  if (timing != nullptr) {
    const auto stats = rt->stats();
    timing->executed = stats.executed;
    timing->max_concurrency = stats.max_concurrency;
    timing->ctor_ns = ns_between(t0, t_built);
    timing->drain_ns = ns_between(t_submitted, t_drained);
  }
  {
    const ScopedSpan span(spans, "runtime.dtor");
    rt.reset();
  }
  if (timing != nullptr) timing->dtor_ns = ns_between(t_drained, Clock::now());
  return seconds_since(t0);
}

}  // namespace

Stencil::Stencil(std::uint32_t width, std::uint32_t steps, std::uint64_t seed)
    : width_(width), steps_(steps), initial_(width) {
  util::SplitMix64 rng(seed);
  for (double& v : initial_) {
    v = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
  std::vector<double> cur = initial_;
  std::vector<double> nxt(width_);
  for (std::uint32_t s = 0; s < steps_; ++s) {
    for (std::uint32_t i = 0; i < width_; ++i) {
      nxt[i] = update(cur[i == 0 ? i : i - 1], cur[i],
                      cur[i + 1 == width_ ? i : i + 1]);
    }
    cur.swap(nxt);
  }
  reference_ = std::move(cur);
}

double Stencil::update(double left, double centre, double right) noexcept {
  double v = 0.25 * left + 0.5 * centre + 0.25 * right;
  for (int k = 0; k < kInnerSteps; ++k) v = v * 0.9999999 + 1e-7;
  return v;
}

std::vector<double> Stencil::run(unsigned threads, double& wall_s,
                                 RuntimeTiming* timing) const {
  std::vector<double> buf[2] = {initial_, std::vector<double>(width_)};
  if (timing != nullptr) timing->submit_ns.reserve(tasks());
  wall_s = runtime_lifetime(threads, timing, [&](starss::Runtime& rt) {
    for (std::uint32_t s = 0; s < steps_; ++s) {
      const double* src = buf[s % 2].data();
      double* dst = buf[(s + 1) % 2].data();
      for (std::uint32_t i = 0; i < width_; ++i) {
        const std::uint32_t l = i == 0 ? i : i - 1;
        const std::uint32_t r = i + 1 == width_ ? i : i + 1;
        std::vector<starss::Access> acc;
        acc.reserve(4);
        if (l != i) acc.push_back(starss::in(src + l));
        acc.push_back(starss::in(src + i));
        if (r != i) acc.push_back(starss::in(src + r));
        acc.push_back(starss::out(dst + i));
        timed_submit(rt, timing, [src, dst, i, l, r, timing] {
          timed_body(timing, [&] { dst[i] = update(src[l], src[i], src[r]); });
        }, std::move(acc));
      }
    }
  });
  return std::move(buf[steps_ % 2]);
}

double runtime_trace_graph(const std::vector<trace::TaskRecord>& t,
                           unsigned threads, RuntimeTiming& timing) {
  timing.submit_ns.reserve(t.size());
  return runtime_lifetime(threads, &timing, [&](starss::Runtime& rt) {
    for (const trace::TaskRecord& rec : t) {
      std::vector<starss::Access> acc;
      acc.reserve(rec.params.size());
      for (const core::Param& p : rec.params) {
        acc.push_back(starss::Access{
            reinterpret_cast<const void*>(static_cast<std::uintptr_t>(p.addr)),
            p.size, p.mode});
      }
      const auto ns = static_cast<std::uint64_t>(sim::to_ns(rec.exec_time));
      timed_submit(rt, &timing, [ns, &timing] {
        timed_body(&timing, [ns] { exec::spin_for_ns(ns); });
      }, std::move(acc));
    }
  });
}

}  // namespace nexuspp::perfbench
