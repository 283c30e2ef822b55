#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>

namespace nexuspp::perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double level_corrected_percentile(const std::vector<double>& series,
                                  double q) {
  if (series.empty()) return 0.0;
  std::vector<double> ratios;
  ratios.reserve(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::size_t lo = i > kLevelHalfWindow ? i - kLevelHalfWindow : 0;
    const std::size_t hi = std::min(series.size(), i + kLevelHalfWindow + 1);
    const double local = median(std::vector<double>(
        series.begin() + static_cast<std::ptrdiff_t>(lo),
        series.begin() + static_cast<std::ptrdiff_t>(hi)));
    ratios.push_back(series[i] / local);
  }
  return median(series) * percentile(std::move(ratios), q);
}

bool tail_supported(std::size_t n, double q) noexcept {
  // Rounded to dodge 100 * (1 - 0.9) == 9.999999999999998.
  const double beyond = static_cast<double>(n) * (1.0 - q);
  return std::round(beyond * 1e6) / 1e6 >= static_cast<double>(kMinTail);
}

std::optional<double> highest_supported_percentile(std::size_t n) noexcept {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (tail_supported(n, q)) best = q;
  }
  return best;
}

void Ledger::record(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    reasons_.emplace_back(what);
  }
}

void Ledger::record_check(const std::string& problem, std::string_view what) {
  if (problem.empty()) {
    record(true, what);
  } else {
    record(false, std::string(what) + ": " + problem);
  }
}

double Ledger::failed_frac() const noexcept {
  return attempted_ == 0 ? 1.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"tasks_per_s", "tasks/s"},    {"graph_p90_ms", "ms"},
      {"tasks_per_s_1t", "tasks/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},        {"ok_frac", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"workloads.generate_ms", "ms"},
      {"exec.resolver.ctor_ms", "ms"},
      {"exec.resolver.submit_ns", "ns"},
      {"exec.resolver.finish_ns", "ns"},
      {"exec.resolver.stalls", "count"},
      {"exec.resolver.queued_frac", "ratio"},
      {"exec.resolver.probes_per_lookup", "count"},
      {"exec.kernel.overshoot_1t", "ratio"},
      {"exec.kernel.overshoot_nt", "ratio"},
      {"exec.executor.fixed_ms", "ms"},
      {"exec.executor.worker_util", "ratio"},
      {"exec.executor.submit_busy_frac", "ratio"},
      {"exec.executor.submit_stall_frac", "ratio"},
      {"exec.executor.lock_contention_frac", "ratio"},
      {"exec.executor.ready_queue_peak", "count"},
      {"exec.executor.turnaround_p50_us", "us"},
      {"exec.executor.turnaround_p99_us", "us"},
      {"exec.phase.submit_p50_ns", "ns"},
      {"exec.phase.submit_p99_ns", "ns"},
      {"exec.phase.queue_wait_p50_ns", "ns"},
      {"exec.phase.queue_wait_p99_ns", "ns"},
      {"exec.phase.kernel_p50_ns", "ns"},
      {"exec.phase.kernel_p99_ns", "ns"},
      {"exec.phase.release_p50_ns", "ns"},
      {"exec.phase.release_p99_ns", "ns"},
      {"exec.phase.stall_ms", "ms"},
      {"exec.phase.lock_wait_ms", "ms"},
      {"obs.critical_path_ms", "ms"},
      {"obs.resolution_overhead_frac", "ratio"},
      {"obs.tracing_overhead_frac", "ratio"},
      {"nexus.host_ns_per_task", "ns"},
      {"nexus.host_ns_per_event", "ns"},
      {"nexus.sim_events", "count"},
      {"bank.host_ns_per_task", "ns"},
      {"bank.host_ns_per_event", "ns"},
      {"rts.host_ns_per_task", "ns"},
      {"runtime.submit_ns", "ns"},
      {"runtime.drain_ms", "ms"},
      {"runtime.fixed_ms", "ms"},
      {"runtime.body_util", "ratio"},
      {"runtime.max_concurrency", "count"},
  };
  return defs;
}

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::set(const std::string& name, double value) {
  const bool known = std::any_of(defs_->begin(), defs_->end(),
                                 [&](const MetricDef& d) { return d.name == name; });
  if (!known) throw std::logic_error("unknown metric " + name);
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::vector<std::string> MetricSet::missing() const {
  std::vector<std::string> out;
  for (const MetricDef& d : *defs_) {
    if (!get(d.name).has_value()) out.emplace_back(d.name);
  }
  return out;
}

std::optional<double> MetricSet::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return std::nullopt;
}

void MetricSet::write_json(std::ostream& out) const {
  out << '{';
  bool first = true;
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const MetricDef& d : *defs_) {
    const auto v = get(d.name);
    if (!v.has_value()) continue;
    if (!first) out << ", ";
    first = false;
    out << '"' << d.name << "\": {\"value\": " << *v << ", \"unit\": \""
        << d.unit << "\"}";
  }
  out.flags(flags);
  out.precision(precision);
  out << '}';
}

std::int64_t Spans::open(const char* name) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, graph_, parent,
                        ns_between(origin_, Clock::now()), 0.0});
  stack_.push_back(id);
  return id;
}

void Spans::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      ns_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Spans::write_jsonl(std::ostream& out) const {
  out << std::fixed << std::setprecision(1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"graph\": " << s.graph << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

void Spans::print_self_times(std::ostream& out) const {
  // Children are closed before their parent, so one pass accumulating each
  // span's length into its parent's child total is enough.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += (s.end_ns - s.start_ns) * 1e-6;
    r.self_ms += (s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  out << "  " << std::left << std::setw(34) << "span" << std::right
      << std::setw(8) << "count" << std::setw(14) << "total_ms"
      << std::setw(14) << "self_ms" << '\n';
  out << std::fixed << std::setprecision(3);
  for (const auto& [name, r] : sorted) {
    out << "  " << std::left << std::setw(34) << name << std::right
        << std::setw(8) << r.count << std::setw(14) << r.total_ms
        << std::setw(14) << r.self_ms << '\n';
  }
  out.unsetf(std::ios::floatfield);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double clock_read_ns(unsigned threads) {
  constexpr int kCalls = 1 << 20;
  std::atomic<unsigned> arrived{0};
  std::vector<double> per_call(threads, 0.0);
  const auto body = [&](unsigned i) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < threads) {
    }
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int k = 0; k < kCalls; ++k) last = Clock::now();
    per_call[i] = ns_between(t0, last) / kCalls;
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(body, i);
  body(0);
  for (auto& t : pool) t.join();
  double sum = 0.0;
  for (const double v : per_call) sum += v;
  return sum / static_cast<double>(threads);
}

}  // namespace nexuspp::perfbench
