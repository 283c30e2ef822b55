#pragma once
// Shared pieces of the perfbench binary: wall clock helpers, order
// statistics, the failure ledger behind `ok_frac`, the metric list the
// final JSON line is built from, and the in-memory span recorder of the
// traced pass.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nexuspp::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) noexcept {
  return ns_between(t0, Clock::now()) * 1e-9;
}

// --- Order statistics --------------------------------------------------------

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinTail = 10;

/// Linear interpolation between closest ranks (numpy's default), q in [0,1].
/// Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// True when `n` samples leave at least kMinTail samples beyond the q-th
/// percentile, i.e. n * (1 - q) >= kMinTail.
[[nodiscard]] bool tail_supported(std::size_t n, double q) noexcept;

/// Graphs on each side of a sample in level_corrected_percentile.
inline constexpr std::size_t kLevelHalfWindow = 10;

/// The q-th percentile of a time-ordered series with slow level shifts
/// taken out: each sample is divided by the median of the samples at most
/// kLevelHalfWindow places from it (itself included), the q-th percentile
/// of those ratios is taken, and that is scaled by the median of the whole
/// series. Short outliers count in full; a stretch of uniformly slower
/// samples longer than the window only moves the result through the
/// median. Empty input gives 0.
[[nodiscard]] double level_corrected_percentile(
    const std::vector<double>& series, double q);

/// Highest of p50, p90, p99, p99.9 that `n` samples support; nullopt when
/// not even the median has kMinTail samples beyond it.
[[nodiscard]] std::optional<double> highest_supported_percentile(
    std::size_t n) noexcept;

// --- Failure accounting ------------------------------------------------------

/// Counts attempted and failed graphs. A failure keeps its reason; the
/// first few are printed with the result.
class Ledger {
 public:
  /// Records one graph.
  void record(bool ok, std::string_view what);
  /// Records one graph whose check produced `problem` (empty = passed).
  void record_check(const std::string& problem, std::string_view what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] double failed_frac() const noexcept;
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

// --- Metrics -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (tracing off) and per-layer metrics (traced pass), in
/// print order. BENCHMARK.json lists exactly these names.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// True when `name` matches [A-Za-z0-9_.-]+ and starts with a letter or
/// digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Collected metric values of one run. set() rejects names missing from
/// the definition list; missing() names definitions never set.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs) : defs_(&defs) {}

  void set(const std::string& name, double value);
  [[nodiscard]] std::vector<std::string> missing() const;
  [[nodiscard]] std::optional<double> get(const std::string& name) const;
  /// `{"name": {"value": v, "unit": u}, ...}` in definition order.
  void write_json(std::ostream& out) const;

 private:
  const std::vector<MetricDef>* defs_;
  std::vector<std::pair<std::string, double>> values_;
};

// --- Spans -------------------------------------------------------------------

/// The benchmark's own spans around every layer call of the traced pass:
/// name, start, end, parent and the graph they belong to. Kept in memory;
/// written out once when the run ends. Single-threaded (the main thread
/// opens every span). Disabled recorders cost one branch per span.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a new graph id; spans opened afterwards carry it.
  void next_graph() noexcept { ++graph_; }

  [[nodiscard]] std::int64_t open(const char* name);
  void close(std::int64_t id);

  /// One JSON object per line: id, name, graph, parent, start_ns, end_ns.
  void write_jsonl(std::ostream& out) const;

  /// Per-name totals of span time and self time (span minus the part its
  /// children cover), largest self time first, printed as a table.
  void print_self_times(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t graph;
    std::int64_t parent;
    double start_ns;
    double end_ns;
  };
  Clock::time_point origin_;
  bool enabled_ = false;
  std::uint64_t graph_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span; inert when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name)
      : spans_(spans),
        id_(spans != nullptr && spans->enabled() ? spans->open(name) : -1) {}
  ScopedSpan(Spans& spans, const char* name) : ScopedSpan(&spans, name) {}
  ~ScopedSpan() {
    if (id_ >= 0) spans_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  std::int64_t id_;
};

// --- Host --------------------------------------------------------------------

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Mean cost of one steady_clock::now() call, measured on `threads`
/// threads at once (ns per call per thread).
[[nodiscard]] double clock_read_ns(unsigned threads);

}  // namespace nexuspp::perfbench
