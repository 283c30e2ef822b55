#pragma once
// Task trace model.
//
// The paper's evaluation is trace-driven: each task record carries its
// input/output list plus the time it spent executing and the time it spent
// moving data to/from off-chip memory on the Cell processor. We do not have
// the original Cell trace (see DESIGN.md substitutions), so records carry
// the *byte volume* read and written; the memory model converts bytes to
// time (12 ns per 128-byte chunk), which is exactly how the authors'
// numbers decompose. Synthetic generators matching the published means
// live in trace/synth.hpp and src/workloads.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace nexuspp::trace {

/// One task of a workload: descriptor content plus timing payload.
struct TaskRecord {
  std::uint64_t serial = 0;  ///< submission order
  std::uint64_t fn = 0;      ///< function pointer surrogate
  std::vector<core::Param> params;
  sim::Time exec_time = 0;        ///< pure computation time
  std::uint64_t read_bytes = 0;   ///< input volume fetched before running
  std::uint64_t write_bytes = 0;  ///< output volume written after running

  [[nodiscard]] friend bool operator==(const TaskRecord&,
                                       const TaskRecord&) = default;
};

/// Pull-based task source. The master-core model consumes tasks on demand,
/// so multi-million-task workloads (Gaussian 5000 x 5000: 12.5M tasks)
/// never need to be materialized.
class TaskStream {
 public:
  virtual ~TaskStream() = default;

  /// Next task in submission order; nullopt when exhausted.
  virtual std::optional<TaskRecord> next() = 0;

  /// Total number of tasks this stream will produce.
  [[nodiscard]] virtual std::uint64_t total_tasks() const = 0;
};

/// TaskStream over a shared, pre-materialized vector of records. Cheap to
/// construct per run; the underlying trace is shared between runs.
class VectorStream final : public TaskStream {
 public:
  explicit VectorStream(std::shared_ptr<const std::vector<TaskRecord>> tasks)
      : tasks_(std::move(tasks)) {}

  std::optional<TaskRecord> next() override {
    if (cursor_ >= tasks_->size()) return std::nullopt;
    return (*tasks_)[cursor_++];
  }

  [[nodiscard]] std::uint64_t total_tasks() const override {
    return tasks_->size();
  }

 private:
  std::shared_ptr<const std::vector<TaskRecord>> tasks_;
  std::size_t cursor_ = 0;
};

/// Convenience: wraps a plain vector (copied once) in a stream.
[[nodiscard]] std::unique_ptr<VectorStream> make_vector_stream(
    std::vector<TaskRecord> tasks);

/// Ordered key/value provenance block carried by serialized traces (docs/
/// TRACE_FORMAT.md §3). Keys are non-empty tokens without whitespace;
/// values are free text without newlines. Readers must preserve entries
/// they do not understand (forward compatibility within a format major
/// version rides on new meta keys, never on new record kinds).
class TraceMeta {
 public:
  /// Well-known keys written by the capture pipeline. kParams is the
  /// human-readable label; the individual knob keys below it are the
  /// machine-readable values replay tools default from.
  static constexpr const char* kWorkload = "workload";  ///< generator spec
  static constexpr const char* kEngine = "engine";      ///< capturing engine
  static constexpr const char* kParams = "params";      ///< EngineParams label
  static constexpr const char* kCapturedBy = "captured-by";  ///< tool name
  static constexpr const char* kWorkers = "workers";    ///< capture cores
  static constexpr const char* kMatchMode = "match-mode";
  static constexpr const char* kBanks = "banks";
  static constexpr const char* kThreads = "threads";  ///< exec worker pool
  static constexpr const char* kKernel = "kernel";  ///< exec kernel body

  /// Replaces the first entry with this key, or appends a new one.
  /// Throws std::invalid_argument on malformed keys/values (see class doc).
  void set(std::string key, std::string value);

  /// Value of the first entry with this key; nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] friend bool operator==(const TraceMeta&,
                                       const TraceMeta&) = default;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// A serializable trace: provenance metadata plus the task records in
/// submission order. This is the unit the capture/replay pipeline moves
/// around; engines themselves only ever see the record stream.
struct Trace {
  TraceMeta meta;
  std::vector<TaskRecord> tasks;

  [[nodiscard]] friend bool operator==(const Trace&, const Trace&) = default;
};

/// Aggregate statistics over a trace (used by tests and report preambles).
struct TraceSummary {
  std::uint64_t tasks = 0;
  double mean_exec_ns = 0.0;
  double mean_read_bytes = 0.0;
  double mean_write_bytes = 0.0;
  double mean_params = 0.0;
  std::size_t max_params = 0;
  /// Distinct parameter base addresses in the trace.
  std::uint64_t distinct_bases = 0;
  /// Bases whose access range partially overlaps some other base's range
  /// without sharing it. Nonzero means base-address dependency matching
  /// is blind to part of this trace's hazards (core::MatchMode::kRange
  /// exists for exactly these traces); all fixed-block generators score 0.
  std::uint64_t partially_overlapping_bases = 0;
};
[[nodiscard]] TraceSummary summarize(const std::vector<TaskRecord>& tasks);

}  // namespace nexuspp::trace
