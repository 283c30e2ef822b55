#include "obs/timeline.hpp"

#include <algorithm>
#include <utility>

namespace nexuspp::obs {

namespace {

thread_local TimelineRecorder* t_recorder = nullptr;
thread_local std::uint32_t t_track = 0;

}  // namespace

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kStall: return "stall";
    case EventKind::kReady: return "ready";
    case EventKind::kRun: return "run";
    case EventKind::kFinish: return "finish";
    case EventKind::kRelease: return "release";
    case EventKind::kLockWait: return "lock-wait";
    case EventKind::kInFlight: return "in-flight";
    case EventKind::kReadyDepth: return "ready-depth";
  }
  return "unknown";
}

const char* category(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit:
    case EventKind::kStall:
    case EventKind::kReady:
    case EventKind::kRun:
    case EventKind::kFinish:
    case EventKind::kRelease:
      return "task";
    case EventKind::kLockWait:
      return "sync";
    case EventKind::kInFlight:
    case EventKind::kReadyDepth:
      return "counter";
  }
  return "task";
}

bool is_counter(EventKind kind) noexcept {
  return kind == EventKind::kInFlight || kind == EventKind::kReadyDepth;
}

bool is_span(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmit:
    case EventKind::kStall:
    case EventKind::kRun:
    case EventKind::kRelease:
    case EventKind::kLockWait:
      return true;
    default:
      return false;
  }
}

std::uint64_t Timeline::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const TimelineTrack& track : tracks) n += track.events.size();
  return n;
}

std::uint64_t Timeline::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const TimelineTrack& track : tracks) n += track.dropped;
  return n;
}

TimelineRecorder::TimelineRecorder(std::string process, std::string clock,
                                   std::uint32_t events_per_track)
    : process_(std::move(process)),
      clock_(std::move(clock)),
      capacity_(events_per_track == 0 ? 1 : events_per_track),
      origin_(std::chrono::steady_clock::now()) {}

std::uint32_t TimelineRecorder::add_track(std::string name) {
  Ring ring;
  ring.name = std::move(name);
  ring.events.resize(capacity_);
  rings_.push_back(std::move(ring));
  return static_cast<std::uint32_t>(rings_.size() - 1);
}

Timeline TimelineRecorder::finish() && {
  Timeline timeline;
  timeline.process = std::move(process_);
  timeline.clock = std::move(clock_);
  timeline.tracks.reserve(rings_.size());
  for (Ring& ring : rings_) {
    TimelineTrack track;
    track.name = std::move(ring.name);
    ring.events.resize(ring.count);
    track.events = std::move(ring.events);
    track.dropped = ring.dropped;
    // Enclosing spans are recorded when they close, so append order is not
    // timestamp order; a stable sort restores it while keeping same-ts
    // events (finish + grants) in their causal record order.
    std::stable_sort(track.events.begin(), track.events.end(),
                     [](const TimelineEvent& a, const TimelineEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    timeline.tracks.push_back(std::move(track));
  }
  rings_.clear();
  return timeline;
}

ThreadTrackScope::ThreadTrackScope(TimelineRecorder* recorder,
                                   std::uint32_t track) noexcept
    : prev_recorder_(t_recorder), prev_track_(t_track) {
  t_recorder = recorder;
  t_track = track;
}

ThreadTrackScope::~ThreadTrackScope() {
  t_recorder = prev_recorder_;
  t_track = prev_track_;
}

bool here_enabled() noexcept { return t_recorder != nullptr; }

// NEXUS_HOT_PATH
double here_now_ns() noexcept {
  return t_recorder != nullptr ? t_recorder->now_ns() : 0.0;
}

// NEXUS_HOT_PATH
void record_here(EventKind kind, double ts_ns, double dur_ns,
                 std::uint64_t task, std::uint64_t arg) noexcept {
  if (t_recorder != nullptr) {
    t_recorder->record(t_track, kind, ts_ns, dur_ns, task, arg);
  }
}

}  // namespace nexuspp::obs
