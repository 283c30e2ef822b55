#include "obs/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace nexuspp::obs {

namespace {

void write_escaped(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Doubles rounded to 6 decimals of a microsecond (picosecond resolution)
/// so integer simulator timestamps round-trip exactly — coarser rounding
/// makes back-to-back spans look partially overlapped to schema checkers.
/// Written as plain decimal, never exponent form.
void write_us(std::ostream& out, double ns) {
  const double us = ns / 1000.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", us);
  out << buffer;
}

void write_event_prefix(std::ostream& out, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "    ";
}

void write_metadata(std::ostream& out, bool& first, const char* name,
                    std::uint32_t pid, std::uint32_t tid,
                    const std::string& value) {
  write_event_prefix(out, first);
  out << "{\"ph\":\"M\",\"ts\":0,\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << name << "\",\"args\":{\"name\":";
  write_escaped(out, value);
  out << "}}";
}

void write_metric(std::ostream& out, const Metric& metric) {
  out << "{\"name\":";
  write_escaped(out, metric.name);
  out << ",\"kind\":\"" << to_string(metric.kind) << "\"";
  if (metric.kind == MetricKind::kHistogram) {
    out << ",\"count\":" << metric.count << ",\"sum\":" << metric.sum
        << ",\"quantiles\":{";
    bool first = true;
    for (const auto& [q, v] : metric.quantiles) {
      if (!first) out << ",";
      first = false;
      out << "\"p" << static_cast<int>(q * 100.0 + 0.5) << "\":" << v;
    }
    out << "}";
  } else {
    out << ",\"value\":" << metric.value;
  }
  out << "}";
}

}  // namespace

void write_chrome_trace(const Timeline& timeline, std::ostream& out,
                        const TraceExportOptions& options) {
  const std::uint32_t pid = options.pid;
  out << "{\n  \"displayTimeUnit\": \"ns\",\n";
  out << "  \"otherData\": {\"clock\": \"" << timeline.clock << "\"},\n";
  if (options.metrics != nullptr) {
    out << "  \"metrics\": [";
    bool first = true;
    for (const Metric& metric : options.metrics->snapshot()) {
      if (!first) out << ", ";
      first = false;
      write_metric(out, metric);
    }
    out << "],\n";
  }
  out << "  \"traceEvents\": [\n";

  bool first = true;
  write_metadata(out, first, "process_name", pid, 0,
                 timeline.process + " [" + timeline.clock + " clock]");
  for (std::size_t t = 0; t < timeline.tracks.size(); ++t) {
    write_metadata(out, first, "thread_name", pid,
                   static_cast<std::uint32_t>(t + 1), timeline.tracks[t].name);
  }

  for (std::size_t t = 0; t < timeline.tracks.size(); ++t) {
    const std::uint32_t tid = static_cast<std::uint32_t>(t + 1);
    for (const TimelineEvent& event : timeline.tracks[t].events) {
      write_event_prefix(out, first);
      const char* name = to_string(event.kind);
      if (is_counter(event.kind)) {
        out << "{\"ph\":\"C\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"name\":\""
            << name << "\",\"cat\":\"counter\",\"args\":{\"value\":"
            << event.arg << "}}";
      } else if (is_span(event.kind)) {
        out << "{\"ph\":\"X\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"dur\":";
        write_us(out, event.dur_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"name\":\""
            << name << "\",\"cat\":\"" << category(event.kind)
            << "\",\"args\":{\"task\":" << event.task;
        if (event.kind == EventKind::kLockWait) {
          out << ",\"shard\":" << event.arg;
        }
        out << "}}";
      } else {
        out << "{\"ph\":\"i\",\"ts\":";
        write_us(out, event.ts_ns);
        out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"s\":\"t\""
            << ",\"name\":\"" << name << "\",\"cat\":\""
            << category(event.kind) << "\",\"args\":{\"task\":" << event.task;
        if (event.kind == EventKind::kReady) {
          if (event.arg == kNoPred) {
            out << ",\"pred\":\"none\"";
          } else {
            out << ",\"pred\":" << event.arg;
          }
        }
        out << "}}";
      }
    }
  }

  out << "\n  ],\n";
  out << "  \"otherStats\": {\"events\": " << timeline.total_events()
      << ", \"dropped\": " << timeline.total_dropped() << "}\n";
  out << "}\n";
}

bool save_chrome_trace(const Timeline& timeline, const std::string& path,
                       const TraceExportOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_chrome_trace(timeline, out, options);
  return out.good();
}

}  // namespace nexuspp::obs
