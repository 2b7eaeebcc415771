#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <vector>

namespace speedlight::obs {

namespace {

/// SimTime ns -> trace-format microseconds with full ns precision.
void write_us(std::ostream& os, sim::SimTime ns) {
  const sim::SimTime us = ns / 1000;
  const sim::SimTime frac = ns % 1000 < 0 ? -(ns % 1000) : ns % 1000;
  os << us << '.';
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  os << "{\n"
     << "  \"displayTimeUnit\": \"ns\",\n"
     << "  \"otherData\": {\"tool\": \"speedlight\", "
        "\"schema\": \"chrome-trace-v1\", \"overwritten\": "
     << tracer.overwritten() << "},\n"
     << "  \"traceEvents\": [";

  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
    return os;
  };

  // Metadata first: process and thread names.
  for (const auto& [pid, name] : tracer.process_names()) {
    sep() << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
          << ", \"tid\": 0, \"args\": {\"name\": \"";
    write_escaped(os, name);
    os << "\"}}";
  }
  for (const auto& [track, name] : tracer.track_names()) {
    sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": "
          << track_pid(track) << ", \"tid\": " << track_tid(track)
          << ", \"args\": {\"name\": \"";
    write_escaped(os, name);
    os << "\"}}";
  }

  // A span is recorded when it ends but stamped with its start, so the
  // ring is not in timestamp order. A stable sort by timestamp keeps ring
  // order among equal timestamps.
  std::vector<const TraceEvent*> events;
  events.reserve(tracer.size());
  tracer.for_each([&](const TraceEvent& e) { events.push_back(&e); });
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts < b->ts;
                   });

  for (const TraceEvent* ev : events) {
    const TraceEvent& e = *ev;
    sep() << "{\"name\": \"" << event_name(e.name) << "\", \"cat\": \""
          << category_name(e.cat) << "\", \"ph\": \""
          << (e.dur > 0 ? 'X' : 'i') << "\", \"ts\": ";
    write_us(os, e.ts);
    if (e.dur > 0) {
      os << ", \"dur\": ";
      write_us(os, e.dur);
    } else {
      os << ", \"s\": \"t\"";  // Instant scope: thread.
    }
    os << ", \"pid\": " << track_pid(e.track)
       << ", \"tid\": " << track_tid(e.track) << ", \"args\": {\"a0\": "
       << e.a0 << ", \"a1\": " << e.a1 << "}}";
  }

  os << (first ? "]\n" : "\n  ]\n") << "}\n";
}

bool export_chrome_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, tracer);
  return out.good();
}

}  // namespace speedlight::obs
