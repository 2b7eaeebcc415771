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
  write_chrome_trace(os, std::vector<const Tracer*>{&tracer});
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<const Tracer*>& tracers) {
  std::uint64_t overwritten = 0;
  for (const Tracer* t : tracers) overwritten += t->overwritten();
  os << "{\n"
     << "  \"displayTimeUnit\": \"ns\",\n"
     << "  \"otherData\": {\"tool\": \"speedlight\", "
        "\"schema\": \"chrome-trace-v1\", \"overwritten\": "
     << overwritten << "},\n"
     << "  \"traceEvents\": [";

  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n") << "    ";
    first = false;
    return os;
  };

  // Metadata first: process and thread names, from every tracer.
  for (const Tracer* tracer : tracers) {
    for (const auto& [pid, name] : tracer->process_names()) {
      sep() << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
            << ", \"tid\": 0, \"args\": {\"name\": \"";
      write_escaped(os, name);
      os << "\"}}";
    }
    for (const auto& [track, name] : tracer->track_names()) {
      sep() << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": "
            << track_pid(track) << ", \"tid\": " << track_tid(track)
            << ", \"args\": {\"name\": \"";
      write_escaped(os, name);
      os << "\"}}";
    }
  }

  // Merge the rings deterministically: sort by (ts, tracer index, ring
  // position). Per-ring order is already chronological, so the tracer index
  // and position are a total tie-break — a sharded run with per-shard
  // rings exports the same byte stream no matter how its windows were
  // batched.
  struct Ref {
    const TraceEvent* e;
    std::size_t tracer;
    std::size_t seq;
  };
  std::vector<Ref> refs;
  std::size_t total = 0;
  for (const Tracer* t : tracers) total += t->size();
  refs.reserve(total);
  for (std::size_t ti = 0; ti < tracers.size(); ++ti) {
    std::size_t seq = 0;
    tracers[ti]->for_each(
        [&](const TraceEvent& e) { refs.push_back({&e, ti, seq++}); });
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.e->ts != b.e->ts) return a.e->ts < b.e->ts;
    if (a.tracer != b.tracer) return a.tracer < b.tracer;
    return a.seq < b.seq;
  });

  for (const Ref& ref : refs) {
    const TraceEvent& e = *ref.e;
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
  return export_chrome_trace(path, std::vector<const Tracer*>{&tracer});
}

bool export_chrome_trace(const std::string& path,
                         const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, tracers);
  return out.good();
}

}  // namespace speedlight::obs
