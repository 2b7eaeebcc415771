#include "obs/prof.hpp"

#include <algorithm>
#include <ostream>

#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"

namespace speedlight::obs {

const char* binding_name(Binding b) {
  switch (b) {
    case Binding::Until:     return "until";
    case Binding::Peer:      return "peer";
    case Binding::SelfCycle: return "self-cycle";
  }
  return "?";
}

void ShardProfiler::configure(std::uint32_t shard, std::size_t num_shards,
                              std::size_t capacity) {
  shard_ = shard;
  capacity_ = capacity;
  head_ = 0;
  overwritten_ = 0;
  windows_ = stalls_ = self_stalls_ = 0;
  executed_ = drained_ = 0;
  ring_.clear();
  ring_.reserve(capacity);
  stall_rounds_by_producer_.assign(num_shards, 0);
  stall_gap_by_producer_.assign(num_shards, 0);
}

void EngineProfiler::enable(std::size_t num_shards,
                            std::size_t capacity_per_shard) {
#ifdef SPEEDLIGHT_TRACE_DISABLED
  (void)num_shards;
  (void)capacity_per_shard;
#else
  if (capacity_per_shard == 0) capacity_per_shard = kDefaultCapacity;
  shards_ = std::vector<ShardProfiler>(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_[i].configure(static_cast<std::uint32_t>(i), num_shards,
                         capacity_per_shard);
  }
  crit_events_ = 0;
  enabled_ = true;
#endif
}

std::vector<BlameChannel> CriticalPathReport::top_channels(
    std::size_t k) const {
  std::vector<BlameChannel> out;
  for (std::size_t to = 0; to < shards; ++to) {
    for (std::size_t from = 0; from < shards; ++from) {
      if (from == to) continue;
      const std::uint64_t s = stall_matrix[to * shards + from];
      const std::uint64_t g = gap_matrix_ns[to * shards + from];
      if (s == 0 && g == 0) continue;
      out.push_back({static_cast<std::uint32_t>(from),
                     static_cast<std::uint32_t>(to), s, g});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BlameChannel& a, const BlameChannel& b) {
              if (a.stalls != b.stalls) return a.stalls > b.stalls;
              if (a.gap_ns != b.gap_ns) return a.gap_ns > b.gap_ns;
              return std::tie(a.from, a.to) < std::tie(b.from, b.to);
            });
  if (out.size() > k) out.resize(k);
  return out;
}

void CriticalPathReport::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const auto matrix = [&](const std::vector<std::uint64_t>& m) {
    os << "[";
    for (std::size_t to = 0; to < shards; ++to) {
      os << (to == 0 ? "" : ", ") << "[";
      for (std::size_t from = 0; from < shards; ++from) {
        os << (from == 0 ? "" : ", ") << m[to * shards + from];
      }
      os << "]";
    }
    os << "]";
  };
  os << "{\n";
  os << pad << "\"shards\": " << shards << ",\n";
  os << pad << "\"windows\": " << windows << ",\n";
  os << pad << "\"stalls\": " << stalls << ",\n";
  os << pad << "\"executed\": " << executed << ",\n";
  os << pad << "\"deliveries\": " << drained << ",\n";
  os << pad << "\"critical_path_events\": " << critical_path_events << ",\n";
  os << pad << "\"parallelism_bound\": " << parallelism_bound() << ",\n";
  os << pad << "\"stall_matrix\": ";
  matrix(stall_matrix);
  os << ",\n";
  os << pad << "\"gap_matrix_ns\": ";
  matrix(gap_matrix_ns);
  os << ",\n";
  os << pad << "\"top_channels\": [";
  const std::vector<BlameChannel> top = top_channels(8);
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << pad2 << "{\"from\": " << top[i].from
       << ", \"to\": " << top[i].to << ", \"stalls\": " << top[i].stalls
       << ", \"gap_ns\": " << top[i].gap_ns << "}";
  }
  os << (top.empty() ? "]\n" : "\n" + pad + "]\n");
  os << pad.substr(0, pad.size() >= 2 ? pad.size() - 2 : 0) << "}";
}

CriticalPathReport analyze(const EngineProfiler& prof) {
  CriticalPathReport out;
  const std::size_t n = prof.num_shards();
  out.shards = n;
  out.stall_matrix.assign(n * n, 0);
  out.gap_matrix_ns.assign(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ShardProfiler& sp = prof.shard(i);
    out.windows += sp.windows();
    out.stalls += sp.stalls();
    out.executed += sp.executed();
    out.drained += sp.drained();
    for (std::size_t j = 0; j < n; ++j) {
      out.stall_matrix[i * n + j] = sp.stalls_by_producer()[j];
      out.gap_matrix_ns[i * n + j] = sp.gap_by_producer()[j];
    }
  }
  out.critical_path_events = prof.crit_events();
  return out;
}

void fill_profile_tracer(const ShardProfiler& prof, Tracer& out) {
  const std::uint32_t pid = kEngineShardPidBase + prof.shard();
  const std::uint64_t exec_track = make_track(pid, 0);
  const std::uint64_t wait_track = make_track(pid, 1);
  out.name_process(pid, "engine/shard" + std::to_string(prof.shard()));
  out.name_track(exec_track, "execute");
  out.name_track(wait_track, "sync-wait");

  // Stall records arrive pre-coalesced per episode (ShardProfiler's
  // record_round): the span runs from the episode's earliest horizon to
  // the pending event — the sim-time the binding producer still had to
  // close — with a0 = the producer shard and a1 = the replan count.
  prof.for_each([&](const RoundRecord& r) {
    if (r.ran) {
      out.complete(Category::Engine, EventName::EngWindow, exec_track, r.m,
                   r.horizon - r.m, r.executed, r.drained);
      return;
    }
    const EventName name = r.binding == Binding::SelfCycle
                               ? EventName::EngStallSelf
                               : EventName::EngStallPeer;
    out.complete(Category::Engine, name, wait_track, r.horizon,
                 r.m - r.horizon, r.binding_shard, r.repeats);
  });
}

bool export_profile_chrome_trace(const std::string& path,
                                 const EngineProfiler& prof) {
  const std::size_t n = prof.num_shards();
  std::vector<Tracer> tracers(n);
  std::vector<const Tracer*> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tracers[i].enable(std::max<std::size_t>(prof.shard(i).size(), 1));
    fill_profile_tracer(prof.shard(i), tracers[i]);
    views.push_back(&tracers[i]);
  }
  return export_chrome_trace(path, views);
}

}  // namespace speedlight::obs
