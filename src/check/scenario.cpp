#include "check/scenario.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/random.hpp"
#include "snapshot/ids.hpp"

namespace speedlight::check {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::LinkFlap: return "link_flap";
    case FaultKind::NotifDropBurst: return "notif_burst";
    case FaultKind::CpuBacklogSpike: return "cpu_spike";
    case FaultKind::ObserverRestart: return "observer_down";
  }
  return "?";
}

const char* mix_kind_name(MixKind k) {
  switch (k) {
    case MixKind::AllToAll: return "all_to_all";
    case MixKind::Incast: return "incast";
    case MixKind::Shuffle: return "shuffle";
    case MixKind::MixedTenant: return "mixed_tenant";
  }
  return "?";
}

net::TopologySpec Scenario::topology() const {
  return make_topo(topo, size_a, size_b, size_c);
}

core::NetworkOptions Scenario::network_options() const {
  core::NetworkOptions opt;
  opt.seed = seed;
  opt.snapshot.channel_state = channel_state;
  opt.snapshot.wire_id_modulus = modulus;
  opt.metric = metric;
  opt.load_balancer = lb;
  opt.notification_mode = transport;
  opt.observer.completion_timeout = completion_timeout;
  opt.timing.clock_drift_ppm = drift_ppm;
  opt.timing.ptp_residual_stddev = ptp_residual_stddev;
  // Faults on the notification path lose notifications for good; the
  // paper's recovery mechanism for that is the proactive register poll, so
  // scenarios that schedule such faults run with it (Section 6, liveness).
  for (const auto& f : faults) {
    if (f.kind == FaultKind::NotifDropBurst ||
        f.kind == FaultKind::CpuBacklogSpike) {
      opt.control.proactive_register_poll = true;
      break;
    }
  }
  return opt;
}

std::string Scenario::label() const {
  std::ostringstream os;
  os << "seed=" << seed << " " << topo_kind_name(topo) << "(" << size_a << ","
     << size_b << "," << size_c << ")" << (channel_state ? " cs" : " nocs")
     << " m=" << modulus << " snaps=" << snapshots << " f=" << faults.size();
  if (workload.mix != MixKind::AllToAll) {
    os << " mix=" << mix_kind_name(workload.mix);
  }
  return os.str();
}

Scenario generate_scenario(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;
  sim::Rng r = sim::Rng(seed).fork("scenario");

  // Topology: the families the paper's evaluation exercises, at sizes
  // small enough that a run stays in the tens of milliseconds of virtual
  // time (the fuzzer's value is breadth of scenarios, not scale per run).
  switch (r.uniform_int(0, 3)) {
    case 0:
      s.topo = TopoKind::Line;
      s.size_a = r.uniform_int(2, 5);
      break;
    case 1:
      s.topo = TopoKind::Ring;
      s.size_a = r.uniform_int(3, 6);
      break;
    case 2:
      s.topo = TopoKind::LeafSpine;
      s.size_a = r.uniform_int(2, 3);
      s.size_b = r.uniform_int(2, 3);
      s.size_c = r.uniform_int(1, 3);
      break;
    default:
      s.topo = TopoKind::FatTree;
      s.size_a = 4;
      break;
  }

  s.lb = r.chance(0.5) ? sw::LoadBalancerKind::Ecmp
                       : sw::LoadBalancerKind::Flowlet;
  s.metric = r.chance(0.25) ? sw::MetricKind::ByteCount
                            : sw::MetricKind::PacketCount;
  s.transport = r.chance(0.2) ? snap::NotificationMode::Digest
                              : snap::NotificationMode::RawSocket;
  s.channel_state = r.chance(0.7);
  switch (r.uniform_int(0, 4)) {
    case 0: s.modulus = 8; break;
    case 1: s.modulus = 16; break;
    case 2: s.modulus = 32; break;
    default: s.modulus = 0; break;  // Full 32-bit wire space.
  }

  // Quantized draws: every parameter must survive the text round trip
  // bit-for-bit so a saved .scenario replays the exact run that failed.
  s.drift_ppm = static_cast<double>(r.uniform_int(0, 40));
  s.ptp_residual_stddev =
      static_cast<sim::Duration>(r.uniform_int(1'000, 10'000));

  s.workload.generators = r.uniform_int(2, 8);
  s.workload.rate_pps = static_cast<double>(r.uniform_int(20'000, 80'000));
  s.workload.packet_size =
      static_cast<std::uint32_t>(r.uniform_int(200, 1500));

  s.warmup = sim::usec(static_cast<double>(r.uniform_int(1'000, 3'000)));
  // Bounded wire spaces get longer snapshot trains so runs actually cross
  // the rollover boundary (modulus 8 needs > 8 ids in flight over the run).
  s.snapshots = s.modulus != 0 && s.modulus <= 16 ? r.uniform_int(6, 12)
                                                  : r.uniform_int(3, 8);
  s.interval = sim::usec(static_cast<double>(r.uniform_int(1'000, 4'000)));
  s.completion_timeout =
      s.transport == snap::NotificationMode::Digest
          ? sim::msec(150)
          : sim::usec(static_cast<double>(r.uniform_int(30'000, 80'000)));

  const std::size_t fault_count = r.chance(0.2) ? 0 : r.uniform_int(1, 3);
  for (std::size_t i = 0; i < fault_count; ++i) {
    FaultSpec f;
    switch (r.uniform_int(0, 3)) {
      case 0:
        f.kind = FaultKind::LinkFlap;
        f.trunk = r.uniform_int(0, 15);
        f.a_to_b = r.chance(0.5);
        f.start = sim::usec(static_cast<double>(r.uniform_int(0, 5'000)));
        f.duration =
            sim::usec(static_cast<double>(r.uniform_int(5'000, 20'000)));
        f.up_mean = sim::usec(static_cast<double>(r.uniform_int(1'000, 4'000)));
        f.down_mean =
            sim::usec(static_cast<double>(r.uniform_int(500, 2'000)));
        break;
      case 1:
        f.kind = FaultKind::NotifDropBurst;
        f.start = sim::usec(static_cast<double>(r.uniform_int(0, 10'000)));
        f.duration =
            sim::usec(static_cast<double>(r.uniform_int(1'000, 5'000)));
        f.magnitude = static_cast<double>(r.uniform_int(50, 100)) / 100.0;
        break;
      case 2:
        f.kind = FaultKind::CpuBacklogSpike;
        f.start = sim::usec(static_cast<double>(r.uniform_int(0, 10'000)));
        f.duration =
            sim::usec(static_cast<double>(r.uniform_int(1'000, 5'000)));
        f.magnitude = static_cast<double>(r.uniform_int(3, 10));
        break;
      default:
        f.kind = FaultKind::ObserverRestart;
        f.start = sim::usec(static_cast<double>(r.uniform_int(0, 10'000)));
        f.duration =
            sim::usec(static_cast<double>(r.uniform_int(1'000, 5'000)));
        break;
    }
    s.faults.push_back(f);
  }
  return s;
}

Scenario generate_scenario(std::uint64_t seed, const ScenarioBudget& budget) {
  // Distinct stream: the plain generate_scenario(seed) draw sequence is
  // pinned by the digest corpus and must never move.
  sim::Rng r = sim::Rng(seed).fork("scenario-xl");

  // Candidate large topologies with their switch counts (fat-tree k has
  // 5k^2/4 switches); only those under budget enter the draw, so the
  // sampler degrades gracefully instead of redrawing.
  struct Candidate {
    TopoKind topo;
    std::size_t a, b, c;
    std::size_t switches;
  };
  const Candidate pool[] = {
      {TopoKind::FatTree, 4, 0, 0, 20},
      {TopoKind::FatTree, 8, 0, 0, 80},
      {TopoKind::FatTree, 16, 0, 0, 320},
      {TopoKind::LeafSpine, 8, 4, 4, 12},
      {TopoKind::LeafSpine, 12, 6, 8, 18},
  };
  std::vector<const Candidate*> admissible;
  for (const auto& c : pool) {
    if (c.switches <= budget.max_switches) admissible.push_back(&c);
  }
  if (admissible.empty()) admissible.push_back(&pool[0]);

  Scenario s;
  s.seed = seed;
  const Candidate& pick =
      *admissible[r.uniform_int(0, admissible.size() - 1)];
  s.topo = pick.topo;
  s.size_a = pick.a;
  s.size_b = pick.b;
  s.size_c = pick.c;

  // Production fabrics run the paper's deployed configuration: ECMP or
  // flowlet balancing, either metric, and an occasional bounded wire space.
  s.lb = r.chance(0.5) ? sw::LoadBalancerKind::Ecmp
                       : sw::LoadBalancerKind::Flowlet;
  s.metric = r.chance(0.25) ? sw::MetricKind::ByteCount
                            : sw::MetricKind::PacketCount;
  s.transport = r.chance(0.2) ? snap::NotificationMode::Digest
                              : snap::NotificationMode::RawSocket;
  // Channel state multiplies per-port snapshot slots by the egress fanout;
  // at hundreds of switches that dominates run time, so sample it rarely.
  s.channel_state = r.chance(0.2);
  s.modulus = r.chance(0.3) ? 32 : 0;

  s.drift_ppm = static_cast<double>(r.uniform_int(0, 40));
  s.ptp_residual_stddev =
      static_cast<sim::Duration>(r.uniform_int(1'000, 10'000));

  switch (r.uniform_int(0, 3)) {
    case 0: s.workload.mix = MixKind::AllToAll; break;
    case 1: s.workload.mix = MixKind::Incast; break;
    case 2: s.workload.mix = MixKind::Shuffle; break;
    default: s.workload.mix = MixKind::MixedTenant; break;
  }
  // Generators scale with the fabric but stay bounded: enough sources to
  // light up the core without making the event count quadratic.
  s.workload.generators = r.uniform_int(8, 24);
  s.workload.rate_pps = static_cast<double>(r.uniform_int(10'000, 40'000));
  s.workload.packet_size =
      static_cast<std::uint32_t>(r.uniform_int(200, 1500));

  s.warmup = sim::usec(static_cast<double>(r.uniform_int(500, 1'500)));
  const std::size_t max_snaps =
      budget.max_snapshots == 0 ? 1 : budget.max_snapshots;
  s.snapshots = r.uniform_int(1, max_snaps);
  s.interval = sim::usec(static_cast<double>(r.uniform_int(1'000, 3'000)));
  s.completion_timeout =
      s.transport == snap::NotificationMode::Digest ? sim::msec(150)
                                                    : sim::msec(80);

  // One fault at most: large fabrics already exercise breadth through
  // scale; the small-fabric fuzzer owns the dense fault matrix.
  if (r.chance(0.5)) {
    FaultSpec f;
    if (r.chance(0.5)) {
      f.kind = FaultKind::NotifDropBurst;
      f.magnitude = static_cast<double>(r.uniform_int(50, 100)) / 100.0;
    } else {
      f.kind = FaultKind::CpuBacklogSpike;
      f.magnitude = static_cast<double>(r.uniform_int(3, 10));
    }
    f.start = sim::usec(static_cast<double>(r.uniform_int(0, 3'000)));
    f.duration = sim::usec(static_cast<double>(r.uniform_int(1'000, 4'000)));
    s.faults.push_back(f);
  }
  return s;
}

// --- Serialization ----------------------------------------------------------

namespace {

std::int64_t to_us(sim::Duration d) { return d / sim::kMicrosecond; }

}  // namespace

void write_scenario(std::ostream& os, const Scenario& s) {
  os << "scenario v1\n";
  os << "seed " << s.seed << "\n";
  os << "topo " << topo_kind_name(s.topo) << " " << s.size_a << " " << s.size_b
     << " " << s.size_c << "\n";
  os << "lb " << (s.lb == sw::LoadBalancerKind::Ecmp ? "ecmp" : "flowlet")
     << "\n";
  os << "metric "
     << (s.metric == sw::MetricKind::ByteCount ? "bytes" : "packets") << "\n";
  os << "transport "
     << (s.transport == snap::NotificationMode::Digest ? "digest" : "raw")
     << "\n";
  os << "channel_state " << (s.channel_state ? 1 : 0) << "\n";
  os << "modulus " << s.modulus << "\n";
  os << "drift_ppm " << s.drift_ppm << "\n";
  os << "ptp_stddev_ns " << s.ptp_residual_stddev << "\n";
  os << "workload " << s.workload.generators << " " << s.workload.rate_pps
     << " " << s.workload.packet_size;
  // Trailing mix token only when non-default: pre-mix files stay
  // byte-identical through a read/write round trip.
  if (s.workload.mix != MixKind::AllToAll) {
    os << " " << mix_kind_name(s.workload.mix);
  }
  os << "\n";
  os << "warmup_us " << to_us(s.warmup) << "\n";
  os << "snapshots " << s.snapshots << " " << to_us(s.interval) << " "
     << to_us(s.completion_timeout) << "\n";
  for (const auto& f : s.faults) {
    os << "fault " << fault_kind_name(f.kind);
    switch (f.kind) {
      case FaultKind::LinkFlap:
        os << " " << f.trunk << " " << (f.a_to_b ? 1 : 0) << " "
           << to_us(f.start) << " " << to_us(f.duration) << " "
           << to_us(f.up_mean) << " " << to_us(f.down_mean);
        break;
      case FaultKind::NotifDropBurst:
      case FaultKind::CpuBacklogSpike:
        os << " " << to_us(f.start) << " " << to_us(f.duration) << " "
           << f.magnitude;
        break;
      case FaultKind::ObserverRestart:
        os << " " << to_us(f.start) << " " << to_us(f.duration);
        break;
    }
    os << "\n";
  }
}

std::string scenario_to_string(const Scenario& s) {
  std::ostringstream os;
  write_scenario(os, s);
  return os.str();
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              what);
}

}  // namespace

Scenario read_scenario(std::istream& is) {
  Scenario s;
  s.faults.clear();
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // Blank / comment-only line.
    if (!saw_header) {
      std::string version;
      if (key != "scenario" || !(ls >> version) || version != "v1") {
        fail(lineno, "expected 'scenario v1' header");
      }
      saw_header = true;
      continue;
    }
    if (key == "seed") {
      if (!(ls >> s.seed)) fail(lineno, "bad seed");
    } else if (key == "topo") {
      std::string name;
      if (!(ls >> name >> s.size_a >> s.size_b >> s.size_c)) {
        fail(lineno, "bad topo directive");
      }
      const auto kind = topo_kind_from_name(name);
      if (!kind) fail(lineno, "unknown topology '" + name + "'");
      s.topo = *kind;
    } else if (key == "lb") {
      std::string v;
      if (!(ls >> v)) fail(lineno, "bad lb");
      if (v == "ecmp") {
        s.lb = sw::LoadBalancerKind::Ecmp;
      } else if (v == "flowlet") {
        s.lb = sw::LoadBalancerKind::Flowlet;
      } else {
        fail(lineno, "unknown lb '" + v + "'");
      }
    } else if (key == "metric") {
      std::string v;
      if (!(ls >> v)) fail(lineno, "bad metric");
      if (v == "packets") {
        s.metric = sw::MetricKind::PacketCount;
      } else if (v == "bytes") {
        s.metric = sw::MetricKind::ByteCount;
      } else {
        fail(lineno, "unknown metric '" + v + "'");
      }
    } else if (key == "transport") {
      std::string v;
      if (!(ls >> v)) fail(lineno, "bad transport");
      if (v == "raw") {
        s.transport = snap::NotificationMode::RawSocket;
      } else if (v == "digest") {
        s.transport = snap::NotificationMode::Digest;
      } else {
        fail(lineno, "unknown transport '" + v + "'");
      }
    } else if (key == "channel_state") {
      int v = 0;
      if (!(ls >> v)) fail(lineno, "bad channel_state");
      s.channel_state = v != 0;
    } else if (key == "modulus") {
      if (!(ls >> s.modulus)) fail(lineno, "bad modulus");
      if (!snap::SidSpace::valid_modulus(s.modulus)) {
        fail(lineno, "modulus must be 0 or a power of two >= 2");
      }
    } else if (key == "drift_ppm") {
      if (!(ls >> s.drift_ppm)) fail(lineno, "bad drift_ppm");
    } else if (key == "ptp_stddev_ns") {
      if (!(ls >> s.ptp_residual_stddev)) fail(lineno, "bad ptp_stddev_ns");
    } else if (key == "workload") {
      if (!(ls >> s.workload.generators >> s.workload.rate_pps >>
            s.workload.packet_size)) {
        fail(lineno, "bad workload directive");
      }
      std::string mix;
      if (ls >> mix) {  // Optional trailing token (absent = all_to_all).
        if (mix == "all_to_all") {
          s.workload.mix = MixKind::AllToAll;
        } else if (mix == "incast") {
          s.workload.mix = MixKind::Incast;
        } else if (mix == "shuffle") {
          s.workload.mix = MixKind::Shuffle;
        } else if (mix == "mixed_tenant") {
          s.workload.mix = MixKind::MixedTenant;
        } else {
          fail(lineno, "unknown workload mix '" + mix + "'");
        }
      }
    } else if (key == "warmup_us") {
      std::int64_t us = 0;
      if (!(ls >> us)) fail(lineno, "bad warmup_us");
      s.warmup = us * sim::kMicrosecond;
    } else if (key == "snapshots") {
      std::int64_t interval_us = 0, timeout_us = 0;
      if (!(ls >> s.snapshots >> interval_us >> timeout_us)) {
        fail(lineno, "bad snapshots directive");
      }
      s.interval = interval_us * sim::kMicrosecond;
      s.completion_timeout = timeout_us * sim::kMicrosecond;
    } else if (key == "fault") {
      std::string kind;
      if (!(ls >> kind)) fail(lineno, "bad fault directive");
      FaultSpec f;
      std::int64_t start_us = 0, dur_us = 0;
      if (kind == "link_flap") {
        f.kind = FaultKind::LinkFlap;
        int ab = 1;
        std::int64_t up_us = 0, down_us = 0;
        if (!(ls >> f.trunk >> ab >> start_us >> dur_us >> up_us >> down_us)) {
          fail(lineno, "bad link_flap fault");
        }
        f.a_to_b = ab != 0;
        f.up_mean = up_us * sim::kMicrosecond;
        f.down_mean = down_us * sim::kMicrosecond;
      } else if (kind == "notif_burst" || kind == "cpu_spike") {
        f.kind = kind == "notif_burst" ? FaultKind::NotifDropBurst
                                       : FaultKind::CpuBacklogSpike;
        if (!(ls >> start_us >> dur_us >> f.magnitude)) {
          fail(lineno, "bad " + kind + " fault");
        }
      } else if (kind == "observer_down") {
        f.kind = FaultKind::ObserverRestart;
        if (!(ls >> start_us >> dur_us)) fail(lineno, "bad observer_down fault");
      } else {
        fail(lineno, "unknown fault kind '" + kind + "'");
      }
      f.start = start_us * sim::kMicrosecond;
      f.duration = dur_us * sim::kMicrosecond;
      s.faults.push_back(f);
    } else {
      fail(lineno, "unknown directive '" + key + "'");
    }
  }
  if (!saw_header) fail(lineno, "empty scenario (missing 'scenario v1')");
  return s;
}

Scenario scenario_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_scenario(is);
}

bool save_scenario(const std::string& path, const Scenario& s) {
  std::ofstream out(path);
  if (!out) return false;
  write_scenario(out, s);
  return static_cast<bool>(out);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  return read_scenario(in);
}

}  // namespace speedlight::check
