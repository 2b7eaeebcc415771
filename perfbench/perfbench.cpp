// The repository benchmark's workload driver. One process runs one workload
// as a set of independently seeded instances:
//
//   testbed_hadoop      Fig. 8 leaf-spine (2x2x3), Fig. 12 Hadoop shuffle,
//                       flowlet LB, EWMA-interarrival metric; channel-state
//                       snapshot rounds every 8 ms, then polling sweeps.
//   fattree_k32_rounds  k=32 fat-tree in the production posture, back-to-back
//                       take_snapshot rounds over light background traffic
//                       (runnable, not gated: see perfbench/README.md).
//   fuzz_digest         speedlight_fuzz --digest over fixed scenario shapes:
//                       each seed runs twice (delta vs full wire frames) with
//                       the idealized oracle, and the digests must agree.
//
// The simulator is deterministic, so an instance can be repeated on
// identical inputs. A run makes several passes over the same instances and
// keeps each timing's fastest repetition: the host is shared, and other
// tenants only ever add time. Every repetition's outputs are validated, and
// the first instance's counts must repeat exactly in every pass.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// holding the end-to-end metrics (untraced run) or, with --trace 1, the
// per-layer metrics. A traced run spends half its budget untraced and half
// traced, so it can report the tracing overhead; it records a span around
// each call the benchmark makes into a layer, keeps the spans in memory and
// writes them as Chrome trace JSON (--spans PATH) when the run ends. Layers
// are measured from outside only: nothing under src/ is instrumented for
// this benchmark.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--spans PATH] [--tiny] [--max-wait-us US]
//                  [--request-lead-us US]
// --max-wait-us (fat-tree) and --request-lead-us (testbed) exist for the
// self-test, which sets them so that rounds fail.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "obs/process_stats.hpp"
#include "workload/apps.hpp"
#include "workload/basic.hpp"

namespace {

using namespace speedlight;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Posture ----------------------------------------------------------------
// The deployment posture of every workload, in one place. Retiring the v1
// wire path or the threaded engine edits these lines only, and predicts no
// change on any workload.

struct Posture {
  bool wire_fast_path;
  bool retain_unit_reports;
  std::size_t shards;
};

/// The v2 wire fast path (the one a gated workload must load, since the
/// fat-tree is not gated), retained unit reports (the checker audits them),
/// serial engine.
constexpr Posture kTestbedPosture{true, true, 1};
/// Production posture (DESIGN.md section 16): v2 wire fast path with
/// digest-only streaming assembly, serial engine.
constexpr Posture kFatTreePosture{true, false, 1};
/// `speedlight_fuzz --digest`: delta+compact primary vs full-frame twin,
/// both uncharged, serial engine.
constexpr check::WireMode kFuzzPrimaryWire = check::WireMode::DeltaCompact;
constexpr check::WireMode kFuzzTwinWire = check::WireMode::FullV2;
constexpr std::size_t kFuzzShards = 1;

core::NetworkOptions with_posture(const Posture& p) {
  core::NetworkOptions opt;
  opt.wire_fast_path = p.wire_fast_path;
  opt.observer.retain_unit_reports = p.retain_unit_reports;
  opt.shards = p.shards;
  return opt;
}

// --- Sizes ------------------------------------------------------------------

/// How much work one run does. It follows from --seconds alone, never from
/// the machine's speed, so two commits measure identical work.
struct Sizes {
  std::size_t passes = 1;     ///< Repetitions of every instance.
  std::size_t instances = 1;  ///< Distinct seeds per pass.
  std::size_t rounds = 0;     ///< Snapshot rounds per instance.
  std::size_t sweeps = 0;     ///< Polling sweeps per instance (testbed).
  std::size_t fat_tree_k = 32;
  std::size_t cbr_flows = 8;  ///< Background flows on the fat-tree.
  sim::Duration max_wait = sim::msec(500);  ///< take_snapshot's max_wait.
  /// Testbed: from a round's start to its snapshot's fire time.
  sim::Duration request_lead = sim::msec(1);
};

/// Sized so that a run on a quiet host takes about `seconds`.
Sizes sizes_for(const std::string& workload, double seconds, bool tiny) {
  const auto per = [seconds](double instances_per_s) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds * instances_per_s)));
  };
  Sizes s;
  if (workload == "testbed_hadoop") {
    s.passes = 8;
    s.instances = tiny ? 1 : per(0.45);  // ~0.25 s each
    s.rounds = s.sweeps = tiny ? 20 : 100;
  } else if (workload == "fattree_k32_rounds") {
    s.passes = tiny ? 3 : 10;
    s.instances = tiny ? 1 : per(1.0 / 35);  // ~3.2 s each
    s.rounds = tiny ? 3 : 6;
    s.fat_tree_k = tiny ? 4 : 32;
  } else {
    s.passes = tiny ? 3 : 8;
    s.instances = tiny ? 2 : per(1.7);  // ~75 ms each
  }
  return s;
}

/// The quantile reported as round_ms_tail over `n` round slots: the highest
/// with at least ten slots above it, clamped to [0.5, 0.99] (below 20 slots
/// it is the median, with fewer than ten above).
double tail_quantile(std::size_t n) {
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of instance `i` of a run seeded with `seed`.
std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t i) {
  return splitmix64(splitmix64(seed) + i);
}

// --- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- Spans ------------------------------------------------------------------

/// In-memory span recorder: name, start, end and parent of each call the
/// benchmark makes into a layer. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name)
        : log_(log.enabled_ ? &log : nullptr) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Durations (seconds) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end_ns >= 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// Chrome trace-event JSON ("X" events; args carry id and parent id).
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [" << std::fixed
        << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t end = std::max(s.end_ns, s.start_ns);
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns) * 1e-3
          << ", \"dur\": " << static_cast<double>(end - s.start_ns) * 1e-3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;  ///< -1 while open.
    std::int32_t parent;  ///< Index of the enclosing span, -1 at the root.
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::int32_t open(const char* name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), -1, open_});
    open_ = index;
    return index;
  }

  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

// --- Counts read from public accessors and the registry ---------------------

using Counts = std::map<std::string, std::uint64_t>;

std::uint64_t get(const Counts& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

/// Registry series summed fabric-wide, by name suffix (per-switch
/// "switch.<name>.*"/"cp.<name>.*" series on small fabrics, "fabric.*" on
/// large ones).
constexpr std::pair<const char*, const char*> kSummedSeries[] = {
    {".queue_drops", "queue_drops"},
    {".forwarding_drops", "forwarding_drops"},
    {".snap.notifications", "notifications"},
    {".snap.captures", "captures"},
    {".notif.dropped_overflow", "notif_dropped"},
    {".notif.dropped_random", "notif_dropped"},
    {".reports_sent", "reports"},
};

/// Gauges: a delta keeps the later value, a sum keeps the maximum.
bool is_gauge(const std::string& key) {
  return key == "notif_max_backlog" || key == "pending_events";
}

Counts read_counts(core::Network& net, SpanLog& log) {
  Counts c;
  const sim::SimulatorStats& st = net.simulator().stats();
  c["events_executed"] = st.executed;
  c["events_scheduled"] = st.scheduled;
  c["events_cancelled"] = st.cancelled;
  c["pending_events"] = net.pending();
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    c["pkts_sent"] += net.host(h).packets_sent();
    c["pkts_delivered"] += net.host(h).packets_received();
    c["link_drops"] += net.host_uplink(h).packets_dropped() +
                       net.host_downlink(h).packets_dropped();
  }
  for (std::size_t t = 0; t < net.spec().trunks.size(); ++t) {
    c["link_drops"] += net.trunk_link(t, true).packets_dropped() +
                       net.trunk_link(t, false).packets_dropped();
  }
  const net::PacketPool& pool = net::PacketPool::instance();
  c["pool_allocated"] = pool.allocated();
  c["pool_acquired"] = pool.allocated() + pool.recycled();

  std::vector<obs::MetricsRegistry::Sample> samples;
  {
    const SpanLog::Scope span(log, "obs.collect");
    samples = net.metrics().collect();
  }
  for (const auto& s : samples) {
    for (const auto& [suffix, key] : kSummedSeries) {
      if (s.name.ends_with(suffix)) c[key] += s.value;
    }
    if (s.name.ends_with(".notif.max_backlog")) {
      c["notif_max_backlog"] = std::max(c["notif_max_backlog"], s.value);
    }
    if (s.name == "polling.samples") c["polling_samples"] = s.value;
    if (s.name == "polling.sweeps") c["polling_sweeps"] = s.value;
  }

  const snap::WireStats w = net.wire_stats_total();
  c["wire_notification_bytes"] = w.notification_bytes;
  c["wire_report_bytes"] = w.report_bytes;
  c["wire_keyframe_bytes"] = w.keyframe_bytes;
  c["wire_notifications"] = w.notifications_encoded;
  c["wire_reports"] = w.reports_encoded;
  c["wire_decode_failures"] = w.decode_failures;
  return c;
}

/// The counts a run of one seed must repeat exactly (the pool counters are
/// per thread, so they are left out).
Counts fingerprint(const Counts& c) {
  return {{"events_executed", get(c, "events_executed")},
          {"pkts_delivered", get(c, "pkts_delivered")},
          {"notifications", get(c, "notifications")},
          {"reports", get(c, "reports")},
          {"wire_bytes",
           get(c, "wire_notification_bytes") + get(c, "wire_report_bytes")}};
}

/// Counter growth from `before` to `after`.
Counts delta(const Counts& before, const Counts& after) {
  Counts d = after;
  for (auto& [key, value] : d) {
    if (!is_gauge(key)) value -= get(before, key);
  }
  return d;
}

void accumulate(Counts& total, const Counts& d) {
  for (const auto& [key, value] : d) {
    total[key] =
        is_gauge(key) ? std::max(total[key], value) : total[key] + value;
  }
}

// --- Instances --------------------------------------------------------------

/// Timings of one instance in one pass.
struct Sample {
  double setup_s = 0;     ///< Build, generators, warm-up.
  double instance_s = 0;  ///< Set-up to verdict.
  double pkt_rate = 0;    ///< Packets per wall second of the timed phase.
  std::vector<double> round_ms;  ///< Wall ms per snapshot round.
};

/// Everything one loop (untraced or traced) measured.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure descriptions.
  std::vector<std::vector<Sample>> passes;

  /// Counts of instance 0: identical for every run of one seed, so a later
  /// change can claim a count difference.
  Counts fingerprint;

  // Traced-only accumulators, summed over passes.
  Counts timed;                    ///< Counter growth over timed phases.
  std::uint64_t rounds = 0;        ///< Snapshot rounds in timed phases.
  std::uint64_t round_events = 0;  ///< Events executed inside those rounds.
  std::uint64_t assembly_entries = 0;
  std::uint64_t completed_rounds = 0;
  std::uint64_t materialized_ports = 0;
  std::vector<double> seed_run_ms;  ///< Fuzz: run_scenario wall per seed.

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

struct Context {
  const Sizes& sizes;
  SpanLog& log;
  Run& run;
};

std::size_t assembly_entries(const snap::GlobalSnapshot& s) {
  std::size_t n = 0;
  for (const auto& shard : s.digests) n += shard.size();
  return n;
}

std::uint64_t delivered(core::Network& net) {
  std::uint64_t n = 0;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    n += net.host(h).packets_received();
  }
  return n;
}

/// One Fig. 12 testbed instance: build, start Hadoop, warm the EWMAs
/// (setup), then R snapshot rounds 8 ms apart and P polling sweeps (timed),
/// then the ConsistencyChecker audit.
Sample testbed_instance(Context& cx, std::uint64_t seed, Counts* fp) {
  const Sizes& z = cx.sizes;
  Run& run = cx.run;
  SpanLog& log = cx.log;
  Sample out;
  const auto t0 = Clock::now();
  const SpanLog::Scope root(log, "workload.instance");

  core::NetworkOptions opt = with_posture(kTestbedPosture);
  opt.seed = seed;
  opt.metric = sw::MetricKind::EwmaInterarrival;
  opt.load_balancer = sw::LoadBalancerKind::Flowlet;
  opt.flowlet_gap = sim::usec(50);
  opt.snapshot.channel_state = true;
  std::unique_ptr<core::Network> owner;
  {
    const SpanLog::Scope span(log, "core.construct");
    owner = std::make_unique<core::Network>(net::make_leaf_spine(2, 2, 3), opt);
  }
  core::Network& net = *owner;
  net.register_all_units_for_polling();

  std::unique_ptr<wl::HadoopGenerator> gen;
  {
    const SpanLog::Scope span(log, "workload.start");
    wl::HadoopGenerator::Options ho;
    ho.shuffle_bytes_per_reducer = 1 * 1024 * 1024;
    ho.compute_mean = sim::msec(40);
    gen = std::make_unique<wl::HadoopGenerator>(
        net.simulator(),
        std::vector<net::Host*>{&net.host(0), &net.host(1), &net.host(2)},
        std::vector<net::Host*>{&net.host(3), &net.host(4), &net.host(5)}, ho,
        sim::Rng(splitmix64(seed ^ 0x4861646f6f70ULL)));
    gen->start(net.now());
  }
  {
    const SpanLog::Scope span(log, "sim.warmup");
    net.run_for(sim::msec(60));  // EWMA warm-up, as fig12 does.
  }
  out.setup_s = since(t0);
  if (log.enabled()) run.materialized_ports = net.materialized_ports();

  const Counts before = log.enabled() ? read_counts(net, log) : Counts{};
  const std::uint64_t events_before = net.simulator().stats().executed;
  const std::uint64_t delivered_before = delivered(net);
  const sim::Duration interval = sim::msec(8);
  core::SnapshotCampaign campaign;
  const auto timed0 = Clock::now();
  const sim::SimTime base = net.now();
  for (std::size_t r = 0; r < z.rounds; ++r) {
    const auto round0 = Clock::now();
    const sim::SimTime start = base + static_cast<sim::SimTime>(r) * interval;
    std::optional<snap::VirtualSid> id;
    {
      const SpanLog::Scope span(log, "snapshot.request");
      id = net.observer().request_snapshot(start + z.request_lead);
    }
    if (id) {
      campaign.ids.push_back(*id);
    } else {
      ++campaign.skipped;
    }
    {
      const SpanLog::Scope span(log, "sim.run_until");
      net.run_until(start + interval);
    }
    out.round_ms.push_back(since(round0) * 1e3);
  }
  const std::uint64_t round_events =
      net.simulator().stats().executed - events_before;
  {
    const SpanLog::Scope span(log, "sim.run_until");
    net.run_until(net.now() + net.options().observer.completion_timeout +
                  sim::msec(5));
  }
  std::vector<poll::PollSweep> sweeps;
  {
    const SpanLog::Scope span(log, "polling.campaign");
    sweeps = core::run_polling_campaign(net, z.sweeps, interval);
  }
  out.pkt_rate = ratio(static_cast<double>(delivered(net) - delivered_before),
                       since(timed0));

  // Validation: every request accepted and complete with no device
  // excluded, zero checker violations, every sweep returned, no snapshot
  // header leaked to a host. The checker's invariants run one by one:
  // check_all would also apply check_monotonicity, which assumes a counter
  // metric, and an EWMA of interarrival times legitimately falls. Flow
  // conservation is left out for the same reason: it audits counter
  // metrics only.
  run.attempted += z.rounds + z.sweeps;
  std::vector<check::Violation> violations;
  {
    const SpanLog::Scope span(log, "check.checker");
    check::CheckOptions copt;
    copt.sync_span_bound =
        check::sync_span_bound(opt.timing.ptp_residual_stddev,
                               opt.timing.clock_drift_ppm, net.now());
    check::ConsistencyChecker checker(net, copt);
    const snap::GlobalSnapshot* prev = nullptr;
    for (const snap::GlobalSnapshot* s : campaign.results(net)) {
      if (!s->excluded_devices.empty()) {
        violations.push_back({"liveness", s->id, "device(s) excluded"});
      }
      checker.check_structure(*s, violations);
      checker.check_sync_span(*s, violations);
      if (prev != nullptr) {
        check::ConsistencyChecker::check_advance_order(*prev, *s, violations);
      }
      prev = s;
    }
  }
  std::set<snap::VirtualSid> bad;
  for (const auto& v : violations) {
    bad.insert(v.snapshot);
    if (run.errors.size() < 5) {
      run.errors.push_back(v.invariant + ": " + v.detail);
    }
  }
  std::uint64_t entries = 0;
  std::uint64_t completed = 0;
  for (const snap::VirtualSid id : campaign.ids) {
    const snap::GlobalSnapshot* s = net.observer().result(id);
    if (s == nullptr || !s->complete) {
      bad.insert(id);
      continue;
    }
    ++completed;
    entries += assembly_entries(*s);
  }
  run.failed += bad.size();
  for (std::size_t i = 0; i < campaign.skipped; ++i) {
    run.fail("request refused");
  }
  for (std::size_t i = sweeps.size(); i < z.sweeps; ++i) {
    run.fail("polling sweep missing");
  }
  std::uint64_t leaks = 0;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    leaks += net.host(h).header_leaks();
  }
  if (leaks > 0) run.fail("header leaks: " + std::to_string(leaks));

  if (log.enabled()) {
    accumulate(run.timed, delta(before, read_counts(net, log)));
    run.rounds += z.rounds;
    run.round_events += round_events;
    run.assembly_entries += entries;
    run.completed_rounds += completed;
  }
  if (fp != nullptr) *fp = fingerprint(read_counts(net, log));
  out.instance_s = since(t0);
  return out;
}

/// One k=32 fat-tree instance: build, start light background traffic, run a
/// warm-up round (setup, so lazy port materialization cannot move between
/// construction and the first round unseen), then back-to-back timed
/// take_snapshot rounds.
Sample fat_tree_instance(Context& cx, std::uint64_t seed, Counts* fp) {
  const Sizes& z = cx.sizes;
  Run& run = cx.run;
  SpanLog& log = cx.log;
  Sample out;
  const auto t0 = Clock::now();
  const SpanLog::Scope root(log, "workload.instance");

  core::NetworkOptions opt = with_posture(kFatTreePosture);
  opt.seed = seed;
  std::unique_ptr<core::Network> owner;
  {
    const SpanLog::Scope span(log, "core.construct");
    owner = std::make_unique<core::Network>(net::make_fat_tree(z.fat_tree_k),
                                            opt);
  }
  core::Network& net = *owner;
  const std::size_t switches = net.num_switches();

  // Background traffic: a few 1 Gb/s flows between random host pairs, so
  // packets move while rounds run (a few percent of a round's events).
  std::vector<std::unique_ptr<wl::CbrGenerator>> flows;
  {
    const SpanLog::Scope span(log, "workload.start");
    sim::Rng rng(splitmix64(seed ^ 0x436272ULL));
    const std::uint64_t hosts = net.num_hosts();
    for (std::size_t f = 0; f < z.cbr_flows; ++f) {
      const std::uint64_t src = rng.uniform_int(0, hosts - 1);
      const std::uint64_t dst =
          (src + 1 + rng.uniform_int(0, hosts - 2)) % hosts;
      flows.push_back(std::make_unique<wl::CbrGenerator>(
          net.simulator(), net.host(src), net.host_id(dst),
          static_cast<net::FlowId>(f + 1), 1e9, 1500));
      flows.back()->start(net.now());
    }
  }

  // Validation: every round complete and all-consistent, one assembly
  // entry per switch (digest-only assembly), no wire decode failure.
  const auto check_round = [&](const snap::GlobalSnapshot* s) {
    ++run.attempted;
    if (s == nullptr || !s->complete) {
      run.fail("round incomplete");
    } else if (!s->all_consistent()) {
      run.fail("round inconsistent");
    } else if (assembly_entries(*s) != switches) {
      run.fail("assembly entries " + std::to_string(assembly_entries(*s)) +
               " != switches " + std::to_string(switches));
    } else {
      return true;
    }
    return false;
  };

  // Warm-up round. It calls request_snapshot itself (the timed rounds go
  // through take_snapshot, which hides the call) and advances in 100 us
  // windows until the round completes.
  {
    const sim::SimTime fire = net.now() + sim::msec(1);
    std::optional<snap::VirtualSid> id;
    {
      const SpanLog::Scope span(log, "snapshot.request");
      id = net.observer().request_snapshot(fire);
    }
    {
      const SpanLog::Scope span(log, "sim.warmup");
      while (id && net.now() < fire + z.max_wait) {
        const snap::GlobalSnapshot* s = net.observer().result(*id);
        if (s != nullptr && s->complete) break;
        net.run_for(sim::usec(100));
      }
    }
    check_round(id ? net.observer().result(*id) : nullptr);
  }
  out.setup_s = since(t0);
  if (log.enabled()) run.materialized_ports = net.materialized_ports();

  const Counts before = log.enabled() ? read_counts(net, log) : Counts{};
  const std::uint64_t delivered_before = delivered(net);
  std::uint64_t entries = 0;
  std::uint64_t completed = 0;
  const auto timed0 = Clock::now();
  for (std::size_t r = 0; r < z.rounds; ++r) {
    const auto round0 = Clock::now();
    const snap::GlobalSnapshot* s = nullptr;
    {
      const SpanLog::Scope span(log, "snapshot.take");
      s = net.take_snapshot(sim::msec(1), z.max_wait);
    }
    out.round_ms.push_back(since(round0) * 1e3);
    if (check_round(s)) {
      ++completed;
      entries += assembly_entries(*s);
    }
  }
  out.pkt_rate = ratio(static_cast<double>(delivered(net) - delivered_before),
                       since(timed0));
  const std::uint64_t decode_failures = net.wire_stats_total().decode_failures;
  if (decode_failures > 0) {
    run.fail("wire decode failures: " + std::to_string(decode_failures));
  }

  if (log.enabled()) {
    const Counts d = delta(before, read_counts(net, log));
    accumulate(run.timed, d);
    run.rounds += z.rounds;
    run.round_events += get(d, "events_executed");
    run.assembly_entries += entries;
    run.completed_rounds += completed;
  }
  if (fp != nullptr) *fp = fingerprint(read_counts(net, log));
  flows.clear();  // Generators hold references into the network.
  owner.reset();
  out.instance_s = since(t0);
  return out;
}

/// One fuzz seed, as `speedlight_fuzz --digest` runs it: the primary and the
/// twin run with the oracle on, and their digests must agree. The scenario
/// takes its shape (topology, rates, snapshot train, faults) from fuzz seed
/// `1 + i`, a fixed range as `speedlight_fuzz --seed 1` walks it, and its
/// randomness (traffic, clocks, fault timing) from `seed`: per-seed cost
/// spans 10x across shapes, so a seed-drawn set of shapes would move
/// seeds_per_s more than the code does. A seed's time (instance_s) is what
/// the fuzzer does for it: generate_scenario and the two run_scenario calls.
/// Set-up is generating the scenario plus one build of its network from
/// outside (run_scenario hides its own constructions); that build is timed
/// apart and kept out of instance_s.
Sample fuzz_seed(Context& cx, std::uint64_t i, std::uint64_t seed,
                 Counts* fp) {
  Run& run = cx.run;
  SpanLog& log = cx.log;
  Sample out;
  const SpanLog::Scope root(log, "workload.instance");

  const auto gen0 = Clock::now();
  check::Scenario s;
  {
    const SpanLog::Scope span(log, "check.generate");
    s = check::generate_scenario(1 + i);
    s.seed = seed;
  }
  const double generate_s = since(gen0);
  const auto build0 = Clock::now();
  {
    const SpanLog::Scope span(log, "core.construct");
    const core::Network net(s.topology(), s.network_options());
  }
  out.setup_s = generate_s + since(build0);

  const net::PacketPool& pool = net::PacketPool::instance();
  const std::uint64_t pkts_before = pool.allocated() + pool.recycled();
  const std::uint64_t allocs_before = pool.allocated();
  const auto run0 = Clock::now();
  check::RunResult primary;
  check::RunResult twin;
  {
    const SpanLog::Scope span(log, "check.run");
    primary = check::run_scenario(
        s, {.with_oracle = true,
            .wire = kFuzzPrimaryWire,
            .shards = kFuzzShards});
  }
  {
    const SpanLog::Scope span(log, "check.run");
    twin = check::run_scenario(
        s, {.with_oracle = true,
            .wire = kFuzzTwinWire,
            .shards = kFuzzShards});
  }
  const double run_s = since(run0);
  // Packets created (pool acquisitions) across all four simulations:
  // run_scenario exposes no per-host counters.
  const std::uint64_t pkts = pool.allocated() + pool.recycled() - pkts_before;
  out.pkt_rate = ratio(static_cast<double>(pkts), run_s);
  out.round_ms.push_back(
      run_s * 1e3 /
      static_cast<double>(std::max<std::size_t>(s.snapshots, 1)));

  ++run.attempted;
  if (primary.failed() || twin.failed()) {
    run.fail("seed " + std::to_string(seed) + " violates " +
             (primary.failed() ? primary : twin).violations.front().invariant);
  } else if (primary.digest != twin.digest) {
    run.fail("seed " + std::to_string(seed) + " digest divergence");
  }

  if (log.enabled()) {
    run.seed_run_ms.push_back(run_s * 1e3);
    run.timed["pool_acquired"] += pkts;
    run.timed["pool_allocated"] += pool.allocated() - allocs_before;
    run.timed["link_drops"] += primary.link_drops + twin.link_drops;
  }
  if (fp != nullptr) {
    *fp = {{"digest", primary.digest},
           {"twin_digest", twin.digest},
           {"snapshots_completed", primary.completed},
           {"conservation_checked", primary.conservation_checked},
           {"link_drops", primary.link_drops},
           {"pkts_created", pkts}};
  }
  out.instance_s = generate_s + run_s;
  return out;
}

/// Run every pass over instances 0 .. sizes.instances-1 of `seed`.
Run run_loop(const std::string& workload, std::uint64_t seed,
             const Sizes& sizes, SpanLog& log) {
  Run run;
  Context cx{sizes, log, run};
  const auto instance = [&](std::uint64_t i, Counts* fp) {
    if (workload == "testbed_hadoop") {
      return testbed_instance(cx, instance_seed(seed, i), fp);
    }
    if (workload == "fattree_k32_rounds") {
      return fat_tree_instance(cx, instance_seed(seed, i), fp);
    }
    return fuzz_seed(cx, i, instance_seed(seed, i), fp);
  };
  run.passes.resize(sizes.passes);
  for (std::size_t p = 0; p < sizes.passes; ++p) {
    Counts fp;
    for (std::uint64_t i = 0; i < sizes.instances; ++i) {
      run.passes[p].push_back(instance(i, i == 0 ? &fp : nullptr));
    }
    if (p == 0) {
      run.fingerprint = fp;
    } else if (fp != run.fingerprint) {
      run.fail("counts differ between passes");
    }
  }
  return run;
}

/// Each instance's fastest repetition, per timing.
Sample best(const Run& run, std::size_t i) {
  Sample b = run.passes[0][i];
  for (std::size_t p = 1; p < run.passes.size(); ++p) {
    const Sample& x = run.passes[p][i];
    b.setup_s = std::min(b.setup_s, x.setup_s);
    b.instance_s = std::min(b.instance_s, x.instance_s);
    b.pkt_rate = std::max(b.pkt_rate, x.pkt_rate);
    for (std::size_t r = 0; r < std::min(b.round_ms.size(), x.round_ms.size());
         ++r) {
      b.round_ms[r] = std::min(b.round_ms[r], x.round_ms[r]);
    }
  }
  return b;
}

/// Per-instance best timings, flattened across instances.
struct Series {
  std::vector<double> setup_s, instance_s, pkt_rate;
  std::vector<double> round_ms;       ///< Every round slot.
  std::vector<double> round_mean_ms;  ///< Per instance, mean over its slots.
};

Series series(const Run& run) {
  Series s;
  for (std::size_t i = 0; i < run.passes[0].size(); ++i) {
    const Sample b = best(run, i);
    s.setup_s.push_back(b.setup_s);
    s.instance_s.push_back(b.instance_s);
    s.pkt_rate.push_back(b.pkt_rate);
    s.round_ms.insert(s.round_ms.end(), b.round_ms.begin(), b.round_ms.end());
    double sum = 0;
    for (const double ms : b.round_ms) sum += ms;
    s.round_mean_ms.push_back(
        ratio(sum, static_cast<double>(b.round_ms.size())));
  }
  return s;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metric a workload's users watch (for the trace overhead),
/// oriented so that larger is slower.
double headline_cost(const std::string& workload, const Series& s) {
  if (workload == "testbed_hadoop") return ratio(1.0, median(s.pkt_rate));
  if (workload == "fattree_k32_rounds") return median(s.round_mean_ms);
  return median(s.instance_s);
}

std::vector<Metric> end_to_end(const Series& s) {
  return {
      {"pkts_per_s", median(s.pkt_rate), "pkt/s"},
      // The median over instances of their mean round: a testbed's rounds
      // are bimodal (idle vs shuffle bursts), so the median round slot
      // moved 13 % between seeds while the per-instance mean held.
      {"round_ms_p50", median(s.round_mean_ms), "ms"},
      {"seeds_per_s", ratio(1.0, median(s.instance_s)), "seed/s"},
      {"setup_s", median(s.setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(obs::peak_rss_kb()) / 1024.0, "MB"},
  };
}

/// Per-layer metrics, plus round_ms_tail: ungated, because at the run length
/// that fits the benchmark's budget it spread 10-14 % between runs on a
/// shared host.
std::vector<Metric> per_layer(const Run& r, const SpanLog& log,
                              double overhead, double round_ms_tail) {
  const Counts& t = r.timed;
  const auto n = [&t](const char* key) {
    return static_cast<double>(get(t, key));
  };
  const double rounds = static_cast<double>(r.rounds);
  // Every event of a timed phase runs inside one of these calls.
  const double sim_s = log.total("sim.run_until") +
                       log.total("snapshot.take") +
                       log.total("polling.campaign");
  const auto median_ms = [&log](const char* span) {
    return median(log.durations(span)) * 1e3;
  };
  return {
      {"core.construct_s", median(log.durations("core.construct")), "s"},
      {"core.materialized_ports", static_cast<double>(r.materialized_ports),
       "port"},
      {"sim.events_per_pkt", ratio(n("events_executed"), n("pkts_delivered")),
       "event/pkt"},
      {"sim.events_per_round",
       ratio(static_cast<double>(r.round_events), rounds), "event/round"},
      {"sim.events_per_s", ratio(n("events_executed"), sim_s), "event/s"},
      {"sim.cancelled_frac",
       ratio(n("events_cancelled"), n("events_scheduled")), "frac"},
      {"sim.peak_pending", n("pending_events"), "event"},
      {"net.pool_allocs_per_pkt",
       ratio(n("pool_allocated"), n("pool_acquired")), "alloc/pkt"},
      {"net.link_drops", n("link_drops"), "pkt"},
      {"switchlib.queue_drop_frac", ratio(n("queue_drops"), n("pkts_sent")),
       "frac"},
      {"switchlib.forwarding_drops", n("forwarding_drops"), "pkt"},
      {"snapshot.notifications_per_round", ratio(n("notifications"), rounds),
       "notif/round"},
      {"snapshot.captures_per_round", ratio(n("captures"), rounds),
       "capture/round"},
      {"snapshot.notif_max_backlog", n("notif_max_backlog"), "notif"},
      {"snapshot.notif_dropped", n("notif_dropped"), "notif"},
      {"snapshot.request_us", median_ms("snapshot.request") * 1e3, "us"},
      {"snapshot.wire_bytes_per_notification",
       ratio(n("wire_notification_bytes"), n("wire_notifications")),
       "B/notif"},
      {"snapshot.wire_bytes_per_report",
       ratio(n("wire_report_bytes"), n("wire_reports")), "B/report"},
      {"snapshot.keyframe_frac",
       ratio(n("wire_keyframe_bytes"), n("wire_report_bytes")), "frac"},
      {"snapshot.wire_decode_failures", n("wire_decode_failures"), "frame"},
      {"snapshot.assembly_entries_per_round",
       ratio(static_cast<double>(r.assembly_entries),
             static_cast<double>(r.completed_rounds)),
       "entry/round"},
      {"polling.sweep_ms",
       ratio(log.total("polling.campaign") * 1e3, n("polling_sweeps")), "ms"},
      {"polling.samples_per_sweep",
       ratio(n("polling_samples"), n("polling_sweeps")), "sample/sweep"},
      {"workload.start_s", median(log.durations("workload.start")), "s"},
      {"workload.delivered_frac", ratio(n("pkts_delivered"), n("pkts_sent")),
       "frac"},
      {"obs.collect_ms", median_ms("obs.collect"), "ms"},
      {"obs.trace_overhead_frac", overhead, "frac"},
      {"check.generate_ms", median_ms("check.generate"), "ms"},
      {"check.run_ms_p50", quantile(r.seed_run_ms, 0.5), "ms"},
      {"check.run_ms_tail",
       quantile(r.seed_run_ms, tail_quantile(r.seed_run_ms.size())), "ms"},
      {"check.checker_ms", median_ms("check.checker"), "ms"},
      {"round_ms_tail", round_ms_tail, "ms"},
  };
}

void print_result(const Run& r, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {"
            << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << v << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_summary(const std::string& workload, std::uint64_t seed,
                   const Sizes& z, const Run& r,
                   const std::vector<Metric>& metrics) {
  std::cout << "workload " << workload << ", seed " << seed << ": "
            << z.instances << " instance(s) x " << z.passes
            << " passes, best repetition of each timing\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  std::cout << "  " << std::left << std::setw(40) << "failed_frac"
            << std::right
            << ratio(static_cast<double>(r.failed),
                     static_cast<double>(r.attempted))
            << " (" << r.failed << " of " << r.attempted
            << (workload == "fuzz_digest"      ? " seeds"
                : workload == "testbed_hadoop" ? " rounds + sweeps"
                                               : " rounds")
            << ")\n";
  for (const std::string& e : r.errors) std::cout << "  FAILED: " << e << "\n";
  std::cout << "{\"fingerprint\": {\"workload\": \"" << workload
            << "\", \"seed\": " << seed;
  for (const auto& [key, value] : r.fingerprint) {
    std::cout << ", \"" << key << "\": " << value;
  }
  std::cout << "}}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  bool tiny = false;
  std::optional<sim::Duration> max_wait;
  std::optional<sim::Duration> request_lead;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload testbed_hadoop|"
               "fattree_k32_rounds|fuzz_digest [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH] [--tiny] [--max-wait-us US] "
               "[--request-lead-us US]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--spans") {
      a.spans = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--max-wait-us") {
      a.max_wait = static_cast<sim::Duration>(std::stod(value()) * 1e3);
    } else if (flag == "--request-lead-us") {
      a.request_lead = static_cast<sim::Duration>(std::stod(value()) * 1e3);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "testbed_hadoop" && a.workload != "fattree_k32_rounds" &&
      a.workload != "fuzz_digest") {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // A traced run splits the budget: half untraced, half traced over the
  // same instances; the headline's relative slowdown is the tracing overhead.
  Sizes sizes = sizes_for(args.workload, args.trace ? args.seconds / 2
                                                    : args.seconds, args.tiny);
  if (args.max_wait) sizes.max_wait = *args.max_wait;
  if (args.request_lead) sizes.request_lead = *args.request_lead;

  SpanLog off(false);
  const Run plain = run_loop(args.workload, args.seed, sizes, off);
  if (!args.trace) {
    const std::vector<Metric> metrics = end_to_end(series(plain));
    print_summary(args.workload, args.seed, sizes, plain, metrics);
    print_result(plain, metrics);
    return 0;
  }
  SpanLog log(true);
  Run traced = run_loop(args.workload, args.seed, sizes, log);
  // round_ms_tail is an end-to-end figure, so it comes from the untraced half.
  const Series plain_series = series(plain);
  const double a = headline_cost(args.workload, plain_series);
  const double b = headline_cost(args.workload, series(traced));
  const double q = tail_quantile(plain_series.round_ms.size());
  const std::vector<Metric> metrics = per_layer(
      traced, log, ratio(b - a, a), quantile(plain_series.round_ms, q));
  print_summary(args.workload, args.seed, sizes, traced, metrics);
  std::cout << "  round_ms_tail is p" << std::setprecision(4) << q * 100
            << " of " << plain_series.round_ms.size()
            << " untraced round slots\n";
  if (!args.spans.empty() && !log.write(args.spans)) {
    std::cerr << "perfbench: cannot write " << args.spans << "\n";
    return 1;
  }
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  print_result(traced, metrics);
  return 0;
}
