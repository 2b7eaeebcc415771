#include "check/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/faults.hpp"
#include "obs/trace.hpp"
#include "sim/determinism.hpp"
#include "workload/basic.hpp"
#include "workload/mixes.hpp"

namespace speedlight::check {

namespace {

/// FNV-1a over one 64-bit word, used both for the ordered rolling digest
/// and (via commutative folding at the report level) for iteration-order
/// independence over unordered report maps.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t report_hash(const snap::UnitReport& r) {
  std::uint64_t h = 14695981039346656037ull;
  h = mix64(h, obs::pack_unit(r.unit));
  h = mix64(h, r.sid);
  h = mix64(h, (static_cast<std::uint64_t>(r.consistent) << 1) |
                   static_cast<std::uint64_t>(r.inferred));
  h = mix64(h, r.local_value);
  h = mix64(h, r.channel_value);
  h = mix64(h, static_cast<std::uint64_t>(r.advance_time));
  h = mix64(h, static_cast<std::uint64_t>(r.finalize_time));
  return h;
}

/// Step of the settle check after a snapshot train's last fire time.
constexpr sim::Duration kSettleWindow = sim::usec(100);

struct SingleRun {
  RunResult result;  ///< Violations from the run's own invariants.
  /// Completed snapshots, copied out so the oracle comparison can outlive
  /// the network.
  std::map<snap::VirtualSid, snap::GlobalSnapshot> completed;
};

SingleRun run_once(const Scenario& s, const RunOptions& opts,
                   bool hardware_faithful) {
  // Every run doubles as a determinism audit: the auditor fingerprints
  // same-timestamp event pairs touching a common unit, and the allocation
  // guard counts data-path allocations (both no-ops unless the build sets
  // SPEEDLIGHT_CHECK_DETERMINISM).
  sim::det::Auditor auditor;
  auditor.install();
  const std::uint64_t allocs_before = sim::det::datapath_allocs();

  core::NetworkOptions nopt = s.network_options();
  nopt.snapshot.hardware_faithful = hardware_faithful;
  // Uncharged service: the codecs must be behaviorally invisible, so the
  // digest doubles as a byte-exact encode/decode round-trip check over the
  // whole fault schedule.
  nopt.wire.encoding = opts.wire == WireMode::FullV2
                           ? snap::WireEncoding::FullV2
                           : snap::WireEncoding::DeltaV2;
  nopt.wire.compact_timestamps = opts.wire == WireMode::DeltaCompact;
  nopt.wire.charge_bytes = false;
  const sim::TimingModel base_timing = nopt.timing;
  core::Network net(s.topology(), nopt);
  sim::Simulator& sim = net.simulator();

  // Workload: one generator per source host (round-robin over hosts), the
  // shape picked by s.workload.mix.
  std::vector<net::NodeId> all;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    all.push_back(net.host_id(h));
  }
  std::vector<std::unique_ptr<wl::Generator>> gens;
  const std::size_t n_gens =
      std::max<std::size_t>(1, std::min(s.workload.generators, net.num_hosts()));
  for (std::size_t g = 0; g < n_gens; ++g) {
    const std::size_t h = g % net.num_hosts();
    sim::Rng rng(s.seed * 977 + g);
    std::unique_ptr<wl::Generator> gen;
    switch (s.workload.mix) {
      case MixKind::AllToAll: {
        std::vector<net::NodeId> dsts;
        for (const auto id : all) {
          if (id != net.host_id(h)) dsts.push_back(id);
        }
        if (dsts.empty()) break;  // Single-host topology: nothing to send to.
        gen = std::make_unique<wl::PoissonGenerator>(
            sim, net.host(h), std::move(dsts), s.workload.rate_pps,
            s.workload.packet_size, rng);
        break;
      }
      case MixKind::Incast: {
        // Fixed victim (the last host); every other source storms it on a
        // shared cadence.
        if (net.num_hosts() < 2 || h == net.num_hosts() - 1) break;
        wl::IncastGenerator::Options io;
        io.packet_size = s.workload.packet_size;
        io.period = sim::usec(500);
        io.burst_packets = 32;
        gen = std::make_unique<wl::IncastGenerator>(sim, net.host(h),
                                                    all.back(), io, rng);
        break;
      }
      case MixKind::Shuffle: {
        std::vector<net::NodeId> peers;
        for (const auto id : all) {
          if (id != net.host_id(h)) peers.push_back(id);
        }
        if (peers.empty()) break;
        wl::ShuffleGenerator::Options so;
        so.packet_size = s.workload.packet_size;
        so.chunk_bytes = 32 * 1024;
        gen = std::make_unique<wl::ShuffleGenerator>(
            sim, net.host(h), std::move(peers), h, so, rng);
        break;
      }
      case MixKind::MixedTenant: {
        wl::MixedTenantGenerator::Options mo;
        mo.service_rate_pps = s.workload.rate_pps;
        mo.service_packet_size = s.workload.packet_size;
        // Cap batch packets at the scenario's packet size: the checker's
        // per-drop conservation slack is sized from it.
        mo.batch_packet_size = s.workload.packet_size;
        gen = std::make_unique<wl::MixedTenantGenerator>(sim, net.host(h), h,
                                                         all, mo, rng);
        break;
      }
    }
    if (!gen) continue;
    gen->start(net.now());
    gens.push_back(std::move(gen));
  }

  // Fault schedule. All windows are relative to the end of warmup. Window
  // ends restore the scenario's base value (overlapping windows of the
  // same kind therefore end with the earliest restore — a deliberate,
  // deterministic simplification).
  std::vector<std::unique_ptr<net::LinkFlapper>> flappers;
  // Each flapped trunk with the loss it had before any fault touched it
  // (only flappers move a trunk's loss).
  std::vector<std::pair<const net::Link*, double>> flapped;
  sim::SimTime faults_end = 0;  // When the last fault window closes.
  const sim::SimTime epoch = s.warmup;
  const std::size_t num_trunks = net.spec().trunks.size();
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    const FaultSpec& f = s.faults[i];
    const sim::SimTime start = epoch + f.start;
    const sim::SimTime end = start + f.duration;
    faults_end = std::max(faults_end, end);
    switch (f.kind) {
      case FaultKind::LinkFlap: {
        if (num_trunks == 0) break;
        const std::size_t trunk = f.trunk % num_trunks;
        net::Link& link = net.trunk_link(trunk, f.a_to_b);
        flapped.emplace_back(&link, link.loss_probability());
        auto fl = std::make_unique<net::LinkFlapper>(
            sim, link, f.up_mean, f.down_mean,
            sim::Rng(s.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1))));
        fl->start(start);
        sim.at(end, [p = fl.get()]() { p->stop(); });
        flappers.push_back(std::move(fl));
        break;
      }
      case FaultKind::NotifDropBurst:
        net.mutate_timing_at(start, [m = f.magnitude](sim::TimingModel& tm) {
          tm.notification_drop_probability = m;
        });
        net.mutate_timing_at(
            end,
            [v = base_timing.notification_drop_probability](
                sim::TimingModel& tm) { tm.notification_drop_probability = v; });
        break;
      case FaultKind::CpuBacklogSpike: {
        const auto spiked = static_cast<sim::Duration>(
            static_cast<double>(base_timing.notification_service_time) *
            f.magnitude);
        net.mutate_timing_at(start, [spiked](sim::TimingModel& tm) {
          tm.notification_service_time = spiked;
        });
        net.mutate_timing_at(
            end,
            [v = base_timing.notification_service_time](sim::TimingModel& tm) {
              tm.notification_service_time = v;
            });
        break;
      }
      case FaultKind::ObserverRestart:
        sim.at(start, [&net]() { net.observer().set_down(true); });
        sim.at(end, [&net]() { net.observer().set_down(false); });
        break;
    }
  }

  net.run_for(s.warmup);
  const core::SnapshotTrain train =
      core::schedule_snapshot_train(net, s.snapshots, s.interval);
  // The run is settled once every accepted request has completed (a
  // timed-out snapshot completes at its deadline), the last fault window
  // has closed and every flapped trunk is back at its pre-fault loss.
  // Nothing simulated after that moves a snapshot, a count or a check, so
  // the run stops at the first settled window boundary after the train,
  // and never later than the deadline core::run_snapshot_campaign runs to.
  const auto settled = [&] {
    const snap::Observer& observer = net.observer();
    return observer.completed_count() == observer.requested_count() &&
           net.now() >= faults_end &&
           std::all_of(flapped.begin(), flapped.end(), [](const auto& fl) {
             return fl.first->loss_probability() == fl.second;
           });
  };
  net.run_until(train.last_fire);
  while (net.now() < train.deadline && !settled()) {
    net.run_until(std::min(net.now() + kSettleWindow, train.deadline));
  }
  const core::SnapshotCampaign& campaign = *train.campaign;

  CheckOptions copt;
  copt.subtract_channel_state = !opts.break_conservation;
  // The synchronization guarantee (Figure 9's span) holds for healthy
  // marker delivery only: any fault can force re-initiation, which
  // legitimately spreads local snapshot instants by the timeout, not the
  // clock error. Bound the span only in fault-free scenarios.
  copt.sync_span_bound =
      s.faults.empty()
          ? sync_span_bound(s.ptp_residual_stddev, s.drift_ppm, net.now())
          : 0;
  copt.per_drop_slack =
      s.metric == sw::MetricKind::ByteCount ? s.workload.packet_size : 1;
  copt.expect_complete =
      s.faults.empty() && s.transport == snap::NotificationMode::RawSocket;
  ConsistencyChecker checker(net, copt);

  SingleRun out;
  out.result.violations = checker.check_all(campaign);
  out.result.requested = campaign.ids.size();
  out.result.skipped = campaign.skipped;
  out.result.conservation_checked = checker.conservation_checked();
  for (const auto* snap : campaign.results(net)) {
    out.completed.emplace(snap->id, *snap);
  }
  out.result.completed = out.completed.size();
  out.result.simulated = net.now();
  for (std::size_t t = 0; t < num_trunks; ++t) {
    out.result.link_drops += net.trunk_link(t, true).packets_dropped();
    out.result.link_drops += net.trunk_link(t, false).packets_dropped();
  }
  for (const auto& fl : flappers) out.result.flaps += fl->flaps();

  auditor.uninstall();
  out.result.tie_fingerprint = auditor.fingerprint();
  out.result.tie_pairs = auditor.tie_pairs();
  out.result.datapath_allocs = sim::det::datapath_allocs() - allocs_before;

  // Rolling end-state digest: ordered over snapshot ids (std::map), with
  // the per-report hashes folded commutatively (XOR) so the unordered
  // report map's iteration order cannot leak into the digest.
  std::uint64_t digest = 14695981039346656037ull;
  for (const auto& [id, snap] : out.completed) {
    digest = mix64(digest, id);
    digest = mix64(digest, static_cast<std::uint64_t>(snap.completed_at));
    digest = mix64(digest, snap.complete ? 1 : 0);
    std::uint64_t reports = 0;
    for (const auto& [unit, report] : snap.reports) {
      reports ^= report_hash(report);
    }
    digest = mix64(digest, reports);
  }
  digest = mix64(digest, out.result.requested);
  digest = mix64(digest, out.result.skipped);
  digest = mix64(digest, out.result.conservation_checked);
  digest = mix64(digest, out.result.link_drops);
  out.result.digest = digest;
  return out;
}

}  // namespace

RunResult run_scenario(const Scenario& s, const RunOptions& opts) {
  if (opts.shards != 1) {
    throw std::invalid_argument("RunOptions::shards " +
                                std::to_string(opts.shards) + " is not 1");
  }
  SingleRun hw = run_once(s, opts, /*hardware_faithful=*/true);
  RunResult result = std::move(hw.result);
  if (opts.with_oracle) {
    const SingleRun ideal = run_once(s, opts, /*hardware_faithful=*/false);
    ConsistencyChecker::check_oracle(hw.completed, ideal.completed,
                                     result.violations);
    // Fold the twin into the run's identity so --digest also pins down the
    // idealized path, and aggregate its audit counters.
    result.digest = mix64(result.digest, ideal.result.digest);
    result.tie_fingerprint =
        mix64(result.tie_fingerprint, ideal.result.tie_fingerprint);
    result.tie_pairs += ideal.result.tie_pairs;
    result.simulated += ideal.result.simulated;
    result.datapath_allocs += ideal.result.datapath_allocs;
  }
  return result;
}

namespace {

std::size_t num_switches(const Scenario& s) {
  return s.topology().switches.size();
}

/// Reduction candidates, most aggressive first within each family.
std::vector<Scenario> shrink_candidates(const Scenario& s) {
  std::vector<Scenario> out;

  // 1. Drop faults one at a time (later faults first: they are likelier
  //    incidental to a failure triggered early in the schedule).
  for (std::size_t i = s.faults.size(); i-- > 0;) {
    Scenario c = s;
    c.faults.erase(c.faults.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }

  // 2. Topology ladder: candidates with strictly fewer switches.
  const std::size_t cur = num_switches(s);
  auto push_topo = [&](TopoKind k, std::size_t a, std::size_t b,
                       std::size_t c) {
    Scenario t = s;
    t.topo = k;
    t.size_a = a;
    t.size_b = b;
    t.size_c = c;
    if (num_switches(t) < cur) out.push_back(std::move(t));
  };
  switch (s.topo) {
    case TopoKind::FatTree:
      push_topo(TopoKind::LeafSpine, 2, 2, 2);
      break;
    case TopoKind::LeafSpine:
      if (s.size_a > 2) push_topo(TopoKind::LeafSpine, s.size_a - 1, s.size_b, s.size_c);
      if (s.size_b > 1) push_topo(TopoKind::LeafSpine, s.size_a, s.size_b - 1, s.size_c);
      if (s.size_c > 1) push_topo(TopoKind::LeafSpine, s.size_a, s.size_b, s.size_c - 1);
      break;
    case TopoKind::Ring:
      if (s.size_a > 3) push_topo(TopoKind::Ring, s.size_a - 1, s.size_b, s.size_c);
      break;
    case TopoKind::Line:
      if (s.size_a > 2) push_topo(TopoKind::Line, s.size_a - 1, s.size_b, s.size_c);
      break;
    default:
      break;
  }
  push_topo(TopoKind::Line, 2, 2, 2);  // The 2-switch floor, from any family.

  // 3. Shorter snapshot train.
  if (s.snapshots > 2) {
    Scenario c = s;
    c.snapshots = std::max<std::size_t>(2, s.snapshots / 2);
    out.push_back(std::move(c));
  }

  // 4. Thinner workload.
  if (s.workload.generators > 1) {
    Scenario c = s;
    c.workload.generators = s.workload.generators / 2;
    out.push_back(std::move(c));
  }
  if (s.workload.rate_pps > 10'000.0) {
    Scenario c = s;
    c.workload.rate_pps = s.workload.rate_pps / 2.0;
    out.push_back(std::move(c));
  }

  // 5. Shorter run.
  if (s.interval > sim::msec(1)) {
    Scenario c = s;
    c.interval = std::max<sim::Duration>(sim::msec(1), s.interval / 2);
    out.push_back(std::move(c));
  }
  if (s.warmup > sim::msec(1)) {
    Scenario c = s;
    c.warmup = std::max<sim::Duration>(sim::msec(1), s.warmup / 2);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

ShrinkResult shrink_scenario(const Scenario& failing, const RunOptions& opts,
                             std::size_t max_attempts) {
  ShrinkResult res;
  res.scenario = failing;
  res.result = run_scenario(failing, opts);
  if (!res.result.failed()) return res;  // Nothing to shrink.

  bool improved = true;
  while (improved && res.attempts < max_attempts) {
    improved = false;
    for (const Scenario& cand : shrink_candidates(res.scenario)) {
      if (res.attempts >= max_attempts) break;
      ++res.attempts;
      RunResult r = run_scenario(cand, opts);
      if (r.failed()) {
        res.scenario = cand;
        res.result = std::move(r);
        ++res.steps;
        improved = true;
        break;  // Restart from the reduced scenario.
      }
    }
  }
  // The shrunk scenario must round-trip through its own serialization (the
  // reproducer is shipped as a file); rates/magnitudes halved above stay
  // exactly representable, so parse(to_string(s)) replays identically.
  return res;
}

void FuzzStats::register_metrics(obs::MetricsRegistry& reg) const {
  using obs::MetricKind;
  reg.register_reader("fuzz.runs", MetricKind::Counter,
                      [this] { return runs; });
  reg.register_reader("fuzz.failures", MetricKind::Counter,
                      [this] { return failures; });
  reg.register_reader("fuzz.violations", MetricKind::Counter,
                      [this] { return violations; });
  reg.register_reader("fuzz.snapshots_checked", MetricKind::Counter,
                      [this] { return snapshots_checked; });
  reg.register_reader("fuzz.conservation_checked", MetricKind::Counter,
                      [this] { return conservation_checked; });
  reg.register_reader("fuzz.shrink_attempts", MetricKind::Counter,
                      [this] { return shrink_attempts; });
  reg.register_reader("fuzz.shrink_steps", MetricKind::Counter,
                      [this] { return shrink_steps; });
  reg.register_reader("fuzz.replays", MetricKind::Counter,
                      [this] { return replays; });
  reg.register_reader("fuzz.digest_runs", MetricKind::Counter,
                      [this] { return digest_runs; });
  reg.register_reader("fuzz.digest_divergences", MetricKind::Counter,
                      [this] { return digest_divergences; });
  reg.register_reader("fuzz.tie_pairs", MetricKind::Counter,
                      [this] { return tie_pairs; });
  reg.register_reader("fuzz.datapath_allocs", MetricKind::Counter,
                      [this] { return datapath_allocs; });
  reg.register_reader("fuzz.simulated_ms", MetricKind::Counter, [this] {
    return static_cast<std::uint64_t>(std::llround(simulated_ms));
  });
}

}  // namespace speedlight::check
