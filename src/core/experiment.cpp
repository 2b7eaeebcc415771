#include "core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

namespace speedlight::core {

std::vector<const snap::GlobalSnapshot*> SnapshotCampaign::results(
    const Network& net) const {
  std::vector<const snap::GlobalSnapshot*> out;
  out.reserve(ids.size());
  // Network::observer() is non-const only for registration; results are
  // read-only.
  auto& observer = const_cast<Network&>(net).observer();
  for (const auto id : ids) {
    const snap::GlobalSnapshot* snap = observer.result(id);
    if (snap != nullptr && snap->complete) out.push_back(snap);
  }
  return out;
}

SnapshotTrain schedule_snapshot_train(Network& net, std::size_t count,
                                      sim::Duration interval,
                                      sim::Duration lead,
                                      sim::Duration settle) {
  auto campaign = std::make_shared<SnapshotCampaign>();
  const sim::SimTime base = net.now() + lead;
  for (std::size_t i = 0; i < count; ++i) {
    const sim::SimTime fire = base + static_cast<sim::SimTime>(i) * interval;
    // Issue the request shortly before the fire time so the rollover window
    // tracks actual completion progress.
    const sim::SimTime request_at = fire - lead < net.now() ? net.now() : fire - lead;
    net.simulator().at(request_at, [campaign, &net, fire]() {
      if (const auto id = net.observer().request_snapshot(fire)) {
        campaign->ids.push_back(*id);
      } else {
        ++campaign->skipped;
      }
    });
  }
  const sim::SimTime last_fire =
      base + static_cast<sim::SimTime>(count ? count - 1 : 0) * interval;
  return {std::move(campaign), last_fire,
          last_fire + net.options().observer.completion_timeout + settle};
}

SnapshotCampaign run_snapshot_campaign(Network& net, std::size_t count,
                                       sim::Duration interval,
                                       sim::Duration lead,
                                       sim::Duration settle) {
  const SnapshotTrain train =
      schedule_snapshot_train(net, count, interval, lead, settle);
  net.run_until(train.deadline);
  return *train.campaign;
}

std::vector<poll::PollSweep> run_polling_campaign(Network& net,
                                                  std::size_t count,
                                                  sim::Duration interval,
                                                  sim::Duration lead,
                                                  sim::Duration settle) {
  auto sweeps = std::make_shared<std::vector<poll::PollSweep>>();
  const sim::SimTime base = net.now() + lead;
  for (std::size_t i = 0; i < count; ++i) {
    net.poller().sweep_at(base + static_cast<sim::SimTime>(i) * interval,
                          [sweeps](poll::PollSweep sweep) {
                            sweeps->push_back(std::move(sweep));
                          });
  }
  const sim::SimTime last = base + static_cast<sim::SimTime>(count ? count - 1 : 0) * interval;
  // A sweep takes ~(#units * poll latency); leave generous slack.
  net.run_until(last + sim::msec(50) + settle);
  return *sweeps;
}

bool extract_values(const snap::GlobalSnapshot& snap,
                    const std::vector<net::UnitId>& units,
                    std::vector<double>& out) {
  out.clear();
  out.reserve(units.size());
  for (const auto& unit : units) {
    const auto it = snap.reports.find(unit);
    if (it == snap.reports.end() || !it->second.consistent) return false;
    out.push_back(static_cast<double>(it->second.local_value));
  }
  return true;
}

bool extract_values(const poll::PollSweep& sweep,
                    const std::vector<net::UnitId>& units,
                    std::vector<double>& out) {
  out.clear();
  out.reserve(units.size());
  for (const auto& unit : units) {
    bool found = false;
    for (const auto& sample : sweep.samples) {
      if (sample.unit == unit) {
        out.push_back(static_cast<double>(sample.value));
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

void write_snapshot_csv(std::ostream& os,
                        const std::vector<const snap::GlobalSnapshot*>& snaps) {
  os << "snapshot_id,scheduled_ms,switch,port,direction,consistent,inferred,"
        "value,channel_value,advance_us\n";
  for (const auto* s : snaps) {
    // Deterministic row order: sort units.
    std::vector<net::UnitId> units;
    units.reserve(s->reports.size());
    for (const auto& [unit, r] : s->reports) units.push_back(unit);
    std::sort(units.begin(), units.end());
    for (const auto& unit : units) {
      const auto& r = s->reports.at(unit);
      os << s->id << ',' << sim::to_msec(s->scheduled_at) << ',' << unit.node
         << ',' << unit.port << ','
         << (unit.direction == net::Direction::Ingress ? "ingress" : "egress")
         << ','
         << (r.consistent ? 1 : 0) << ',' << (r.inferred ? 1 : 0) << ','
         << r.local_value << ',' << r.channel_value << ','
         << sim::to_usec(r.advance_time) << "\n";
    }
  }
}

}  // namespace speedlight::core
