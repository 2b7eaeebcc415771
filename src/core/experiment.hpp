// Campaign helpers shared by the benchmark harnesses and examples: run
// trains of snapshots or polling sweeps against a live network and collect
// per-unit time series.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "net/types.hpp"
#include "polling/polling_observer.hpp"
#include "snapshot/observer.hpp"

namespace speedlight::core {

struct SnapshotCampaign {
  std::vector<snap::VirtualSid> ids;  ///< Requested snapshot ids, in order.
  std::size_t skipped = 0;            ///< Requests refused (rollover window).

  /// Completed results, in request order (nullptr for incomplete ones
  /// filtered out).
  [[nodiscard]] std::vector<const snap::GlobalSnapshot*> results(
      const Network& net) const;
};

/// A train of snapshot requests scheduled on a network but not yet run: the
/// campaign fills in as the simulation reaches each request.
struct SnapshotTrain {
  std::shared_ptr<SnapshotCampaign> campaign;
  sim::SimTime last_fire = 0;  ///< Fire time of the train's last snapshot.
  /// last_fire plus the observer's completion timeout plus `settle`: by
  /// then every accepted request has completed or timed out.
  sim::SimTime deadline = 0;
};

/// Schedule `count` snapshot requests, `interval` apart, the first firing at
/// now+lead; each request is issued `lead` before its fire time.
SnapshotTrain schedule_snapshot_train(Network& net, std::size_t count,
                                      sim::Duration interval,
                                      sim::Duration lead = sim::msec(1),
                                      sim::Duration settle = sim::msec(5));

/// Schedule a snapshot train (schedule_snapshot_train) and run the
/// simulation to its deadline.
SnapshotCampaign run_snapshot_campaign(Network& net, std::size_t count,
                                       sim::Duration interval,
                                       sim::Duration lead = sim::msec(1),
                                       sim::Duration settle = sim::msec(5));

/// Run `count` polling sweeps, `interval` apart, the first at now+lead.
/// Units must already be registered with net.poller().
std::vector<poll::PollSweep> run_polling_campaign(
    Network& net, std::size_t count, sim::Duration interval,
    sim::Duration lead = sim::msec(1), sim::Duration settle = sim::msec(5));

/// Extract one metric value per requested unit from a snapshot; returns
/// false if any unit's report is missing or inconsistent.
bool extract_values(const snap::GlobalSnapshot& snap,
                    const std::vector<net::UnitId>& units,
                    std::vector<double>& out);

/// Extract the same units from a polling sweep (false if any is missing).
bool extract_values(const poll::PollSweep& sweep,
                    const std::vector<net::UnitId>& units,
                    std::vector<double>& out);

/// CSV export for offline analysis: one row per (snapshot, unit) with
/// header `snapshot_id,scheduled_ms,switch,port,direction,consistent,
/// inferred,value,channel_value,advance_us`.
void write_snapshot_csv(std::ostream& os,
                        const std::vector<const snap::GlobalSnapshot*>& snaps);

}  // namespace speedlight::core
