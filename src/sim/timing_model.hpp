// Calibrated timing/latency model: the switch pipeline latency, clock
// synchronization quality, control-plane scheduling jitter, CPU<->ASIC
// channel latencies, and the polling baseline. Link bandwidths and
// propagation delays belong to the topology (net::TopologySpec).
//
// Defaults are calibrated so the headline results land in the ranges the
// paper reports (see DESIGN.md section 5):
//   - Fig. 9: snapshot sync median ~6.4us, max 22-27us; polling median ~2.6ms
//   - Fig.10: ~70 snapshots/s sustained at 64 ports
//   - Fig.11: average sync < 100us even at 10,000 routers
#pragma once

#include <cstddef>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

struct TimingModel {
  // --- Switch pipeline -----------------------------------------------------
  /// Pipeline latency, charged before the ingress unit (on inbound links
  /// and after probes' CPU path) or, for initiations, which skip the
  /// queue, between the ingress and egress units. Links sample it when
  /// they connect.
  Duration fabric_delay = nsec(400);

  // --- Clock synchronization (PTP) ---------------------------------------
  /// Standard deviation of the residual offset right after a PTP sync.
  Duration ptp_residual_stddev = nsec(2'200);
  /// Interval between PTP corrections.
  Duration ptp_sync_interval = sec(1.0);
  /// Oscillator drift magnitude, parts per million (uniform in +/- this).
  double clock_drift_ppm = 10.0;

  // --- Control-plane execution --------------------------------------------
  /// OS scheduling delay between a timer firing and the control-plane
  /// process actually running: lognormal(mu, sigma) in nanoseconds.
  /// Median exp(mu) ~ 2us with a long tail (OpenNetworkLinux effect).
  double sched_jitter_mu = 7.6;     // exp(7.6) ~ 2.0us
  double sched_jitter_sigma = 0.55;
  /// Per-port cost of dispatching one initiation message from the CPU into
  /// the data plane (sequential over ports of a switch).
  Duration initiation_dispatch_per_port = nsec(900);
  /// Latency for an initiation message to traverse CPU PCIe -> ingress unit.
  Duration cpu_to_dataplane_latency = usec(2.0);

  // --- Notification channel (data plane -> CPU) ---------------------------
  /// PCIe/DMA latency for a notification to reach the CPU socket buffer.
  Duration notification_pcie_latency = usec(2.0);
  /// Control-plane service time per notification (the Fig. 10 bottleneck).
  Duration notification_service_time = usec(110.0);
  /// Socket receive buffer capacity, in notifications. Overflow drops.
  std::size_t notification_buffer_capacity = 4096;
  /// Random loss probability on the notification channel.
  double notification_drop_probability = 0.0;

  // --- Digest-stream alternative (Section 7.2; rejected by the paper) -----
  /// Notifications per digest before a flush is forced.
  std::size_t digest_batch_size = 32;
  /// Max time a notification may sit in the accumulating digest.
  Duration digest_flush_timeout = usec(200.0);
  /// Driver/RPC overhead per digest ("significantly worse" than the raw
  /// socket on the paper's switch CPU).
  Duration digest_batch_overhead = usec(800.0);
  /// Per-entry decode cost within a digest.
  Duration digest_per_entry_cost = usec(120.0);
  /// Pending digests the driver will queue before dropping.
  std::size_t digest_queue_capacity = 64;

  // --- Register access -----------------------------------------------------
  /// Control-plane register read (used when collecting snapshot values and
  /// for the proactive recovery poll).
  Duration register_read_latency = usec(40.0);

  // --- Polling baseline (Section 8.1 comparison) ---------------------------
  /// Per-port on-demand counter poll: lognormal with median ~95us. A full
  /// sequential sweep of the 28-unit testbed then spans ~2.6ms.
  double poll_latency_mu = 11.46;   // exp(11.46) ~ 95us
  double poll_latency_sigma = 0.35;

  // --- Observer ------------------------------------------------------------
  /// One-way latency between the observer host and a switch control plane.
  Duration observer_rpc_latency = usec(50.0);
  /// Re-initiation timeout for incomplete snapshots.
  Duration reinitiation_timeout = msec(5.0);

  /// Sample the scheduling jitter for one control-plane wakeup.
  Duration sample_sched_jitter(Rng& rng) const {
    return static_cast<Duration>(rng.lognormal(sched_jitter_mu, sched_jitter_sigma));
  }

  /// Sample one polling round-trip for the baseline.
  Duration sample_poll_latency(Rng& rng) const {
    return static_cast<Duration>(rng.lognormal(poll_latency_mu, poll_latency_sigma));
  }

  /// Sample a PTP residual offset.
  Duration sample_ptp_residual(Rng& rng) const {
    return static_cast<Duration>(
        rng.normal(0.0, static_cast<double>(ptp_residual_stddev)));
  }

  /// Sample an oscillator drift rate.
  double sample_drift_ppm(Rng& rng) const {
    return rng.uniform(-clock_drift_ppm, clock_drift_ppm);
  }
};

}  // namespace speedlight::sim
