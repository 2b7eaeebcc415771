#include "sim/parallel.hpp"

#include <algorithm>
#include <limits>

#include "obs/prof.hpp"

namespace speedlight::sim {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// a + b without signed overflow (both non-negative in engine use).
constexpr SimTime sat_add(SimTime a, Duration b) {
  return a > kNever - b ? kNever : a + b;
}

}  // namespace

void ShardChannel::post(SimTime time, MergeKey key, InplaceCallback fn) {
  ++posted_;
  // Growth is amortized like any freelist: drains keep the capacity.
  det::DetAllow allow_growth;
  pending_.push_back(ShardMessage{time, key, std::move(fn)});
}

std::size_t ShardChannel::drain_into(Simulator& sim) {
  for (ShardMessage& msg : pending_) {
    assert(msg.time >= sim.now() && "lookahead violation: message in past");
    sim.at_keyed(msg.time, msg.key, std::move(msg.fn));
  }
  const std::size_t drained = pending_.size();
  pending_.clear();
  return drained;
}

ParallelEngine::ParallelEngine(std::vector<Simulator*> shards)
    : shards_(std::move(shards)),
      channels_(shards_.size() * shards_.size()),
      incoming_(shards_.size(),
                std::vector<ShardChannel*>(shards_.size(), nullptr)),
      closure_(shards_.size() * shards_.size(), kNever),
      cycle_(shards_.size(), kNever) {
  assert(!shards_.empty());
  contexts_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    contexts_.push_back(std::make_unique<SimContext>());
  }
}

ParallelEngine::~ParallelEngine() = default;

void ParallelEngine::enable_profiling(std::size_t capacity_per_shard) {
#ifdef SPEEDLIGHT_TRACE_DISABLED
  (void)capacity_per_shard;
#else
  if (prof_ == nullptr) prof_ = std::make_unique<obs::EngineProfiler>();
  prof_->enable(shards_.size(), capacity_per_shard);
#endif
}

ShardChannel& ParallelEngine::channel(std::size_t from, std::size_t to) {
  assert(from < shards_.size() && to < shards_.size() && from != to);
  std::unique_ptr<ShardChannel>& slot = channels_[from * shards_.size() + to];
  if (slot == nullptr) {
    slot = std::make_unique<ShardChannel>();
    incoming_[to][from] = slot.get();
    closure_dirty_ = true;
  }
  return *slot;
}

Duration ParallelEngine::lookahead() const {
  Duration min = kNever;
  for (const auto& ch : channels_) {
    if (ch != nullptr && ch->latency() < min) min = ch->latency();
  }
  return min;
}

void ParallelEngine::refresh_closure() {
  const std::size_t n = shards_.size();
  // Direct edges: a channel's own advertised latency. Channels that do not
  // exist carry no messages and impose no constraint.
  for (std::size_t f = 0; f < n; ++f) {
    for (std::size_t t = 0; t < n; ++t) {
      const ShardChannel* ch = channels_[f * n + t].get();
      closure_[f * n + t] = ch == nullptr ? kNever : ch->latency();
    }
    closure_[f * n + f] = 0;
  }
  // Min-plus closure (Floyd–Warshall): D[j][i] bounds every causal chain
  // j -> ... -> i, which is what makes per-pair horizons sound when a
  // cheap two-hop path undercuts an expensive direct channel.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime ik = closure_[i * n + k];
      if (ik == kNever) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const SimTime kj = closure_[k * n + j];
        if (kj == kNever) continue;
        closure_[i * n + j] = std::min(closure_[i * n + j], ik + kj);
      }
    }
  }
  // Cheapest feedback cycle through each shard: the self-lookahead bound
  // that caps run-ahead against a shard's own future echoes.
  for (std::size_t i = 0; i < n; ++i) {
    SimTime c = kNever;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const SimTime out = closure_[i * n + j];
      const SimTime back = closure_[j * n + i];
      if (out == kNever || back == kNever) continue;
      c = std::min(c, out + back);
    }
    cycle_[i] = c;
  }
  closure_dirty_ = false;
}

std::size_t ParallelEngine::drain_incoming(std::size_t i) {
  // Producer-index order: deterministic regardless of channel creation
  // order (merge keys make cross-channel drain order immaterial anyway).
  std::size_t drained = 0;
  for (ShardChannel* ch : incoming_[i]) {
    if (ch != nullptr) drained += ch->drain_into(*shards_[i]);
  }
  return drained;
}

std::size_t ParallelEngine::run_until(SimTime until) {
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> executed_before(n);
  for (std::size_t i = 0; i < n; ++i) {
    executed_before[i] = shards_[i]->stats().executed;
  }
  last_run_ = EngineRunStats{};
  last_run_.shards.assign(n, ShardRunStats{});
  for (ShardRunStats& st : last_run_.shards) {
    st.stalls_by_producer.assign(n, 0);
  }
  if (closure_dirty_) refresh_closure();

  run_sweeps(until);

  // Match Simulator::run_until: a finite horizon leaves every clock there,
  // so back-to-back runs behave like one continuous run on every shard.
  if (until != kNever) {
    for (Simulator* s : shards_) s->advance_now(until);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ShardRunStats& st = last_run_.shards[i];
    st.executed = shards_[i]->stats().executed - executed_before[i];
    last_run_.executed += st.executed;
    // Channel counters are lifetime totals; reporting them per run would
    // need snapshots, but runs are almost always one-shot — document as
    // cumulative instead.
    for (std::size_t to = 0; to < n; ++to) {
      if (const ShardChannel* ch = channels_[i * n + to].get()) {
        st.posted += ch->posted();
      }
    }
  }
  return static_cast<std::size_t>(last_run_.executed);
}

void ParallelEngine::run_sweeps(SimTime until) {
  const std::size_t n = shards_.size();
  std::vector<SimTime> m(n, kNever);
  std::vector<SimTime> horizon(n, kNever);
#ifndef SPEEDLIGHT_TRACE_DISABLED
  const bool profile = prof_ != nullptr && prof_->enabled();
  // Per-shard carry between the sweep's phases (drain -> plan -> run);
  // stall records are emitted at plan time, window records right after
  // their window runs (once the executed count exists) — records are
  // built in registers and stored once, never staged.
  std::vector<std::uint64_t> prof_drained(profile ? n : 0);
  std::vector<std::uint32_t> prof_binding(profile ? n : 0);
  std::vector<obs::Binding> prof_kind(profile ? n : 0);
#endif
  for (;;) {
    // Lockstep sweep: full drain (channels are empty afterwards, so the
    // m's alone bound all future traffic), publish, plan, run. Deliveries
    // are batched per window — one drain per sweep, never one per event.
    for (std::size_t i = 0; i < n; ++i) {
      SimContext::Scoped ctx(*contexts_[i]);
      const std::size_t drained = drain_incoming(i);
      m[i] = shards_[i]->next_event_time();
      (void)drained;
#ifndef SPEEDLIGHT_TRACE_DISABLED
      if (profile) prof_drained[i] = drained;
#endif
    }
    const SimTime global_min = *std::min_element(m.begin(), m.end());
    if (global_min > until) break;
    for (std::size_t i = 0; i < n; ++i) {
      // Self term first: i's own echoes bound it to m_i + C[i].
      SimTime h = std::min(sat_add(until, 1), sat_add(m[i], cycle_[i]));
      std::size_t binding = i;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const SimTime bound = sat_add(m[j], closure(j, i));
        if (bound < h) {
          h = bound;
          binding = j;
        }
      }
      horizon[i] = h;
      ShardRunStats& st = last_run_.shards[i];
      if (m[i] < h) {
        ++st.windows;
        st.window_span_sum += h - m[i];
      } else if (m[i] <= until) {
        ++st.horizon_stalls;
        if (binding != i) ++st.stalls_by_producer[binding];
      }
#ifndef SPEEDLIGHT_TRACE_DISABLED
      if (profile) {
        const obs::Binding kind =
            binding != i                ? obs::Binding::Peer
            : h == sat_add(until, 1)    ? obs::Binding::Until
                                        : obs::Binding::SelfCycle;
        if (m[i] < h) {
          // Window: the executed count only exists after run_before, so
          // stash the binding and record in the execution loop below.
          prof_binding[i] = static_cast<std::uint32_t>(binding);
          prof_kind[i] = kind;
        } else if (m[i] <= until) {
          // Stall: complete now. Idle shards (no pending event within the
          // run) record nothing, matching horizon_stalls above.
          obs::RoundRecord r{};
          r.m = m[i];
          r.horizon = h;
          r.round = last_run_.rounds;
          r.drained = prof_drained[i];
          r.shard = static_cast<std::uint32_t>(i);
          r.binding_shard = static_cast<std::uint32_t>(binding);
          r.binding = kind;
          r.ran = false;
          prof_->shard(i).record_round(r);
        }
      }
#endif
    }
#ifndef SPEEDLIGHT_TRACE_DISABLED
    std::uint64_t max_executed = 0;
#endif
    for (std::size_t i = 0; i < n; ++i) {
      if (m[i] >= horizon[i]) continue;
      SimContext::Scoped ctx(*contexts_[i]);
#ifndef SPEEDLIGHT_TRACE_DISABLED
      if (profile) {
        const std::uint64_t before = shards_[i]->stats().executed;
        shards_[i]->run_before(horizon[i]);
        obs::RoundRecord r{};
        r.m = m[i];
        r.horizon = horizon[i];
        r.round = last_run_.rounds;
        r.executed = shards_[i]->stats().executed - before;
        r.drained = prof_drained[i];
        r.shard = static_cast<std::uint32_t>(i);
        r.binding_shard = prof_binding[i];
        r.binding = prof_kind[i];
        r.ran = true;
        max_executed = std::max(max_executed, r.executed);
        prof_->shard(i).record_round(r);
        continue;
      }
#endif
      shards_[i]->run_before(horizon[i]);
    }
#ifndef SPEEDLIGHT_TRACE_DISABLED
    // Critical-path accumulator: the sweep's cost is its busiest shard's
    // work (all others overlap it in a perfectly parallel run).
    if (profile) prof_->note_inline_round(max_executed);
#endif
    ++last_run_.rounds;
  }
}

}  // namespace speedlight::sim
