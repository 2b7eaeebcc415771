#include "sim/determinism.hpp"

#include <atomic>

namespace speedlight::sim::det {

namespace {

// Violation counters are process-global atomics: the allocation guard is a
// global operator new, so any thread may bump them (the depth counters
// below stay thread-local). Relaxed ordering suffices — the counter value
// is the whole payload — and the atomics are only touched on an actual
// violation, never on the hot path.
std::atomic<std::uint64_t> g_datapath_allocs{0};
std::atomic<std::uint64_t> g_datapath_alloc_bytes{0};

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

#ifdef SPEEDLIGHT_CHECK_DETERMINISM
namespace internal {
thread_local int datapath_depth = 0;
thread_local int allow_depth = 0;
thread_local Auditor* current_auditor = nullptr;
}  // namespace internal
#endif

std::uint64_t datapath_allocs() {
  // Independent statistics counters: no reader infers other memory from
  // them, so plain coherence is all the audit needs.
  return g_datapath_allocs.load(std::memory_order_relaxed);
}
std::uint64_t datapath_alloc_bytes() {
  return g_datapath_alloc_bytes.load(std::memory_order_relaxed);
}

void reset_datapath_allocs() {
  g_datapath_allocs.store(0, std::memory_order_relaxed);
  g_datapath_alloc_bytes.store(0, std::memory_order_relaxed);
}

void note_allocation(std::size_t size) noexcept {
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  if (internal::datapath_depth > 0 && internal::allow_depth == 0) {
    g_datapath_allocs.fetch_add(1, std::memory_order_relaxed);
    g_datapath_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
#else
  (void)size;
#endif
}

Auditor::~Auditor() {
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  if (internal::current_auditor == this) uninstall();
#endif
}

void Auditor::install() {
  cohort_time_ = 0;
  in_event_ = false;
  cohort_.clear();
  scopes_.clear();
  fingerprint_ = 14695981039346656037ull;
  tie_pairs_ = 0;
  events_seen_ = 0;
  scope_touches_ = 0;
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  internal::current_auditor = this;
#endif
}

void Auditor::uninstall() {
#ifdef SPEEDLIGHT_CHECK_DETERMINISM
  if (internal::current_auditor == this) internal::current_auditor = nullptr;
#endif
  flush_cohort();
}

void Auditor::begin_event(SimTime time, std::uint64_t seq) {
  // Audit bookkeeping may grow its vectors while a data-path scope from the
  // *previous* event is impossible (scopes close with their event), but
  // begin_event itself can run inside run_until loops that hold no scope.
  // DetAllow anyway: instrumentation growth is never a data-path violation.
  DetAllow allow;
  if (time != cohort_time_) {
    flush_cohort();
    cohort_time_ = time;
  }
  cohort_.push_back(EventRec{seq, scopes_.size(), scopes_.size()});
  in_event_ = true;
  ++events_seen_;
}

void Auditor::touch(std::uint64_t scope) {
  if (!in_event_ || cohort_.empty()) return;
  EventRec& rec = cohort_.back();
  // Dedup within the event (a unit is commonly touched several times).
  for (std::size_t i = rec.scopes_begin; i < rec.scopes_end; ++i) {
    if (scopes_[i] == scope) return;
  }
  DetAllow allow;  // Audit instrumentation growth, not data-path work.
  scopes_.push_back(scope);
  rec.scopes_end = scopes_.size();
  ++scope_touches_;
}

void Auditor::end_event() { in_event_ = false; }

void Auditor::flush_cohort() {
  // Fingerprint every ordered pair of same-timestamp events that touched a
  // common scope. Cohorts are small (a handful of events share a tick), so
  // the pairwise sweep is cheap.
  for (std::size_t a = 0; a < cohort_.size(); ++a) {
    for (std::size_t b = a + 1; b < cohort_.size(); ++b) {
      for (std::size_t i = cohort_[a].scopes_begin; i < cohort_[a].scopes_end;
           ++i) {
        bool shared = false;
        for (std::size_t j = cohort_[b].scopes_begin;
             j < cohort_[b].scopes_end; ++j) {
          if (scopes_[i] == scopes_[j]) {
            shared = true;
            break;
          }
        }
        if (!shared) continue;
        ++tie_pairs_;
        fingerprint_ = fnv1a_mix(fingerprint_, cohort_time_);
        fingerprint_ = fnv1a_mix(fingerprint_, scopes_[i]);
        fingerprint_ = fnv1a_mix(fingerprint_, cohort_[a].seq);
        fingerprint_ = fnv1a_mix(fingerprint_, cohort_[b].seq);
      }
    }
  }
  cohort_.clear();
  scopes_.clear();
}

}  // namespace speedlight::sim::det
