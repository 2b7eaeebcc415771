#include "obs/trace.hpp"

namespace speedlight::obs {

const char* event_name(EventName n) {
  switch (n) {
    case EventName::SnapCapture:  return "snap.capture";
    case EventName::SnapNotify:   return "snap.notify";
    case EventName::NotifService: return "notif.service";
    case EventName::NotifDrop:    return "notif.drop";
    case EventName::CpInitiate:   return "cp.initiate";
    case EventName::CpReinitiate: return "cp.reinitiate";
    case EventName::CpProcess:    return "cp.process";
    case EventName::CpReport:     return "cp.report";
    case EventName::ObsRequest:   return "obs.request";
    case EventName::ObsCollect:   return "obs.collect";
    case EventName::ObsComplete:  return "obs.complete";
    case EventName::PollSweep:    return "poll.sweep";
    case EventName::PollRead:     return "poll.read";
  }
  return "?";
}

const char* category_name(Category c) {
  switch (c) {
    case Category::SnapshotSm:   return "snapshot-state-machine";
    case Category::NotifChannel: return "notification-channel";
    case Category::ControlPlane: return "control-plane";
    case Category::Observer:     return "observer";
    case Category::Sim:          return "sim";
  }
  return "?";
}

void Tracer::enable(std::size_t capacity) {
#ifdef SPEEDLIGHT_TRACE_DISABLED
  (void)capacity;
#else
  if (capacity == 0) capacity = kDefaultCapacity;
  if (capacity != capacity_) {
    ring_.clear();
    ring_.reserve(capacity);
    capacity_ = capacity;
    head_ = 0;
    overwritten_ = 0;
  }
  enabled_ = true;
#endif
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  overwritten_ = 0;
}

}  // namespace speedlight::obs
