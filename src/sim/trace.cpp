#include "sim/trace.hpp"

namespace kami::sim {

const char* op_kind_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::SmemStore: return "smem_store";
    case OpKind::SmemLoad: return "smem_load";
    case OpKind::RegCopy: return "reg_copy";
    case OpKind::Mma: return "mma";
    case OpKind::VectorOp: return "vector";
    case OpKind::GmemLoad: return "gmem_load";
    case OpKind::GmemStore: return "gmem_store";
    case OpKind::SyncWait: return "sync";
    case OpKind::Overhead: return "overhead";
  }
  return "?";
}

double Trace::total_amount(OpKind kind) const {
  double acc = 0.0;
  for (const auto& ev : events_)
    if (ev.kind == kind) acc += ev.amount;
  return acc;
}

std::vector<TraceEvent> Trace::warp_events(int warp) const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_)
    if (ev.warp == warp) out.push_back(ev);
  return out;
}

}  // namespace kami::sim
