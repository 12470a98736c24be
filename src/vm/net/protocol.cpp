#include "vm/net/protocol.hpp"

#include "vm/service/service.hpp"

namespace hpcnet::vm::net {

std::vector<char> encode_frame(FrameType type,
                               const std::vector<char>& payload) {
  if (payload.size() + 1 > kMaxFramePayload) {
    throw ProtocolError("frame payload exceeds protocol limit");
  }
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "HELLO";
    case FrameType::HelloOk: return "HELLO_OK";
    case FrameType::Submit: return "SUBMIT";
    case FrameType::Result: return "RESULT";
    case FrameType::Stats: return "STATS";
    case FrameType::StatsOk: return "STATS_OK";
    case FrameType::Snapshot: return "SNAPSHOT";
    case FrameType::SnapshotOk: return "SNAPSHOT_OK";
    case FrameType::Error: return "ERROR";
  }
  return "?";
}

std::vector<char> encode_stats_ok(const service::TenantStats& st) {
  WireWriter w;
  w.u64(st.jobs_completed);
  w.u64(st.jobs_killed_fuel);
  w.u64(st.jobs_killed_memory);
  w.u64(st.jobs_killed_deadline);
  w.u64(st.jobs_faulted);
  w.u64(st.jobs_rejected);
  w.u64(st.fuel_spent);
  w.u64(st.bytes_charged);
  w.i64(st.queue_ns);
  w.i64(st.run_ns);
  return w.take();
}

service::TenantStats decode_stats_ok(WireReader& r) {
  service::TenantStats st;
  st.jobs_completed = r.u64();
  st.jobs_killed_fuel = r.u64();
  st.jobs_killed_memory = r.u64();
  st.jobs_killed_deadline = r.u64();
  st.jobs_faulted = r.u64();
  st.jobs_rejected = r.u64();
  st.fuel_spent = r.u64();
  st.bytes_charged = r.u64();
  st.queue_ns = r.i64();
  st.run_ns = r.i64();
  return st;
}

}  // namespace hpcnet::vm::net
