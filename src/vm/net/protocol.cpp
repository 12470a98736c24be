#include "vm/net/protocol.hpp"

#include "vm/service/service.hpp"

namespace hpcnet::vm::net {

namespace {

bool is_scalar(ValType t) {
  return t == ValType::I32 || t == ValType::I64 || t == ValType::F32 ||
         t == ValType::F64;
}

/// [u8 tag][u64 raw] for a scalar, [u8 Ref][u32 len][blob] for a graph, the
/// tag alone for None.
void encode_value(ByteWriter& w, const WireValue& v) {
  w.u8(static_cast<std::uint8_t>(v.type));
  if (is_scalar(v.type)) {
    w.u64(v.raw);
  } else if (v.type == ValType::Ref) {
    w.u32(static_cast<std::uint32_t>(v.blob.size()));
    w.bytes(v.blob.data(), v.blob.size());
  }
}

ValueView decode_value(WireReader& r) {
  ValueView v;
  v.type = static_cast<ValType>(r.u8());
  if (is_scalar(v.type)) {
    v.raw = r.u64();
  } else if (v.type == ValType::Ref) {
    v.blob_size = r.u32();
    v.blob = r.bytes(v.blob_size);
  } else if (v.type != ValType::None) {
    throw ProtocolError("bad value tag");
  }
  return v;
}

}  // namespace

WireValue WireValue::from_i32(std::int32_t v) {
  return {ValType::I32, Slot::from_i32(v).raw, {}};
}

WireValue WireValue::from_i64(std::int64_t v) {
  return {ValType::I64, Slot::from_i64(v).raw, {}};
}

WireValue WireValue::from_f64(double v) {
  return {ValType::F64, Slot::from_f64(v).raw, {}};
}

WireValue WireValue::from_graph(std::vector<char> serialized) {
  return {ValType::Ref, 0, std::move(serialized)};
}

double WireValue::as_f64() const {
  Slot s;
  s.raw = raw;
  return s.f64;
}

std::vector<char> encode_frame(FrameType type,
                               const std::vector<char>& payload) {
  if (payload.size() + 1 > kMaxFramePayload) {
    throw ProtocolError("frame payload exceeds protocol limit");
  }
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

std::uint32_t frame_length(const char* head) {
  WireReader r(head, 4);
  const std::uint32_t len = r.u32();
  if (len < 1 || len > kMaxFramePayload) {
    throw ProtocolError("bad frame length");
  }
  return len;
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

std::vector<char> encode_hello(const std::string& tenant,
                               const std::string& token) {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(tenant);
  w.str(token);
  return w.take();
}

HelloFrame decode_hello(WireReader& r) {
  // Magic, then version, are judged as soon as they are read, so a frame
  // from another protocol gets "bad magic" however short it is.
  const auto field = [&r](auto read) {
    try {
      return read();
    } catch (const ProtocolError&) {
      throw ProtocolError("malformed HELLO");
    }
  };
  if (field([&] { return r.u32(); }) != kMagic) {
    throw ProtocolError("bad magic");
  }
  if (field([&] { return r.u32(); }) != kVersion) {
    throw ProtocolError("unsupported protocol version");
  }
  HelloFrame h;
  h.tenant = field([&] { return r.str(); });
  h.token = field([&] { return r.str(); });
  return h;
}

std::vector<char> encode_hello_ok() {
  ByteWriter w;
  w.u32(kVersion);
  return w.take();
}

std::vector<char> encode_submit(std::uint64_t request_id,
                                std::int32_t method_id,
                                const std::vector<WireValue>& args) {
  if (args.size() > 255) {
    throw ProtocolError("SUBMIT carries at most 255 arguments, not " +
                        std::to_string(args.size()));
  }
  ByteWriter w;
  w.u64(request_id);
  w.i32(method_id);
  w.u8(static_cast<std::uint8_t>(args.size()));
  for (const WireValue& a : args) {
    if (!is_scalar(a.type) && a.type != ValType::Ref) {
      throw ProtocolError("cannot encode a value of this type");
    }
    encode_value(w, a);
  }
  return w.take();
}

void decode_submit(WireReader& r, SubmitFrame& out) {
  out.request_id = r.u64();
  out.has_request_id = true;
  out.method_id = r.i32();
  const std::uint8_t argc = r.u8();
  out.args.reserve(argc);
  for (std::uint8_t i = 0; i < argc; ++i) {
    out.args.push_back(decode_value(r));
    if (out.args.back().type == ValType::None) {
      throw ProtocolError("bad value tag");
    }
  }
  if (!r.empty()) throw ProtocolError("trailing bytes in SUBMIT");
}

std::vector<char> encode_result(const WireResult& res) {
  ByteWriter w;
  w.u64(res.request_id);
  w.u8(res.outcome);
  encode_value(w, res.value);
  w.str(res.error);
  w.u64(res.fuel_spent);
  w.u64(res.bytes_charged);
  w.i64(res.queue_ns);
  w.i64(res.run_ns);
  return w.take();
}

WireResult decode_result(WireReader& r) {
  WireResult res;
  res.request_id = r.u64();
  res.outcome = r.u8();
  const ValueView v = decode_value(r);
  res.value.type = v.type;
  res.value.raw = v.raw;
  res.value.blob.assign(v.blob, v.blob + v.blob_size);
  res.error = r.str();
  res.fuel_spent = r.u64();
  res.bytes_charged = r.u64();
  res.queue_ns = r.i64();
  res.run_ns = r.i64();
  return res;
}

std::vector<char> encode_stats_ok(const service::TenantStats& st) {
  ByteWriter w;
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

std::vector<char> encode_error(const std::string& message) {
  ByteWriter w;
  w.str(message);
  return w.take();
}

std::string decode_error(WireReader& r) { return r.str(); }

}  // namespace hpcnet::vm::net
