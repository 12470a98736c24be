// Wire protocol for the network front end (DESIGN.md §14): a length-prefixed,
// versioned binary framing shared by the server event loop (server.hpp) and
// the blocking client (client.hpp). protocol.cpp is the only place that
// knows a payload layout: the server and the client call the encode/decode
// pairs below and never pack a field themselves.
//
// Every frame is
//
//   [u32 length][u8 type][payload...]
//
// with `length` counting everything after the length field (so length >= 1)
// and capped at kMaxFramePayload — a peer announcing more is cut off before
// it can make the receiver buffer unbounded. Integers, strings ([u32 len]
// [bytes]) and blobs go through the VM's one byte codec (vm/wire.hpp), so
// the format is little-endian on every host. Frame types:
//
//   Hello      c->s  [u32 magic 'HPCN'][u32 version][str tenant][str token]
//   HelloOk    s->c  [u32 version]
//   Submit     c->s  [u64 request id][i32 method id][u8 argc][values...]
//   Result     s->c  [u64 request id][u8 JobOutcome][value][str error]
//                    [u64 fuel spent][u64 bytes charged][u64 queue ns]
//                    [u64 run ns]; the value is tagged ValType::None when
//                    there is none
//   Stats      c->s  [] — per-tenant counters for the connection's tenant
//   StatsOk    s->c  [u64 completed][u64 killed fuel][u64 killed memory]
//                    [u64 killed deadline][u64 faulted][u64 rejected]
//                    [u64 fuel spent][u64 bytes charged][u64 queue ns]
//                    [u64 run ns] — service::TenantStats
//   Snapshot   c->s  [] — quiesce the service and capture its code archive
//   SnapshotOk s->c  [serialize_archives 'HPCA' stream]
//   Error      s->c  [str message] — protocol violation; the server closes
//                    the connection after flushing this frame
//
// A value is [u8 ValType][u64 raw slot] for a scalar, or [u8 ValType::Ref]
// [u32 len][serialize_graph blob] for an object graph (len 0 = null ref).
//
// Decoding is defensive like serialize.cpp: every read bounds-checks and
// throws ProtocolError, so truncated, oversized or bit-flipped frames fail
// cleanly (the server answers with a Rejected result or an Error frame and,
// at worst, drops the connection — never UB).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "vm/value.hpp"
#include "vm/wire.hpp"

namespace hpcnet::vm::service {
struct TenantStats;
}

namespace hpcnet::vm::net {

inline constexpr std::uint32_t kMagic = 0x4850434E;  // 'HPCN'
inline constexpr std::uint32_t kVersion = 1;
/// Upper bound on [u8 type][payload] — and thereby on every string, blob and
/// receive buffer a peer can force the other side to hold.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;  // 16 MiB

enum class FrameType : std::uint8_t {
  Hello = 1,
  HelloOk = 2,
  Submit = 3,
  Result = 4,
  Stats = 5,
  StatsOk = 6,
  Snapshot = 7,
  SnapshotOk = 8,
  Error = 9,
};

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using WireReader = ByteReader<ProtocolError>;

/// A typed argument or result crossing the wire. Scalars live in `raw`
/// (the 8-byte Slot image); Ref values carry a serialize_graph blob
/// (empty = null).
struct WireValue {
  ValType type = ValType::None;
  std::uint64_t raw = 0;
  std::vector<char> blob;

  static WireValue from_i32(std::int32_t v);
  static WireValue from_i64(std::int64_t v);
  static WireValue from_f64(double v);
  static WireValue from_graph(std::vector<char> serialized);

  std::int32_t as_i32() const { return static_cast<std::int32_t>(raw); }
  std::int64_t as_i64() const { return static_cast<std::int64_t>(raw); }
  double as_f64() const;
};

struct WireResult {
  std::uint64_t request_id = 0;
  std::uint8_t outcome = 0;  // numeric service::JobOutcome
  WireValue value;
  std::string error;
  std::uint64_t fuel_spent = 0;
  std::uint64_t bytes_charged = 0;
  std::int64_t queue_ns = 0;
  std::int64_t run_ns = 0;
};

/// Appends [u32 length][u8 type][payload] to `out`. Throws ProtocolError,
/// leaving `out` as it was, when the payload exceeds the frame cap.
void append_frame(std::vector<char>& out, FrameType type,
                  const std::vector<char>& payload);
/// The length field of a frame header (the 4 bytes at `head`). Throws
/// ProtocolError("bad frame length") unless 1 <= length <= kMaxFramePayload.
std::uint32_t frame_length(const char* head);

const char* frame_type_name(FrameType t);

// Payload codecs, one pair per layout in the header comment. Decoders read
// from a WireReader over the payload and throw ProtocolError.

struct HelloFrame {
  std::string tenant;
  std::string token;
};
std::vector<char> encode_hello(const std::string& tenant,
                               const std::string& token);
/// Throws "bad magic", "unsupported protocol version" or "malformed HELLO".
HelloFrame decode_hello(WireReader& r);
std::vector<char> encode_hello_ok();

/// Throws ProtocolError, having encoded nothing, when `args` holds more than
/// 255 values or a value of a type that cannot travel.
std::vector<char> encode_submit(std::uint64_t request_id,
                                std::int32_t method_id,
                                const std::vector<WireValue>& args);
/// A decoded SUBMIT argument. A Ref borrows its blob from the frame
/// (blob_size 0 = null ref); nothing is copied.
struct ValueView {
  ValType type = ValType::None;
  std::uint64_t raw = 0;
  const char* blob = nullptr;
  std::uint32_t blob_size = 0;
};
struct SubmitFrame {
  bool has_request_id = false;
  std::uint64_t request_id = 0;
  std::int32_t method_id = 0;
  std::vector<ValueView> args;
};
/// Fills `out` field by field, so when it throws, `out.has_request_id` says
/// whether a Rejected RESULT can still name the request.
void decode_submit(WireReader& r, SubmitFrame& out);

std::vector<char> encode_result(const WireResult& res);
WireResult decode_result(WireReader& r);

std::vector<char> encode_stats_ok(const service::TenantStats& st);
service::TenantStats decode_stats_ok(WireReader& r);

std::vector<char> encode_error(const std::string& message);
std::string decode_error(WireReader& r);

}  // namespace hpcnet::vm::net
