// Wire protocol for the network front end (DESIGN.md §14): a length-prefixed,
// versioned binary framing shared by the server event loop (server.hpp) and
// the blocking client (client.hpp).
//
// Every frame is
//
//   [u32 length][u8 type][payload...]
//
// with `length` counting everything after the length field (so length >= 1)
// and capped at kMaxFramePayload — a peer announcing more is cut off before
// it can make the receiver buffer unbounded. All integers are little-endian,
// encoded byte by byte (the codec never reinterprets struct memory, so the
// format is identical across hosts). Strings and byte blobs are [u32 len]
// [bytes]. Frame types:
//
//   Hello      c->s  [u32 magic 'HPCN'][u32 version][str tenant][str token]
//   HelloOk    s->c  [u32 version]
//   Submit     c->s  [u64 request id][i32 method id][u8 argc][args...]
//                    each arg: [u8 ValType][8-byte raw slot] for scalars, or
//                    [u8 ValType::Ref][u32 len][serialize_graph blob] for an
//                    object graph (len 0 = null ref)
//   Result     s->c  [u64 request id][u8 JobOutcome][value][str error]
//                    [u64 fuel spent][u64 bytes charged][u64 queue ns]
//                    [u64 run ns]; value encoded like an arg, tag
//                    ValType::None when there is none
//   Stats      c->s  [] — per-tenant counters for the connection's tenant
//   StatsOk    s->c  [u64 completed][u64 killed fuel][u64 killed memory]
//                    [u64 killed deadline][u64 faulted][u64 rejected]
//                    [u64 fuel spent][u64 bytes charged][u64 queue ns]
//                    [u64 run ns] — service::TenantStats, written and read
//                    only by encode_stats_ok/decode_stats_ok
//   Snapshot   c->s  [] — quiesce the service and capture its code archive
//   SnapshotOk s->c  [serialize_archives 'HPCA' stream]
//   Error      s->c  [str message] — protocol violation; the server closes
//                    the connection after flushing this frame
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

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    buf_.reserve(buf_.size() + 4 + s.size());  // one growth for both parts
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const char* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  const std::vector<char>& data() const { return buf_; }
  std::vector<char> take() { return std::move(buf_); }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer; every
/// overrun throws ProtocolError.
class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : p_(data), n_(size) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[off_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p_[off_++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p_[off_++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t len = u32();
    if (len > kMaxFramePayload) throw ProtocolError("string length too large");
    need(len);
    std::string s(p_ + off_, len);
    off_ += len;
    return s;
  }
  /// Borrows `len` bytes out of the frame (no copy; valid while the frame
  /// buffer lives).
  const char* bytes(std::size_t len) {
    need(len);
    const char* out = p_ + off_;
    off_ += len;
    return out;
  }
  std::size_t remaining() const { return n_ - off_; }
  bool empty() const { return off_ == n_; }

 private:
  void need(std::size_t k) const {
    if (n_ - off_ < k) throw ProtocolError("truncated frame");
  }
  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

/// [u32 length][u8 type][payload] with the length filled in.
std::vector<char> encode_frame(FrameType type, const std::vector<char>& payload);

const char* frame_type_name(FrameType t);

/// The StatsOk payload codec (field order in the header comment above).
std::vector<char> encode_stats_ok(const service::TenantStats& st);
service::TenantStats decode_stats_ok(WireReader& r);

}  // namespace hpcnet::vm::net
