// Blocking client for the VmServer wire protocol (protocol.hpp): used by the
// loopback tests, the service benchmark's TCP mode and examples/vmserve. One
// connection, one thread — but submits can be pipelined: send_submit returns
// as soon as the frame is written, recv_result returns results in completion
// order (which under concurrent workers is not submission order; match on
// request_id).
//
// The client is VM-free on purpose — it moves bytes, not object graphs. A
// caller that wants to pass or receive a managed graph serializes it with
// serialize_graph on its own VM and ships the blob in a WireValue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/net/protocol.hpp"
#include "vm/value.hpp"

namespace hpcnet::vm::net {

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

/// Methods throw ProtocolError on a server ERROR frame or a malformed reply,
/// and std::system_error on socket failures (a server that slams the
/// connection shut mid-read surfaces as one of the two).
class VmClient {
 public:
  VmClient() = default;
  ~VmClient();
  VmClient(const VmClient&) = delete;
  VmClient& operator=(const VmClient&) = delete;
  VmClient(VmClient&& other) noexcept
      : fd_(other.fd_), next_id_(other.next_id_) {
    other.fd_ = -1;
  }
  VmClient& operator=(VmClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      next_id_ = other.next_id_;
      other.fd_ = -1;
    }
    return *this;
  }

  void connect(const std::string& host, std::uint16_t port);
  /// HELLO/HELLO_OK exchange; must be the first frames on the connection.
  void hello(const std::string& tenant, const std::string& token);

  /// Writes a SUBMIT frame and returns its request id without waiting.
  std::uint64_t send_submit(std::int32_t method_id,
                            const std::vector<WireValue>& args);
  /// Next RESULT frame, in completion order.
  WireResult recv_result();
  /// send_submit + receive until this submit's RESULT arrives (results for
  /// earlier pipelined submits that arrive first are discarded — do not mix
  /// call() into a pipelined stream).
  WireResult call(std::int32_t method_id, const std::vector<WireValue>& args);

  /// STATS: the connection tenant's service::TenantStats (callers include
  /// vm/service/service.hpp for the definition).
  service::TenantStats stats();
  /// SNAPSHOT: returns the serialize_archives stream of the service's
  /// warmed code cache (loadable via deserialize_archives).
  std::vector<char> snapshot();

  void close();
  bool connected() const { return fd_ >= 0; }

  /// Escape hatches for protocol tests: raw bytes out, raw frame in.
  void send_raw(const void* data, std::size_t size);
  /// Reads one [len][type][payload] frame; false on clean EOF.
  bool recv_frame(FrameType& type, std::vector<char>& payload);

 private:
  std::vector<char> encode_value(const WireValue& v) const;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

}  // namespace hpcnet::vm::net
