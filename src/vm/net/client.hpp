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

namespace hpcnet::vm::net {

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
  /// More than 255 args throws ProtocolError with nothing sent.
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
  void send_frame(FrameType type, const std::vector<char>& payload);
  /// The payload of the next frame, which must be a `want`: an ERROR frame
  /// throws with the server's message, EOF or any other type throws too.
  std::vector<char> recv_reply(FrameType want);
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

}  // namespace hpcnet::vm::net
