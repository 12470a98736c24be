#include "vm/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "vm/service/service.hpp"

namespace hpcnet::vm::net {

namespace {

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size != 0) {
    const ssize_t k = ::send(fd, p, size, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "send");
    }
    p += k;
    size -= static_cast<std::size_t>(k);
  }
}

/// false on clean EOF at a frame boundary; throws mid-frame.
bool read_exact(int fd, void* data, std::size_t size, bool eof_ok) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got != size) {
    const ssize_t k = ::recv(fd, p + got, size - got, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "recv");
    }
    if (k == 0) {
      if (eof_ok && got == 0) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

WireValue WireValue::from_i32(std::int32_t v) {
  WireValue w;
  w.type = ValType::I32;
  Slot s = Slot::from_i32(v);
  w.raw = s.raw;
  return w;
}

WireValue WireValue::from_i64(std::int64_t v) {
  WireValue w;
  w.type = ValType::I64;
  Slot s = Slot::from_i64(v);
  w.raw = s.raw;
  return w;
}

WireValue WireValue::from_f64(double v) {
  WireValue w;
  w.type = ValType::F64;
  Slot s = Slot::from_f64(v);
  w.raw = s.raw;
  return w;
}

WireValue WireValue::from_graph(std::vector<char> serialized) {
  WireValue w;
  w.type = ValType::Ref;
  w.blob = std::move(serialized);
  return w;
}

double WireValue::as_f64() const {
  Slot s;
  s.raw = raw;
  return s.f64;
}

VmClient::~VmClient() { close(); }

void VmClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void VmClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw std::system_error(EINVAL, std::generic_category(), "bad host");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(), "connect");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void VmClient::send_raw(const void* data, std::size_t size) {
  write_all(fd_, data, size);
}

bool VmClient::recv_frame(FrameType& type, std::vector<char>& payload) {
  char head[4];
  if (!read_exact(fd_, head, sizeof head, /*eof_ok=*/true)) return false;
  WireReader hr(head, sizeof head);
  const std::uint32_t len = hr.u32();
  if (len < 1 || len > kMaxFramePayload) {
    throw ProtocolError("bad frame length from server");
  }
  char tbyte;
  read_exact(fd_, &tbyte, 1, /*eof_ok=*/false);
  type = static_cast<FrameType>(tbyte);
  payload.resize(len - 1);
  if (len > 1) read_exact(fd_, payload.data(), len - 1, /*eof_ok=*/false);
  return true;
}

void VmClient::hello(const std::string& tenant, const std::string& token) {
  WireWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(tenant);
  w.str(token);
  const std::vector<char> frame = encode_frame(FrameType::Hello, w.data());
  write_all(fd_, frame.data(), frame.size());

  FrameType type{};
  std::vector<char> payload;
  if (!recv_frame(type, payload)) {
    throw ProtocolError("server closed connection during HELLO");
  }
  if (type == FrameType::Error) {
    WireReader r(payload.data(), payload.size());
    throw ProtocolError("server refused HELLO: " + r.str());
  }
  if (type != FrameType::HelloOk) {
    throw ProtocolError("unexpected reply to HELLO");
  }
}

std::vector<char> VmClient::encode_value(const WireValue& v) const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(v.type));
  switch (v.type) {
    case ValType::I32:
    case ValType::I64:
    case ValType::F32:
    case ValType::F64:
      w.u64(v.raw);
      break;
    case ValType::Ref:
      w.u32(static_cast<std::uint32_t>(v.blob.size()));
      w.bytes(v.blob.data(), v.blob.size());
      break;
    default:
      throw ProtocolError("cannot encode a value of this type");
  }
  return w.take();
}

std::uint64_t VmClient::send_submit(std::int32_t method_id,
                                    const std::vector<WireValue>& args) {
  const std::uint64_t id = next_id_++;
  WireWriter w;
  w.u64(id);
  w.i32(method_id);
  w.u8(static_cast<std::uint8_t>(args.size()));
  for (const WireValue& a : args) {
    const std::vector<char> enc = encode_value(a);
    w.bytes(enc.data(), enc.size());
  }
  const std::vector<char> frame = encode_frame(FrameType::Submit, w.data());
  write_all(fd_, frame.data(), frame.size());
  return id;
}

WireResult VmClient::recv_result() {
  FrameType type{};
  std::vector<char> payload;
  if (!recv_frame(type, payload)) {
    throw ProtocolError("server closed connection while awaiting RESULT");
  }
  WireReader r(payload.data(), payload.size());
  if (type == FrameType::Error) {
    throw ProtocolError("server error: " + r.str());
  }
  if (type != FrameType::Result) {
    throw ProtocolError("unexpected frame while awaiting RESULT");
  }
  WireResult res;
  res.request_id = r.u64();
  res.outcome = r.u8();
  const auto tag = static_cast<ValType>(r.u8());
  res.value.type = tag;
  switch (tag) {
    case ValType::I32:
    case ValType::I64:
    case ValType::F32:
    case ValType::F64:
      res.value.raw = r.u64();
      break;
    case ValType::Ref: {
      const std::uint32_t len = r.u32();
      const char* blob = r.bytes(len);
      res.value.blob.assign(blob, blob + len);
      break;
    }
    case ValType::None:
      break;
    default:
      throw ProtocolError("bad value tag in RESULT");
  }
  res.error = r.str();
  res.fuel_spent = r.u64();
  res.bytes_charged = r.u64();
  res.queue_ns = static_cast<std::int64_t>(r.u64());
  res.run_ns = static_cast<std::int64_t>(r.u64());
  return res;
}

WireResult VmClient::call(std::int32_t method_id,
                          const std::vector<WireValue>& args) {
  const std::uint64_t id = send_submit(method_id, args);
  for (;;) {
    WireResult res = recv_result();
    if (res.request_id == id) return res;
  }
}

service::TenantStats VmClient::stats() {
  const std::vector<char> frame = encode_frame(FrameType::Stats, {});
  write_all(fd_, frame.data(), frame.size());
  FrameType type{};
  std::vector<char> payload;
  if (!recv_frame(type, payload)) {
    throw ProtocolError("server closed connection while awaiting STATS_OK");
  }
  WireReader r(payload.data(), payload.size());
  if (type == FrameType::Error) {
    throw ProtocolError("server error: " + r.str());
  }
  if (type != FrameType::StatsOk) {
    throw ProtocolError("unexpected reply to STATS");
  }
  return decode_stats_ok(r);
}

std::vector<char> VmClient::snapshot() {
  const std::vector<char> frame = encode_frame(FrameType::Snapshot, {});
  write_all(fd_, frame.data(), frame.size());
  FrameType type{};
  std::vector<char> payload;
  if (!recv_frame(type, payload)) {
    throw ProtocolError("server closed connection while awaiting SNAPSHOT_OK");
  }
  if (type == FrameType::Error) {
    WireReader r(payload.data(), payload.size());
    throw ProtocolError("server error: " + r.str());
  }
  if (type != FrameType::SnapshotOk) {
    throw ProtocolError("unexpected reply to SNAPSHOT");
  }
  return payload;
}

}  // namespace hpcnet::vm::net
