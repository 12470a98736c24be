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
  const std::uint32_t len = frame_length(head);
  char tbyte;
  read_exact(fd_, &tbyte, 1, /*eof_ok=*/false);
  type = static_cast<FrameType>(tbyte);
  payload.resize(len - 1);
  if (len > 1) read_exact(fd_, payload.data(), len - 1, /*eof_ok=*/false);
  return true;
}

void VmClient::send_frame(FrameType type, const std::vector<char>& payload) {
  std::vector<char> frame;
  append_frame(frame, type, payload);
  write_all(fd_, frame.data(), frame.size());
}

std::vector<char> VmClient::recv_reply(FrameType want) {
  FrameType type{};
  std::vector<char> payload;
  if (!recv_frame(type, payload)) {
    throw ProtocolError(std::string("server closed connection while awaiting ") +
                        frame_type_name(want));
  }
  if (type == FrameType::Error) {
    WireReader r(payload.data(), payload.size());
    throw ProtocolError("server error: " + decode_error(r));
  }
  if (type != want) {
    throw ProtocolError(std::string("unexpected ") + frame_type_name(type) +
                        " while awaiting " + frame_type_name(want));
  }
  return payload;
}

void VmClient::hello(const std::string& tenant, const std::string& token) {
  send_frame(FrameType::Hello, encode_hello(tenant, token));
  recv_reply(FrameType::HelloOk);
}

std::uint64_t VmClient::send_submit(std::int32_t method_id,
                                    const std::vector<WireValue>& args) {
  send_frame(FrameType::Submit, encode_submit(next_id_, method_id, args));
  return next_id_++;
}

WireResult VmClient::recv_result() {
  const std::vector<char> payload = recv_reply(FrameType::Result);
  WireReader r(payload.data(), payload.size());
  return decode_result(r);
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
  send_frame(FrameType::Stats, {});
  const std::vector<char> payload = recv_reply(FrameType::StatsOk);
  WireReader r(payload.data(), payload.size());
  return decode_stats_ok(r);
}

std::vector<char> VmClient::snapshot() {
  send_frame(FrameType::Snapshot, {});
  return recv_reply(FrameType::SnapshotOk);
}

}  // namespace hpcnet::vm::net
