#include "vm/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "vm/net/protocol.hpp"
#include "vm/serialize.hpp"

namespace hpcnet::vm::net {

namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Scoped GC-safe region (poll and potentially-blocking submits run inside
/// one; everything touching the managed heap runs outside).
class SafeRegion {
 public:
  SafeRegion(VirtualMachine& vm, VMContext& ctx) : vm_(vm), ctx_(ctx) {
    vm_.enter_safe_region(ctx_);
  }
  ~SafeRegion() { vm_.leave_safe_region(ctx_); }
  SafeRegion(const SafeRegion&) = delete;
  SafeRegion& operator=(const SafeRegion&) = delete;

 private:
  VirtualMachine& vm_;
  VMContext& ctx_;
};

/// Completion hooks from service workers rendezvous with the loop thread
/// here: append {connection, request}, poke the wake pipe. Jointly owned by
/// the server and every outstanding hook, so a job that outlives the server
/// (or its connection) fires into a closed queue and is dropped.
struct DoneQueue {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  int wake_fd = -1;
  bool closed = false;
};

/// A job the loop has submitted and not yet answered. The handle keeps the
/// job's ref-typed result pinned until the RESULT frame is encoded.
struct Pending {
  service::JobHandle handle;
  ValType ret = ValType::None;
};

struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  bool authed = false;
  bool closing = false;  // flush `out`, then close (ERROR frame sent)
  bool dead = false;
  std::string tenant;
  std::vector<char> in;
  std::vector<char> out;
  std::size_t out_off = 0;
  std::map<std::uint64_t, Pending> pending;
};

}  // namespace

struct VmServer::Impl {
  VirtualMachine& vm;
  service::ExecutionService& svc;
  ServerOptions opt;
  std::map<std::string, std::string> creds;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::uint16_t bound_port = 0;
  std::shared_ptr<DoneQueue> done = std::make_shared<DoneQueue>();
  std::atomic<bool> stop{false};
  std::thread loop;
  bool started = false;

  Impl(VirtualMachine& v, service::ExecutionService& s, ServerOptions o)
      : vm(v), svc(s), opt(std::move(o)) {}

  void start();
  void shutdown();
  void loop_main();
  void drain_done(std::map<std::uint64_t, Connection>& conns);
  void handle_frame(Connection& c, FrameType type, const char* payload,
                    std::size_t size, VMContext& ctx);
  void handle_hello(Connection& c, const char* payload, std::size_t size);
  void handle_submit(Connection& c, const char* payload, std::size_t size,
                     VMContext& ctx);
  void handle_stats(Connection& c);
  void handle_snapshot(Connection& c, VMContext& ctx);
  void send_frame(Connection& c, FrameType type,
                  const std::vector<char>& payload);
  void send_result(Connection& c, std::uint64_t req, ValType ret,
                   const service::JobResult& res);
  void send_reject(Connection& c, std::uint64_t req, const std::string& why);
  void protocol_error_close(Connection& c, const std::string& msg);
  bool read_input(Connection& c, VMContext& ctx);
  bool flush_output(Connection& c);
  service::ExecutionService::Completion make_completion(std::uint64_t cid,
                                                        std::uint64_t req);
};

void VmServer::Impl::start() {
  if (started) return;
  listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt.port);
  if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd);
    listen_fd = -1;
    throw std::system_error(EINVAL, std::generic_category(), "bad host");
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 128) < 0) {
    const int err = errno;
    ::close(listen_fd);
    listen_fd = -1;
    throw std::system_error(err, std::generic_category(), "bind/listen");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  bound_port = ntohs(bound.sin_port);
  set_nonblock(listen_fd);

  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    const int err = errno;
    ::close(listen_fd);
    listen_fd = -1;
    throw std::system_error(err, std::generic_category(), "pipe");
  }
  wake_read = pipefd[0];
  wake_write = pipefd[1];
  set_nonblock(wake_read);
  set_nonblock(wake_write);
  {
    std::lock_guard<std::mutex> lock(done->mu);
    done->wake_fd = wake_write;
    done->closed = false;
  }
  stop.store(false);
  loop = std::thread([this] { loop_main(); });
  started = true;
}

void VmServer::Impl::shutdown() {
  if (!started) return;
  {
    // Close the rendezvous first: completion hooks from jobs still running
    // must become no-ops before their wake fd disappears.
    std::lock_guard<std::mutex> lock(done->mu);
    done->closed = true;
    done->wake_fd = -1;
  }
  stop.store(true);
  char b = 1;
  (void)!::write(wake_write, &b, 1);
  loop.join();
  ::close(wake_write);
  ::close(wake_read);
  ::close(listen_fd);
  wake_write = wake_read = listen_fd = -1;
  started = false;
}

service::ExecutionService::Completion VmServer::Impl::make_completion(
    std::uint64_t cid, std::uint64_t req) {
  std::shared_ptr<DoneQueue> dq = done;
  return [dq, cid, req](const service::JobResult&) {
    std::lock_guard<std::mutex> lock(dq->mu);
    if (dq->closed) return;
    dq->entries.emplace_back(cid, req);
    char b = 1;
    (void)!::write(dq->wake_fd, &b, 1);  // EAGAIN fine: a wake is pending
  };
}

void VmServer::Impl::loop_main() {
  // Engine-less attach, like the host's main_context: this thread never
  // executes IL, but graph (de)serialization reads and allocates from the
  // managed heap, which needs a context and its TLAB.
  std::unique_ptr<VMContext> ctx = vm.attach_thread(nullptr);
  std::map<std::uint64_t, Connection> conns;
  std::uint64_t next_id = 1;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd slot (0 = none)

  while (!stop.load()) {
    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read, POLLIN, 0});
    fd_conn.push_back(0);
    if (static_cast<int>(conns.size()) < opt.max_connections) {
      fds.push_back({listen_fd, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, c] : conns) {
      short ev = POLLIN;
      if (c.out_off < c.out.size()) ev |= POLLOUT;
      fds.push_back({c.fd, ev, 0});
      fd_conn.push_back(id);
    }
    int n;
    {
      // Parked in poll, the loop must not block a stop-the-world collection
      // triggered by a worker mid-job.
      SafeRegion safe(vm, *ctx);
      n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    }
    if (stop.load()) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_read, buf, sizeof buf) > 0) {
      }
    }
    // Completed jobs first, so their RESULT frames ride this iteration's
    // flush.
    drain_done(conns);

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fd_conn[i] != 0) continue;
      if ((fds[i].revents & POLLIN) == 0) continue;
      for (;;) {  // the listening socket
        const int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0) break;
        if (static_cast<int>(conns.size()) >= opt.max_connections) {
          ::close(cfd);
          continue;
        }
        set_nonblock(cfd);
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Connection c;
        c.fd = cfd;
        c.id = next_id++;
        conns.emplace(c.id, std::move(c));
      }
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fd_conn[i] == 0) continue;
      auto it = conns.find(fd_conn[i]);
      if (it == conns.end()) continue;
      Connection& c = it->second;
      if ((fds[i].revents & POLLIN) != 0 && !c.dead) {
        if (!read_input(c, *ctx)) c.dead = true;
      }
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) c.dead = true;
      if ((fds[i].revents & POLLHUP) != 0 && !c.dead) {
        // Peer went away; whatever read_input salvaged above is all there is.
        c.dead = true;
      }
    }

    // Flush everything with output pending (including frames just produced),
    // then reap: a closing connection dies once its ERROR frame is out, a
    // dead connection takes its pending jobs with it.
    std::vector<std::uint64_t> reap;
    for (auto& [id, c] : conns) {
      if (!c.dead && !flush_output(c)) c.dead = true;
      if (c.closing && c.out_off >= c.out.size()) c.dead = true;
      if (c.dead) reap.push_back(id);
    }
    for (std::uint64_t id : reap) {
      auto it = conns.find(id);
      Connection& c = it->second;
      ::close(c.fd);
      // Connection-lifetime cancellation: a dropped socket rejects its
      // still-queued jobs now; running jobs finish but report into a
      // connection that no longer exists and are dropped by drain_done.
      for (auto& [req, p] : c.pending) svc.cancel(p.handle);
      conns.erase(it);
    }
  }

  for (auto& [id, c] : conns) {
    ::close(c.fd);
    for (auto& [req, p] : c.pending) svc.cancel(p.handle);
  }
  conns.clear();
  vm.detach_thread(*ctx);
}

void VmServer::Impl::drain_done(std::map<std::uint64_t, Connection>& conns) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  {
    std::lock_guard<std::mutex> lock(done->mu);
    batch.swap(done->entries);
  }
  for (const auto& [cid, req] : batch) {
    auto ci = conns.find(cid);
    if (ci == conns.end()) continue;  // connection died before the job
    Connection& c = ci->second;
    auto pi = c.pending.find(req);
    if (pi == c.pending.end()) continue;
    Pending p = std::move(pi->second);
    // The hook only fires after the result is published, so this wait
    // returns immediately; the handle stays live (result pinned) until the
    // frame below has serialized it.
    const service::JobResult res = p.handle.wait(nullptr);
    send_result(c, req, p.ret, res);
    c.pending.erase(pi);
  }
}

void VmServer::Impl::send_frame(Connection& c, FrameType type,
                                const std::vector<char>& payload) {
  const std::vector<char> frame = encode_frame(type, payload);
  c.out.insert(c.out.end(), frame.begin(), frame.end());
}

void VmServer::Impl::protocol_error_close(Connection& c,
                                          const std::string& msg) {
  send_frame(c, FrameType::Error, encode_error(msg));
  c.closing = true;
}

void VmServer::Impl::send_reject(Connection& c, std::uint64_t req,
                                 const std::string& why) {
  service::JobResult res;
  res.outcome = service::JobOutcome::Rejected;
  res.error = why;
  send_result(c, req, ValType::None, res);
}

void VmServer::Impl::send_result(Connection& c, std::uint64_t req, ValType ret,
                                 const service::JobResult& res) {
  WireResult out;
  out.request_id = req;
  out.outcome = static_cast<std::uint8_t>(res.outcome);
  out.error = res.error;
  out.fuel_spent = res.fuel_spent;
  out.bytes_charged = res.bytes_charged;
  out.queue_ns = res.queue_ns;
  out.run_ns = res.run_ns;
  if (res.outcome == service::JobOutcome::Completed &&
      ret == ValType::Ref) {
    std::vector<char> blob;
    try {
      if (res.value.ref != nullptr) blob = serialize_graph(vm, res.value.ref);
      if (blob.size() > kMaxFramePayload / 2) {
        out.error = "result graph too large for one frame";
      } else {
        out.value = WireValue::from_graph(std::move(blob));
      }
    } catch (const SerializeError& e) {
      out.error = std::string("result not serializable: ") + e.what();
    }
  } else if (res.outcome == service::JobOutcome::Completed &&
             ret != ValType::None) {
    out.value.type = ret;
    out.value.raw = res.value.raw;
  }
  send_frame(c, FrameType::Result, encode_result(out));
}

bool VmServer::Impl::read_input(Connection& c, VMContext& ctx) {
  char buf[65536];
  for (;;) {
    const ssize_t k = ::recv(c.fd, buf, sizeof buf, 0);
    if (k > 0) {
      c.in.insert(c.in.end(), buf, buf + k);
      if (static_cast<std::size_t>(k) < sizeof buf) break;
      continue;
    }
    if (k == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  std::size_t off = 0;
  while (!c.closing && c.in.size() - off >= 4) {
    std::uint32_t len = 0;
    try {
      len = frame_length(c.in.data() + off);
    } catch (const ProtocolError& e) {
      protocol_error_close(c, e.what());
      break;
    }
    if (c.in.size() - off - 4 < len) break;  // incomplete; wait for more
    const FrameType type = static_cast<FrameType>(c.in[off + 4]);
    handle_frame(c, type, c.in.data() + off + 5, len - 1, ctx);
    off += 4 + static_cast<std::size_t>(len);
  }
  if (off != 0) c.in.erase(c.in.begin(), c.in.begin() + off);
  return true;
}

bool VmServer::Impl::flush_output(Connection& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t k = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (k > 0) {
      c.out_off += static_cast<std::size_t>(k);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

void VmServer::Impl::handle_frame(Connection& c, FrameType type,
                                  const char* payload, std::size_t size,
                                  VMContext& ctx) {
  if (c.closing) return;
  switch (type) {
    case FrameType::Hello:
      handle_hello(c, payload, size);
      return;
    case FrameType::Submit:
      if (!c.authed) {
        protocol_error_close(c, "HELLO required before SUBMIT");
        return;
      }
      handle_submit(c, payload, size, ctx);
      return;
    case FrameType::Stats:
      if (!c.authed) {
        protocol_error_close(c, "HELLO required before STATS");
        return;
      }
      handle_stats(c);
      return;
    case FrameType::Snapshot:
      if (!c.authed) {
        protocol_error_close(c, "HELLO required before SNAPSHOT");
        return;
      }
      handle_snapshot(c, ctx);
      return;
    default:
      protocol_error_close(c, "unexpected frame type");
      return;
  }
}

void VmServer::Impl::handle_hello(Connection& c, const char* payload,
                                  std::size_t size) {
  if (c.authed) {
    protocol_error_close(c, "duplicate HELLO");
    return;
  }
  HelloFrame hello;
  try {
    WireReader r(payload, size);
    hello = decode_hello(r);
  } catch (const ProtocolError& e) {
    protocol_error_close(c, e.what());
    return;
  }
  const auto it = creds.find(hello.tenant);
  const bool ok = it != creds.end()
                      ? it->second == hello.token
                      : (opt.open_tenants && svc.has_tenant(hello.tenant));
  if (!ok) {
    protocol_error_close(c, "auth failed");
    return;
  }
  c.authed = true;
  c.tenant = hello.tenant;
  send_frame(c, FrameType::HelloOk, encode_hello_ok());
}

void VmServer::Impl::handle_submit(Connection& c, const char* payload,
                                   std::size_t size, VMContext& ctx) {
  SubmitFrame sub;
  std::vector<ObjRef> pins;
  const auto unpin_all = [&] {
    for (ObjRef o : pins) vm.unpin(o);
    pins.clear();
  };
  try {
    WireReader r(payload, size);
    decode_submit(r, sub);
    std::vector<Slot> args;
    args.reserve(sub.args.size());
    for (const ValueView& a : sub.args) {
      Slot s;
      s.raw = a.raw;  // 0 for a Ref: the null ref, unless a blob follows
      if (a.type == ValType::Ref && a.blob_size != 0) {
        // Same defensive path the snapshot loader uses: structural damage
        // throws SerializeError, which becomes a Rejected RESULT below.
        // The blob is read in place from the frame buffer.
        const ObjRef root = deserialize_graph(vm, ctx, a.blob, a.blob_size);
        // Pin before anything can block: the raw root on this native
        // stack is not a GC root.
        vm.pin(root);
        pins.push_back(root);
        s.ref = root;
      }
      args.push_back(s);
    }

    ValType ret = ValType::None;
    Module& mod = vm.module();
    if (sub.method_id >= 0 &&
        static_cast<std::size_t>(sub.method_id) < mod.method_count()) {
      ret = mod.method(sub.method_id).sig.ret;
    }
    // GC-safe across submit: it can block while a snapshot quiesce holds
    // admission closed, and an unsafe blocked loop would deadlock the
    // collection that quiesce is waiting out. The arg graphs are pinned.
    service::JobHandle handle = [&] {
      SafeRegion safe(vm, ctx);
      return svc.submit(c.tenant, sub.method_id, std::move(args),
                        make_completion(c.id, sub.request_id));
    }();
    unpin_all();
    // A submit-time reject already fired its completion hook into the done
    // queue; the queue is only drained by this thread after dispatch, so
    // inserting now is not a race.
    c.pending.emplace(sub.request_id, Pending{std::move(handle), ret});
  } catch (const ProtocolError& e) {
    unpin_all();
    if (!sub.has_request_id) {
      protocol_error_close(c, e.what());
      return;
    }
    send_reject(c, sub.request_id, e.what());
  } catch (const SerializeError& e) {
    unpin_all();
    send_reject(c, sub.request_id,
                std::string("bad argument graph: ") + e.what());
  } catch (const std::exception& e) {
    unpin_all();
    send_reject(c, sub.request_id, e.what());  // unknown tenant / stopping
  }
}

void VmServer::Impl::handle_stats(Connection& c) {
  send_frame(c, FrameType::StatsOk,
             encode_stats_ok(svc.tenant_stats(c.tenant)));
}

void VmServer::Impl::handle_snapshot(Connection& c, VMContext& ctx) {
  if (!opt.allow_snapshot) {
    protocol_error_close(c, "snapshot disabled");
    return;
  }
  try {
    // Quiesces the whole service (admission closed, queue drained) and
    // blocks the loop until done — every connection stalls; that is the
    // documented cost of the operation.
    std::shared_ptr<const CodeArchive> archive = svc.capture_snapshot(&ctx);
    // An archive past the frame cap makes encode_frame throw, before
    // anything is queued: that too ends in the ERROR frame below.
    send_frame(c, FrameType::SnapshotOk, serialize_archives({archive}));
  } catch (const std::exception& e) {
    protocol_error_close(c, std::string("snapshot failed: ") + e.what());
  }
}

VmServer::VmServer(VirtualMachine& vm, service::ExecutionService& service,
                   ServerOptions options)
    : impl_(std::make_unique<Impl>(vm, service, std::move(options))) {}

VmServer::~VmServer() { impl_->shutdown(); }

void VmServer::add_credential(const std::string& tenant,
                              const std::string& token) {
  impl_->creds[tenant] = token;
}

void VmServer::start() { impl_->start(); }

void VmServer::stop() { impl_->shutdown(); }

std::uint16_t VmServer::port() const { return impl_->bound_port; }

}  // namespace hpcnet::vm::net
