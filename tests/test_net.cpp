// TCP front-end tests (DESIGN.md §14): loopback round trips for every frame
// type, golden bytes for the HELLO, SUBMIT and RESULT payloads as both the
// client and the server write them, auth and version gating,
// connection-lifetime job cancellation, and the hostile-input sweeps the
// wire parser must shrug off — truncation at every byte offset,
// oversized/zero length prefixes, mid-SUBMIT disconnects and
// single-byte-flip fuzzing. Every malformed input must end in a clean
// ERROR frame or a closed connection, never UB; after each sweep a fresh
// client proves the server still completes jobs. The binary also runs under
// TSan in CI (loop thread vs workers vs client threads).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/intrinsics.hpp"
#include "vm/monitor.hpp"
#include "vm/net/client.hpp"
#include "vm/net/server.hpp"
#include "vm/serialize.hpp"
#include "vm/service/service.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using namespace hpcnet::vm;
using net::FrameType;
using net::VmClient;
using net::VmServer;
using net::WireReader;
using net::WireResult;
using net::WireValue;
using service::ExecutionService;
using service::JobOutcome;

/// All ten TenantStats fields, the StatsOk payload.
void expect_same_stats(const service::TenantStats& got,
                       const service::TenantStats& want) {
  EXPECT_EQ(got.jobs_completed, want.jobs_completed);
  EXPECT_EQ(got.jobs_killed_fuel, want.jobs_killed_fuel);
  EXPECT_EQ(got.jobs_killed_memory, want.jobs_killed_memory);
  EXPECT_EQ(got.jobs_killed_deadline, want.jobs_killed_deadline);
  EXPECT_EQ(got.jobs_faulted, want.jobs_faulted);
  EXPECT_EQ(got.jobs_rejected, want.jobs_rejected);
  EXPECT_EQ(got.fuel_spent, want.fuel_spent);
  EXPECT_EQ(got.bytes_charged, want.bytes_charged);
  EXPECT_EQ(got.queue_ns, want.queue_ns);
  EXPECT_EQ(got.run_ns, want.run_ns);
}

/// sum(0..n-1), one taken backward branch per iteration (fuel = n).
std::int32_t build_spin(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto sum = b.add_local(ValType::I32);
  auto loop = b.new_label();
  auto done = b.new_label();
  b.ldc_i4(0).stloc(i);
  b.ldc_i4(0).stloc(sum);
  b.bind(loop);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(sum).ldloc(i).add().stloc(sum);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(loop);
  b.bind(done);
  b.ldloc(sum).ret();
  return b.finish();
}

/// gate(obj) { lock(obj) { Pulse(obj); Wait(obj); } ret 1 } — the same
/// pickup handshake test_service uses to park a worker deterministically.
std::int32_t build_gate(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::Ref}, ValType::I32});
  b.ldarg(0).call_intr(I_MON_ENTER);
  b.ldarg(0).call_intr(I_MON_PULSE);
  b.ldarg(0).call_intr(I_MON_WAIT);
  b.ldarg(0).call_intr(I_MON_EXIT);
  b.ldc_i4(1).ret();
  return b.finish();
}

/// echo(obj) { return obj; } — ref round trip through the serialize path.
std::int32_t build_echo(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::Ref}, ValType::Ref});
  b.ldarg(0).ret();
  return b.finish();
}

/// One VM + service + listening server, open to its registered tenants.
struct Loopback {
  VirtualMachine vm;
  std::int32_t spin;
  ExecutionService svc;
  VmServer server;

  explicit Loopback(int workers = 2,
                    std::vector<service::TenantConfig> tenants = {{.name =
                                                                       "a"}})
      : spin(build_spin(vm.module(), "net.spin")),
        svc(vm, profiles::clr11(), {.workers = workers, .warm_start = nullptr}),
        server(vm, svc, open_options()) {
    for (auto& t : tenants) svc.add_tenant(t);
    server.start();
  }

  static net::ServerOptions open_options() {
    net::ServerOptions o;
    o.open_tenants = true;
    return o;
  }

  VmClient client(const std::string& tenant = "a") {
    VmClient c;
    c.connect("127.0.0.1", server.port());
    c.hello(tenant, "");
    return c;
  }

  /// A fresh connection still completes a job — the liveness probe the
  /// hostile-input sweeps end with.
  void expect_alive() {
    VmClient c = client();
    const WireResult r = c.call(spin, {WireValue::from_i32(10)});
    EXPECT_EQ(r.outcome, 0);  // Completed
    EXPECT_EQ(r.value.as_i32(), 45);
  }
};

/// A well-formed SUBMIT frame for spin(10), the corpus for the sweeps.
std::vector<char> submit_frame(std::int32_t method, std::uint64_t req) {
  ByteWriter w;
  w.u64(req);
  w.i32(method);
  w.u8(1);
  w.u8(static_cast<std::uint8_t>(ValType::I32));
  w.u64(Slot::from_i32(10).raw);
  std::vector<char> frame;
  net::append_frame(frame, FrameType::Submit, w.data());
  return frame;
}

TEST(Net, ScalarRoundTrip) {
  Loopback lb;
  VmClient c = lb.client();
  const WireResult r = c.call(lb.spin, {WireValue::from_i32(1000)});
  EXPECT_EQ(r.outcome, 0);
  EXPECT_EQ(r.value.type, ValType::I32);
  EXPECT_EQ(r.value.as_i32(), 999 * 1000 / 2);
  EXPECT_EQ(r.error, "");

  // Shape errors surface as Rejected RESULTs, not dead connections.
  const WireResult bad_argc = c.call(lb.spin, {});
  EXPECT_EQ(bad_argc.outcome, 4);  // Rejected
  EXPECT_EQ(bad_argc.error, "argument count mismatch");
  const WireResult bad_method = c.call(1 << 20, {WireValue::from_i32(1)});
  EXPECT_EQ(bad_method.outcome, 4);
  EXPECT_EQ(bad_method.error, "bad method id");

  // Pipelined submits: results match on request id, whatever the order.
  std::vector<std::uint64_t> ids;
  for (int i = 1; i <= 8; ++i) {
    ids.push_back(c.send_submit(lb.spin, {WireValue::from_i32(i * 10)}));
  }
  std::map<std::uint64_t, std::int32_t> got;
  for (int i = 0; i < 8; ++i) {
    const WireResult res = c.recv_result();
    EXPECT_EQ(res.outcome, 0);
    got[res.request_id] = res.value.as_i32();
  }
  for (int i = 1; i <= 8; ++i) {
    const int n = i * 10;
    EXPECT_EQ(got[ids[static_cast<std::size_t>(i - 1)]], n * (n - 1) / 2);
  }
}

TEST(Net, RefArgAndResultRoundTrip) {
  Loopback lb;
  Module& mod = lb.vm.module();
  const auto node_cls = mod.define_class(
      "net.Node", {{"next", ValType::Ref}, {"v", ValType::I32}});
  const auto echo = build_echo(mod, "net.echo");

  // Build a 2-node list on the server VM, ship it as a serialize_graph blob.
  VMContext& ctx = lb.vm.main_context();
  std::vector<char> blob;
  {
    ObjRef head = lb.vm.heap().alloc_instance(node_cls, &ctx.tlab);
    Pinned pin(lb.vm, head);
    ObjRef tail = lb.vm.heap().alloc_instance(node_cls, &ctx.tlab);
    head->fields()[0].ref = tail;
    head->fields()[1].i32 = 11;
    tail->fields()[1].i32 = 22;
    blob = serialize_graph(lb.vm, head);
  }

  VmClient c = lb.client();
  const WireResult r = c.call(echo, {WireValue::from_graph(blob)});
  ASSERT_EQ(r.outcome, 0);
  ASSERT_EQ(r.value.type, ValType::Ref);
  ASSERT_FALSE(r.value.blob.empty());
  ObjRef back = deserialize_graph(lb.vm, ctx, r.value.blob.data(),
                                  r.value.blob.size());
  ASSERT_NE(back, nullptr);
  Pinned pin(lb.vm, back);
  EXPECT_EQ(back->fields()[1].i32, 11);
  ASSERT_NE(back->fields()[0].ref, nullptr);
  EXPECT_EQ(back->fields()[0].ref->fields()[1].i32, 22);

  // Null refs ride as empty blobs, both directions.
  const WireResult rnull = c.call(echo, {WireValue::from_graph({})});
  ASSERT_EQ(rnull.outcome, 0);
  EXPECT_TRUE(rnull.value.blob.empty());

  // A corrupt graph blob is Rejected by the defensive deserializer.
  std::vector<char> junk(blob);
  junk[junk.size() / 2] = static_cast<char>(junk[junk.size() / 2] ^ 0x5A);
  junk[0] = static_cast<char>(junk[0] ^ 0xFF);
  const WireResult rbad = c.call(echo, {WireValue::from_graph(junk)});
  EXPECT_EQ(rbad.outcome, 4);
  EXPECT_NE(rbad.error.find("bad argument graph"), std::string::npos);
}

TEST(Net, AuthRequiresExactToken) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "net.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  svc.add_tenant({.name = "b"});
  VmServer server(vm, svc);  // closed: credentials only
  server.add_credential("a", "secret");
  server.start();

  VmClient wrong;
  wrong.connect("127.0.0.1", server.port());
  EXPECT_THROW(wrong.hello("a", "not-secret"), net::ProtocolError);
  VmClient uncredentialed;
  uncredentialed.connect("127.0.0.1", server.port());
  EXPECT_THROW(uncredentialed.hello("b", ""), net::ProtocolError);
  VmClient unknown;
  unknown.connect("127.0.0.1", server.port());
  EXPECT_THROW(unknown.hello("nobody", "secret"), net::ProtocolError);

  VmClient ok;
  ok.connect("127.0.0.1", server.port());
  ok.hello("a", "secret");
  EXPECT_EQ(ok.call(spin, {WireValue::from_i32(10)}).outcome, 0);
}

TEST(Net, OpenTenantsStillRequireRegistration) {
  Loopback lb;
  VmClient c;
  c.connect("127.0.0.1", lb.server.port());
  EXPECT_THROW(c.hello("never-registered", ""), net::ProtocolError);
  lb.expect_alive();
}

TEST(Net, BadMagicAndVersionAreRefused) {
  Loopback lb;
  const auto attempt = [&](std::uint32_t magic, std::uint32_t version) {
    ByteWriter w;
    w.u32(magic);
    w.u32(version);
    w.str("a");
    w.str("");
    std::vector<char> frame;
    net::append_frame(frame, FrameType::Hello, w.data());
    VmClient c;
    c.connect("127.0.0.1", lb.server.port());
    c.send_raw(frame.data(), frame.size());
    FrameType type{};
    std::vector<char> payload;
    ASSERT_TRUE(c.recv_frame(type, payload));
    EXPECT_EQ(type, FrameType::Error);
    // The server closes after the ERROR frame.
    EXPECT_FALSE(c.recv_frame(type, payload));
  };
  attempt(0xDEADBEEF, net::kVersion);
  attempt(net::kMagic, net::kVersion + 1);
  lb.expect_alive();
}

TEST(Net, SubmitBeforeHelloIsRefused) {
  Loopback lb;
  VmClient c;
  c.connect("127.0.0.1", lb.server.port());
  const std::vector<char> frame = submit_frame(lb.spin, 1);
  c.send_raw(frame.data(), frame.size());
  FrameType type{};
  std::vector<char> payload;
  ASSERT_TRUE(c.recv_frame(type, payload));
  EXPECT_EQ(type, FrameType::Error);
  EXPECT_FALSE(c.recv_frame(type, payload));
  lb.expect_alive();
}

TEST(Net, FuelAndDeadlineKillsCrossTheWire) {
  Loopback lb(2, {{.name = "fueled", .fuel_per_job = 10'000},
                  {.name = "slow", .deadline_ms = 50}});
  VmClient fueled = lb.client("fueled");
  const WireResult rf = fueled.call(lb.spin, {WireValue::from_i32(1 << 30)});
  EXPECT_EQ(rf.outcome, 1);  // KilledFuel
  EXPECT_GE(rf.fuel_spent, 10'000u);
  EXPECT_NE(rf.error, "");

  VmClient slow = lb.client("slow");
  const WireResult rd = slow.call(lb.spin, {WireValue::from_i32(1 << 30)});
  EXPECT_EQ(rd.outcome, 5);  // KilledDeadline
  EXPECT_GE(rd.run_ns, 50'000'000);
  EXPECT_GT(rd.fuel_spent, 0u);
}

TEST(Net, StatsOverTcp) {
  Loopback lb(2, {{.name = "a", .fuel_per_job = 100}});
  VmClient c = lb.client();
  EXPECT_EQ(c.call(lb.spin, {WireValue::from_i32(10)}).outcome, 0);
  EXPECT_EQ(c.call(lb.spin, {WireValue::from_i32(10)}).outcome, 0);
  EXPECT_EQ(c.call(lb.spin, {WireValue::from_i32(1 << 20)}).outcome, 1);
  const service::TenantStats st = c.stats();
  EXPECT_EQ(st.jobs_completed, 2u);
  EXPECT_EQ(st.jobs_killed_fuel, 1u);
  EXPECT_GT(st.fuel_spent, 0u);
  EXPECT_GT(st.run_ns, 0);
  // The wire hands back the service's own tally, field for field.
  expect_same_stats(st, lb.svc.tenant_stats("a"));
}

TEST(Net, StatsOkCodecKeepsFieldOrder) {
  // The ten fields travel as little-endian u64s in declaration order.
  service::TenantStats st;
  st.jobs_completed = 1;
  st.jobs_killed_fuel = 2;
  st.jobs_killed_memory = 3;
  st.jobs_killed_deadline = 4;
  st.jobs_faulted = 5;
  st.jobs_rejected = 6;
  st.fuel_spent = 7;
  st.bytes_charged = 8;
  st.queue_ns = 9;
  st.run_ns = 10;
  const std::vector<char> payload = net::encode_stats_ok(st);
  ASSERT_EQ(payload.size(), 80u);
  WireReader words(payload.data(), payload.size());
  for (std::uint64_t want = 1; want <= 10; ++want) {
    EXPECT_EQ(words.u64(), want);
  }
  WireReader r(payload.data(), payload.size());
  expect_same_stats(net::decode_stats_ok(r), st);
  EXPECT_TRUE(r.empty());
}

/// [u32 length][u8 type][payload], spelled out for the golden-byte tests.
std::vector<char> frame_bytes(FrameType type, const std::vector<char>& payload) {
  LeBytes f;
  f.u32(static_cast<std::uint32_t>(payload.size() + 1));
  f.u8(static_cast<std::uint8_t>(type));
  f.bytes.insert(f.bytes.end(), payload.begin(), payload.end());
  return f.bytes;
}

/// A bare listening socket in place of a server: reads exactly what a
/// VmClient writes and hands it hand-built replies.
class FakePeer {
 public:
  FakePeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakePeer() {
    if (fd_ >= 0) ::close(fd_);
    ::close(listen_fd_);
  }
  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  std::uint16_t port() const { return port_; }
  void accept_one() {
    fd_ = ::accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(fd_, 0);
    timeval tv{5, 0};  // a short write fails the test instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  void send(const std::vector<char>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Up to `n` bytes (fewer only if the client stops writing).
  std::vector<char> recv(std::size_t n) {
    std::vector<char> out(n);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t k = ::recv(fd_, out.data() + got, n - got, 0);
      if (k <= 0) break;
      got += static_cast<std::size_t>(k);
    }
    out.resize(got);
    return out;
  }

 private:
  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

constexpr std::uint8_t tag(ValType t) { return static_cast<std::uint8_t>(t); }

TEST(Net, ClientPayloadBytesArePinned) {
  FakePeer peer;
  VmClient c;
  c.connect("127.0.0.1", peer.port());
  peer.accept_one();

  // HELLO: [u32 'HPCN'][u32 version][str tenant][str token].
  peer.send(frame_bytes(FrameType::HelloOk, LeBytes().u32(1).bytes));
  c.hello("ten", "tok");
  const std::vector<char> hello = frame_bytes(
      FrameType::Hello,
      LeBytes().u32(0x4850434E).u32(1).u32(3).text("ten").u32(3).text("tok")
          .bytes);
  EXPECT_EQ(peer.recv(hello.size()), hello);

  // SUBMIT: [u64 id][i32 method][u8 argc], each arg [u8 tag][u64 raw] or
  // [u8 Ref][u32 len][blob] (len 0 = null).
  WireValue f32;
  f32.type = ValType::F32;
  f32.raw = Slot::from_f32(0.5f).raw;
  const std::uint64_t id = c.send_submit(
      42, {WireValue::from_i32(-2), WireValue::from_i64(-3), f32,
           WireValue::from_f64(1.5), WireValue::from_graph({'x', 'y', 'z'}),
           WireValue::from_graph({})});
  EXPECT_EQ(id, 1u);
  LeBytes submit;
  submit.u64(1).i32(42).u8(6);
  submit.u8(tag(ValType::I32)).u64(0xFFFFFFFEu);
  submit.u8(tag(ValType::I64)).u64(0xFFFFFFFFFFFFFFFDu);
  submit.u8(tag(ValType::F32)).u64(0x3F000000u);
  submit.u8(tag(ValType::F64)).u64(0x3FF8000000000000u);
  submit.u8(tag(ValType::Ref)).u32(3).text("xyz");
  submit.u8(tag(ValType::Ref)).u32(0);
  const std::vector<char> submit_frame =
      frame_bytes(FrameType::Submit, submit.bytes);
  EXPECT_EQ(peer.recv(submit_frame.size()), submit_frame);

  // RESULT: [u64 id][u8 outcome][value][str error][u64 fuel][u64 bytes]
  // [u64 queue ns][u64 run ns]; a ref value, a scalar, then no value.
  peer.send(frame_bytes(FrameType::Result, LeBytes()
                                               .u64(1)
                                               .u8(0)
                                               .u8(tag(ValType::Ref))
                                               .u32(3)
                                               .text("abc")
                                               .u32(2)
                                               .text("e!")
                                               .u64(11)
                                               .u64(22)
                                               .u64(33)
                                               .u64(44)
                                               .bytes));
  peer.send(frame_bytes(FrameType::Result, LeBytes()
                                               .u64(2)
                                               .u8(0)
                                               .u8(tag(ValType::F64))
                                               .u64(0x3FF8000000000000u)
                                               .u32(0)
                                               .u64(1)
                                               .u64(2)
                                               .u64(3)
                                               .u64(4)
                                               .bytes));
  peer.send(frame_bytes(FrameType::Result, LeBytes()
                                               .u64(3)
                                               .u8(4)
                                               .u8(tag(ValType::None))
                                               .u32(4)
                                               .text("nope")
                                               .u64(0)
                                               .u64(0)
                                               .u64(5)
                                               .u64(0)
                                               .bytes));
  const WireResult ref = c.recv_result();
  EXPECT_EQ(ref.request_id, 1u);
  EXPECT_EQ(ref.outcome, 0);
  EXPECT_EQ(ref.value.type, ValType::Ref);
  EXPECT_EQ(ref.value.blob, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(ref.error, "e!");
  EXPECT_EQ(ref.fuel_spent, 11u);
  EXPECT_EQ(ref.bytes_charged, 22u);
  EXPECT_EQ(ref.queue_ns, 33);
  EXPECT_EQ(ref.run_ns, 44);
  const WireResult scalar = c.recv_result();
  EXPECT_EQ(scalar.request_id, 2u);
  EXPECT_EQ(scalar.value.type, ValType::F64);
  EXPECT_EQ(scalar.value.as_f64(), 1.5);
  EXPECT_EQ(scalar.error, "");
  EXPECT_EQ(scalar.run_ns, 4);
  const WireResult none = c.recv_result();
  EXPECT_EQ(none.request_id, 3u);
  EXPECT_EQ(none.outcome, 4);
  EXPECT_EQ(none.value.type, ValType::None);
  EXPECT_EQ(none.error, "nope");
  EXPECT_EQ(none.queue_ns, 5);
}

TEST(Net, ServerPayloadBytesArePinned) {
  Loopback lb;
  Module& mod = lb.vm.module();
  const auto node_cls = mod.define_class(
      "net.Node", {{"next", ValType::Ref}, {"v", ValType::I32}});
  const auto echo = build_echo(mod, "net.echo");
  std::vector<char> blob;
  {
    VMContext& ctx = lb.vm.main_context();
    ObjRef node = lb.vm.heap().alloc_instance(node_cls, &ctx.tlab);
    node->fields()[1].i32 = 7;
    blob = serialize_graph(lb.vm, node);
  }

  VmClient c;
  c.connect("127.0.0.1", lb.server.port());
  const std::vector<char> hello = frame_bytes(
      FrameType::Hello,
      LeBytes().u32(0x4850434E).u32(1).u32(1).text("a").u32(0).bytes);
  c.send_raw(hello.data(), hello.size());
  FrameType type{};
  std::vector<char> payload;
  ASSERT_TRUE(c.recv_frame(type, payload));
  ASSERT_EQ(type, FrameType::HelloOk);
  EXPECT_EQ(payload, LeBytes().u32(1).bytes);

  // Each SUBMIT's RESULT: id, outcome Completed, the value, an empty error,
  // then four u64 counters whose values vary run to run.
  const auto expect_result = [&](const std::vector<char>& submit_payload,
                                 const std::vector<char>& value) {
    const std::vector<char> frame =
        frame_bytes(FrameType::Submit, submit_payload);
    c.send_raw(frame.data(), frame.size());
    ASSERT_TRUE(c.recv_frame(type, payload));
    ASSERT_EQ(type, FrameType::Result);
    LeBytes head;
    head.bytes.assign(submit_payload.begin(), submit_payload.begin() + 8);
    head.u8(0);
    head.bytes.insert(head.bytes.end(), value.begin(), value.end());
    head.u32(0);
    ASSERT_EQ(payload.size(), head.bytes.size() + 32);
    payload.resize(head.bytes.size());
    EXPECT_EQ(payload, head.bytes);
  };
  expect_result(LeBytes()
                    .u64(7)
                    .i32(lb.spin)
                    .u8(1)
                    .u8(tag(ValType::I32))
                    .u64(10)
                    .bytes,
                LeBytes().u8(tag(ValType::I32)).u64(45).bytes);
  LeBytes ref_arg;
  ref_arg.u64(8).i32(echo).u8(1).u8(tag(ValType::Ref));
  ref_arg.u32(static_cast<std::uint32_t>(blob.size()));
  ref_arg.bytes.insert(ref_arg.bytes.end(), blob.begin(), blob.end());
  LeBytes ref_value;
  ref_value.u8(tag(ValType::Ref)).u32(static_cast<std::uint32_t>(blob.size()));
  ref_value.bytes.insert(ref_value.bytes.end(), blob.begin(), blob.end());
  expect_result(ref_arg.bytes, ref_value.bytes);
  expect_result(
      LeBytes().u64(9).i32(echo).u8(1).u8(tag(ValType::Ref)).u32(0).bytes,
      LeBytes().u8(tag(ValType::Ref)).u32(0).bytes);
}

TEST(Net, SnapshotOverTcpIsALoadableArchive) {
  Loopback lb;
  VmClient c = lb.client();
  // Warm the cache so the archive has something in it.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.call(lb.spin, {WireValue::from_i32(5000)}).outcome, 0);
  }
  const std::vector<char> stream = c.snapshot();
  ASSERT_GE(stream.size(), 4u);
  WireReader r(stream.data(), stream.size());
  EXPECT_EQ(r.u32(), 0x48504341u);  // 'HPCA'
  const auto archives =
      deserialize_archives(lb.vm.module(), stream.data(), stream.size());
  EXPECT_FALSE(archives.empty());
  // The server kept serving through and after the quiesce.
  EXPECT_EQ(c.call(lb.spin, {WireValue::from_i32(10)}).outcome, 0);
}

TEST(Net, SnapshotRefusedWhenDisabled) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "net.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  net::ServerOptions opt = Loopback::open_options();
  opt.allow_snapshot = false;
  VmServer server(vm, svc, opt);
  server.start();

  VmClient c;
  c.connect("127.0.0.1", server.port());
  c.hello("a", "");
  EXPECT_EQ(c.call(spin, {WireValue::from_i32(10)}).outcome, 0);
  try {
    (void)c.snapshot();
    ADD_FAILURE() << "SNAPSHOT answered on a server that disallows it";
  } catch (const net::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot disabled"),
              std::string::npos)
        << e.what();
  }
  // The ERROR frame ends the connection; other connections keep serving.
  FrameType type{};
  std::vector<char> payload;
  EXPECT_FALSE(c.recv_frame(type, payload));
  VmClient other;
  other.connect("127.0.0.1", server.port());
  other.hello("a", "");
  EXPECT_EQ(other.call(spin, {WireValue::from_i32(10)}).value.as_i32(), 45);
}

TEST(Net, SubmitWithTooManyArgsThrowsBeforeSending) {
  Loopback lb;
  VmClient c = lb.client();
  // argc is one byte on the wire: 256 arguments cannot be encoded.
  const std::vector<WireValue> args(256, WireValue::from_i32(1));
  EXPECT_THROW(c.send_submit(lb.spin, args), net::ProtocolError);
  // Nothing reached the server, so the connection is still in step.
  const WireResult r = c.call(lb.spin, {WireValue::from_i32(10)});
  EXPECT_EQ(r.outcome, 0);
  EXPECT_EQ(r.value.as_i32(), 45);
  EXPECT_EQ(c.stats().jobs_rejected, 0u);
}

TEST(Net, ConcurrentTenantsShareOneServer) {
  Loopback lb(2, {{.name = "a"}, {.name = "b"}});
  constexpr int kJobs = 20;
  const auto drive = [&](const std::string& tenant) {
    VmClient c = lb.client(tenant);
    for (int i = 0; i < kJobs; ++i) {
      const WireResult r = c.call(lb.spin, {WireValue::from_i32(100)});
      ASSERT_EQ(r.outcome, 0) << tenant;
      ASSERT_EQ(r.value.as_i32(), 4950) << tenant;
    }
    EXPECT_EQ(c.stats().jobs_completed, static_cast<std::uint64_t>(kJobs))
        << tenant;
  };
  std::thread tb([&] { drive("b"); });
  drive("a");
  tb.join();
}

// The tentpole's cancellation seam: a connection that drops takes its
// still-queued jobs with it. The single worker is parked inside a directly-
// submitted gate job (pickup confirmed by the monitor handshake), so the
// three TCP submits cannot start; a STATS round trip proves the loop
// dispatched them (frames on one connection are processed in order); then
// the client vanishes and the loop must fail all three as Rejected.
TEST(Net, DroppedConnectionRejectsPendingJobs) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto gate = build_gate(mod, "net.gate");
  const auto spin = build_spin(mod, "net.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "gatekeeper"});
  svc.add_tenant({.name = "a"});
  VmServer server(vm, svc, Loopback::open_options());
  server.start();

  VMContext& ctx = vm.main_context();
  ObjRef lock = vm.heap().alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned lock_pin(vm, lock);
  vm.monitors().enter(ctx, lock);
  auto blocker = svc.submit("gatekeeper", gate, {Slot::from_ref(lock)});
  ASSERT_TRUE(vm.monitors().wait(ctx, lock));  // worker provably busy

  {
    VmClient c;
    c.connect("127.0.0.1", server.port());
    c.hello("a", "");
    for (int i = 0; i < 3; ++i) {
      c.send_submit(spin, {WireValue::from_i32(10)});
    }
    (void)c.stats();  // barrier: all three SUBMITs are dispatched and queued
  }  // ~VmClient drops the socket with the jobs still queued

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (svc.tenant_stats("a").jobs_rejected < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.tenant_stats("a").jobs_rejected, 3u);
  EXPECT_EQ(svc.tenant_stats("a").jobs_completed, 0u);

  vm.monitors().pulse(ctx, lock);
  vm.monitors().exit(ctx, lock);
  EXPECT_EQ(blocker.wait(&ctx).outcome, JobOutcome::Completed);
  server.stop();
  svc.drain(&ctx);
}

// --- Hostile input ---------------------------------------------------------

TEST(Net, TruncationAtEveryByteOffsetIsClean) {
  Loopback lb;
  const std::vector<char> frame = submit_frame(lb.spin, 7);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    VmClient c = lb.client();
    if (cut != 0) c.send_raw(frame.data(), cut);
    c.close();  // mid-frame EOF: the server must just reap the connection
  }
  lb.expect_alive();
}

TEST(Net, OversizedAndZeroLengthPrefixesAreRefused) {
  Loopback lb;
  for (const std::uint32_t len : {0u, net::kMaxFramePayload + 1, 0x7FFFFFFFu,
                                  0xFFFFFFFFu}) {
    ByteWriter w;
    w.u32(len);
    w.u8(static_cast<std::uint8_t>(FrameType::Stats));
    VmClient c = lb.client();
    c.send_raw(w.data().data(), w.data().size());
    FrameType type{};
    std::vector<char> payload;
    ASSERT_TRUE(c.recv_frame(type, payload)) << len;
    EXPECT_EQ(type, FrameType::Error) << len;
    WireReader r(payload.data(), payload.size());
    EXPECT_EQ(r.str(), "bad frame length") << len;
    EXPECT_FALSE(c.recv_frame(type, payload)) << len;  // then close
  }
  lb.expect_alive();
}

TEST(Net, MidSubmitDisconnectLeavesServerHealthy) {
  Loopback lb;
  const std::vector<char> frame = submit_frame(lb.spin, 9);
  VmClient c = lb.client();
  c.send_raw(frame.data(), frame.size() / 2);
  c.close();
  lb.expect_alive();
}

// Flip each byte of a valid SUBMIT frame in turn. Depending on the byte this
// yields a bad length, a bad type, a bad tag, truncated payloads, or a
// perfectly valid submit for different arguments — all must leave the server
// able to keep serving. Replies are deliberately not read (a flipped length
// can legally leave the server waiting for more bytes, so reads could hang);
// the liveness probe at the end is the assertion.
TEST(Net, ByteFlipFuzzNeverKillsTheServer) {
  Loopback lb;
  const std::vector<char> frame = submit_frame(lb.spin, 11);
  std::vector<char> stats;
  net::append_frame(stats, FrameType::Stats, {});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<char> mutant = frame;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    VmClient c = lb.client();
    c.send_raw(mutant.data(), mutant.size());
    c.send_raw(stats.data(), stats.size());
    c.close();
  }
  lb.expect_alive();
  // Whatever the mutants did, accounting is still coherent: nothing is
  // queued forever and STATS still answers.
  VmClient c = lb.client();
  const service::TenantStats st = c.stats();
  EXPECT_GE(st.jobs_completed, 1u);  // at least the liveness probes
}

}  // namespace
}  // namespace hpcnet::test
