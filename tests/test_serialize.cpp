// Serialization substrate: object-graph round trips (lists, cycles, shared
// references, every object kind), error handling on malformed streams, and
// the file-based variant the JGF Serial benchmark exercises.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "vm/regir.hpp"
#include "vm/serialize.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  VirtualMachine vm;
  std::int32_t node = -1;

  void SetUp() override {
    node = vm.module().define_class(
        "s.Node", {{"v", ValType::I32}, {"next", ValType::Ref}});
    vm.main_context();  // attach the host thread
  }

  ObjRef make_node(std::int32_t v, ObjRef next) {
    ObjRef o = vm.heap().alloc_instance(node);
    o->fields()[0] = Slot::from_i32(v);
    o->fields()[1] = Slot::from_ref(next);
    return o;
  }
};

TEST_F(SerializeTest, NullRoot) {
  const auto bytes = serialize_graph(vm, nullptr);
  EXPECT_EQ(deserialize_graph(vm, vm.main_context(), bytes.data(),
                              bytes.size()),
            nullptr);
}

TEST_F(SerializeTest, LinkedListRoundTrip) {
  ObjRef head = nullptr;
  for (int i = 0; i < 20; ++i) head = make_node(i, head);
  Pinned pin(vm, head);

  const auto bytes = serialize_graph(vm, head);
  ObjRef copy = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  Pinned pin2(vm, copy);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) {
    EXPECT_EQ(p->fields()[0].i32, 19 - n);
    ++n;
  }
  EXPECT_EQ(n, 20);
  EXPECT_NE(copy, head);  // a genuine deep copy
}

TEST_F(SerializeTest, CycleRoundTrip) {
  ObjRef a = make_node(1, nullptr);
  Pinned pin(vm, a);
  ObjRef b = make_node(2, a);
  a->fields()[1] = Slot::from_ref(b);  // a -> b -> a

  const auto bytes = serialize_graph(vm, a);
  ObjRef ca = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                bytes.size());
  ObjRef cb = ca->fields()[1].ref;
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->fields()[1].ref, ca);  // cycle preserved
  EXPECT_EQ(ca->fields()[0].i32, 1);
  EXPECT_EQ(cb->fields()[0].i32, 2);
}

TEST_F(SerializeTest, SharedReferencePreserved) {
  ObjRef shared = make_node(99, nullptr);
  Pinned pin(vm, shared);
  ObjRef x = make_node(1, shared);
  Pinned pinx(vm, x);
  ObjRef y = make_node(2, shared);
  // Carrier array holding both heads.
  ObjRef arr = vm.heap().alloc_array(ValType::Ref, 2);
  arr->ref_data()[0] = x;
  arr->ref_data()[1] = y;
  Pinned pina(vm, arr);

  const auto bytes = serialize_graph(vm, arr);
  ObjRef carr = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  ObjRef cx = carr->ref_data()[0];
  ObjRef cy = carr->ref_data()[1];
  EXPECT_EQ(cx->fields()[1].ref, cy->fields()[1].ref);  // still shared
  EXPECT_EQ(cx->fields()[1].ref->fields()[0].i32, 99);
}

TEST_F(SerializeTest, EveryObjectKindRoundTrips) {
  // One record of each kind, a null ref (carrier slot 5) and a cycle (the
  // node's next points back at the carrier).
  ObjRef carrier = vm.heap().alloc_array(ValType::Ref, 6);
  Pinned pin(vm, carrier);
  {
    ObjRef ints = vm.heap().alloc_array(ValType::I32, 3);
    ints->i32_data()[0] = -7;
    ints->i32_data()[2] = 123;
    carrier->ref_data()[0] = ints;
    ObjRef mat = vm.heap().alloc_matrix2(ValType::F64, 2, 3);
    mat->f64_data()[5] = 2.5;
    carrier->ref_data()[1] = mat;
    carrier->ref_data()[2] = vm.heap().alloc_box(ValType::F64,
                                                 Slot::from_f64(6.25));
    carrier->ref_data()[3] = vm.heap().alloc_string("hello");
    carrier->ref_data()[4] = make_node(5, carrier);
  }
  const auto bytes = serialize_graph(vm, carrier);

  // The HPC1 bytes, pinned: [u32 magic][u32 count], then the records in
  // breadth-first order, refs as little-endian i32 record ids (-1 = null).
  constexpr std::uint8_t kRef = static_cast<std::uint8_t>(ValType::Ref);
  constexpr std::uint8_t kI32 = static_cast<std::uint8_t>(ValType::I32);
  constexpr std::uint8_t kF64 = static_cast<std::uint8_t>(ValType::F64);
  LeBytes want;
  want.u32(0x48504331).u32(6);
  want.u8(static_cast<std::uint8_t>(ObjKind::Array)).u8(kRef).i32(6);
  for (std::int32_t id : {1, 2, 3, 4, 5, -1}) want.i32(id);
  want.u8(static_cast<std::uint8_t>(ObjKind::Array)).u8(kI32).i32(3);
  want.i32(-7).i32(0).i32(123);
  want.u8(static_cast<std::uint8_t>(ObjKind::Matrix2)).u8(kF64).i32(2).i32(3);
  for (int i = 0; i < 5; ++i) want.u64(0);
  want.u64(0x4004000000000000u);  // 2.5
  want.u8(static_cast<std::uint8_t>(ObjKind::Boxed)).u8(kF64);
  want.u64(0x4019000000000000u);  // 6.25
  want.u8(static_cast<std::uint8_t>(ObjKind::String)).i32(5).text("hello");
  want.u8(static_cast<std::uint8_t>(ObjKind::Instance)).i32(node).i32(2);
  want.u64(5).i32(0);  // v = 5, next = record 0
  EXPECT_EQ(bytes, want.bytes);

  ObjRef c = deserialize_graph(vm, vm.main_context(), bytes.data(),
                               bytes.size());
  EXPECT_EQ(c->ref_data()[0]->i32_data()[0], -7);
  EXPECT_EQ(c->ref_data()[0]->i32_data()[2], 123);
  EXPECT_EQ(c->ref_data()[1]->length, 2);
  EXPECT_EQ(c->ref_data()[1]->cols, 3);
  EXPECT_DOUBLE_EQ(c->ref_data()[1]->f64_data()[5], 2.5);
  EXPECT_DOUBLE_EQ(c->ref_data()[2]->fields()[0].f64, 6.25);
  EXPECT_EQ(string_value(c->ref_data()[3]), "hello");
  EXPECT_EQ(c->ref_data()[4]->fields()[0].i32, 5);
  EXPECT_EQ(c->ref_data()[4]->fields()[1].ref, c);
  EXPECT_EQ(c->ref_data()[5], nullptr);
}

TEST_F(SerializeTest, RejectsTruncatedStream) {
  ObjRef head = make_node(1, nullptr);
  Pinned pin(vm, head);
  auto bytes = serialize_graph(vm, head);
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2}) {
    EXPECT_THROW(
        deserialize_graph(vm, vm.main_context(), bytes.data(), cut),
        SerializeError)
        << cut;
  }
}

/// A graph blob of one record: magic, a record count of 1, the record's
/// kind and element bytes, then `words`.
std::vector<char> one_record_blob(const std::vector<std::uint32_t>& words,
                                  std::uint8_t kind, std::uint8_t elem) {
  std::vector<char> blob;
  auto put32 = [&](std::uint32_t v) {
    const char* p = reinterpret_cast<const char*>(&v);
    blob.insert(blob.end(), p, p + 4);
  };
  put32(0x48504331);  // "HPC1"
  put32(1);
  blob.push_back(static_cast<char>(kind));
  blob.push_back(static_cast<char>(elem));
  for (std::uint32_t w : words) put32(w);
  return blob;
}

TEST_F(SerializeTest, RejectsMatrixWhoseSizeOverflows) {
  // rows * cols * 8 wraps past 2^64 to 537,552 bytes; the blob carries
  // exactly that many, so only a size check can tell it is short.
  auto blob = one_record_blob({2147437309u, 1073764994u},
                              static_cast<std::uint8_t>(ObjKind::Matrix2),
                              static_cast<std::uint8_t>(ValType::F64));
  blob.resize(blob.size() + 537552);
  EXPECT_THROW(
      deserialize_graph(vm, vm.main_context(), blob.data(), blob.size()),
      SerializeError);
}

TEST_F(SerializeTest, ChecksPayloadBeforeAllocating) {
  // ~20 bytes claiming i8[2^31-1] (16 GiB), and a count of 2^32-1 records
  // in a stream holding one: both are refused without touching the heap.
  const auto big = one_record_blob({0x7fffffffu},
                                   static_cast<std::uint8_t>(ObjKind::Array),
                                   static_cast<std::uint8_t>(ValType::I64));
  auto many = one_record_blob({3u}, static_cast<std::uint8_t>(ObjKind::Array),
                              static_cast<std::uint8_t>(ValType::I32));
  std::memset(many.data() + 4, 0xff, 4);
  for (const auto& blob : {big, many}) {
    const std::size_t allocs = vm.heap().stats().total_allocations;
    EXPECT_THROW(
        deserialize_graph(vm, vm.main_context(), blob.data(), blob.size()),
        SerializeError);
    EXPECT_EQ(vm.heap().stats().total_allocations, allocs);
  }
}

TEST_F(SerializeTest, RejectsElementTypeOutOfRange) {
  // Each record carries a full payload for its claimed shape, so only the
  // element-type check can refuse it: byte 9 is past ValType::Ref, and
  // serialize_graph never writes None (the verifier rejects NEWARR/NEWMAT
  // of None and BOX of a non-numeric type).
  const std::uint8_t array = static_cast<std::uint8_t>(ObjKind::Array);
  const std::uint8_t matrix = static_cast<std::uint8_t>(ObjKind::Matrix2);
  const std::uint8_t boxed = static_cast<std::uint8_t>(ObjKind::Boxed);
  for (std::uint8_t elem : {std::uint8_t{9},
                            static_cast<std::uint8_t>(ValType::None)}) {
    const std::vector<std::vector<char>> blobs = {
        one_record_blob({1u, 0u, 0u}, array, elem),          // len 1
        one_record_blob({1u, 1u, 0u, 0u}, matrix, elem),     // 1 x 1
        one_record_blob({0u, 0u}, boxed, elem),              // raw slot
    };
    for (const auto& blob : blobs) {
      EXPECT_THROW(
          deserialize_graph(vm, vm.main_context(), blob.data(), blob.size()),
          SerializeError)
          << "kind " << int(static_cast<std::uint8_t>(blob[8])) << " elem "
          << int(elem);
    }
  }
}

TEST_F(SerializeTest, RejectsBadMagic) {
  std::vector<char> junk = {'X', 'Y', 'Z', 'W', 0, 0, 0, 0};
  EXPECT_THROW(
      deserialize_graph(vm, vm.main_context(), junk.data(), junk.size()),
      SerializeError);
}

TEST_F(SerializeTest, FileRoundTrip) {
  ObjRef head = nullptr;
  for (int i = 0; i < 5; ++i) head = make_node(i * 10, head);
  Pinned pin(vm, head);
  const std::string path = "/tmp/hpcnet_serial_test.bin";
  serialize_to_file(vm, head, path);
  ObjRef copy = deserialize_from_file(vm, vm.main_context(), path);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) ++n;
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

TEST_F(SerializeTest, SurvivesGcPressureDuringDeserialize) {
  // Build the list under the default threshold (native locals are not GC
  // roots — the head must be pinned before any allocation can collect), then
  // tighten the threshold so the deserializer itself runs under constant
  // collection pressure.
  ObjRef head = nullptr;
  for (int i = 0; i < 200; ++i) head = make_node(i, head);
  Pinned pin(vm, head);
  vm.heap().set_threshold(1 << 12);  // collect constantly from here on
  const auto bytes = serialize_graph(vm, head);
  ObjRef copy = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  Pinned pin2(vm, copy);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) ++n;
  EXPECT_EQ(n, 200);
}

// ---------------------------------------------------------------------------
// Code-archive ('HPCA') wire format: hostile-input hardening. Round-trip
// correctness (bit-identical results, warm tiers, shared archives) lives in
// test_snapshot.cpp; here every test feeds the deserializer damaged bytes
// and asserts SerializeError or clean degradation — never UB.

// Mirrors the stream's own FNV-1a 64 so tests can re-seal a deliberately
// corrupted payload and reach the validation layers behind the checksum.
std::uint64_t fnv1a64(const char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Stream layout: [u32 magic][u32 version][u64 checksum of bytes 16..end].
void reseal(std::vector<char>& b) {
  const std::uint64_t h = fnv1a64(b.data() + 16, b.size() - 16);
  std::memcpy(b.data() + 8, &h, sizeof h);
}

class ArchiveTest : public ::testing::Test {
 protected:
  VirtualMachine vm;
  std::int32_t method = -1;
  std::vector<char> blob;  // valid archive of `method` warmed under clr11

  void SetUp() override {
    method = build_sum_squares(vm, "arch.sum");
    auto eng = make_engine(vm, profiles::by_name("clr11"));
    VMContext& ctx = vm.main_context();
    const std::vector<Slot> args = {Slot::from_i32(10)};
    const Slot r = eng->invoke(ctx, method, args);
    ASSERT_EQ(r.i32, 285);  // sum of i*i, i in [0,10)
    blob = serialize_archives({capture_archive(vm, "clr11")});
    ASSERT_GT(blob.size(), 16u);
  }

  /// (n: I32) -> I32: sum of i*i — a counted loop so the compiled body has
  /// branches, an il2rpc table and deopt points for the fuzzer to chew on.
  static std::int32_t build_sum_squares(VirtualMachine& v,
                                        const std::string& name) {
    ILBuilder b(v.module(), name, {{ValType::I32}, ValType::I32});
    const auto i = b.add_local(ValType::I32);
    const auto acc = b.add_local(ValType::I32);
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).ldc_i4(0).stloc(acc).br(cond);
    b.bind(top);
    b.ldloc(acc).ldloc(i).ldloc(i).mul().add().stloc(acc);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldarg(0).blt(top);
    b.ldloc(acc).ret();
    return b.finish();
  }

  /// The blob's single archive, parsed back (it is valid by construction).
  std::shared_ptr<const CodeArchive> parse() {
    auto as = deserialize_archives(vm.module(), blob.data(), blob.size());
    EXPECT_EQ(as.size(), 1u);
    return as.at(0);
  }

  /// Re-wraps one record (possibly with a mutated compiled body) and
  /// serializes it, resealing nothing — serialize_archives seals itself.
  static std::vector<char> wrap(const CodeArchive::MethodRecord& rec) {
    auto a = std::make_shared<const CodeArchive>(
        "clr11", std::vector<CodeArchive::MethodRecord>{rec});
    return serialize_archives({a});
  }
};

TEST_F(ArchiveTest, RoundTripsWarmRecord) {
  const auto a = parse();
  EXPECT_EQ(a->profile(), "clr11");
  ASSERT_FALSE(a->records().empty());
  bool found = false;
  for (const auto& rec : a->records()) {
    if (rec.method_id != method) continue;
    found = true;
    EXPECT_EQ(rec.name, "arch.sum");
    EXPECT_NE(rec.code, nullptr);
    EXPECT_EQ(rec.il_hash, il_content_hash(vm.module(), method));
  }
  EXPECT_TRUE(found);
}

TEST_F(ArchiveTest, RejectsTruncation) {
  // Every proper prefix must throw: header cuts die on magic/version/
  // checksum reads, payload cuts on the checksum (it covers to the end).
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          std::size_t{15}, std::size_t{17}, blob.size() / 2,
                          blob.size() - 1}) {
    EXPECT_THROW(deserialize_archives(vm.module(), blob.data(), cut),
                 SerializeError)
        << "cut=" << cut;
  }
}

TEST_F(ArchiveTest, RejectsBadMagic) {
  auto b = blob;
  b[0] = 'X';
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsBadVersion) {
  auto b = blob;
  b[4] = static_cast<char>(0x7f);
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsChecksumMismatch) {
  auto b = blob;
  b[b.size() / 2] ^= 0x01;  // payload damage, seal left stale
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, ByteFlipFuzzNeverFaults) {
  // Flip one payload byte at a time and RE-SEAL, so the damage reaches the
  // structural validators and the re-verifier behind the checksum. Each
  // variant must either throw SerializeError or parse into records that
  // attach cleanly (possibly as misses) into a fresh VM — never crash.
  std::size_t threw = 0, parsed = 0;
  for (std::size_t off = 16; off < blob.size();
       off += (off < 96 ? 1 : 7)) {
    auto b = blob;
    b[off] ^= 0xff;
    reseal(b);
    VirtualMachine fresh;
    build_sum_squares(fresh, "arch.sum");
    try {
      const auto as = deserialize_archives(fresh.module(), b.data(), b.size());
      for (const auto& a : as) attach_archive(fresh, a);
      ++parsed;
    } catch (const SerializeError&) {
      ++threw;
    }
  }
  // Both outcomes must actually occur: some flips are structural damage,
  // some land in hash/hotness fields and degrade to misses or benign skews.
  EXPECT_GT(threw, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST_F(ArchiveTest, OutOfRangeMethodIdIsAMiss) {
  // An id beyond the local module parses fine (the wire format is module-
  // agnostic) but can never match at attach time.
  CodeArchive::MethodRecord rec;
  rec.method_id = 9999;
  rec.name = "arch.sum";
  rec.il_hash = 0xdeadbeefull;
  rec.tier = 1;
  rec.hotness = 5;
  const auto bytes = wrap(rec);
  const auto as = deserialize_archives(vm.module(), bytes.data(), bytes.size());
  ASSERT_EQ(as.size(), 1u);
  VirtualMachine fresh;
  build_sum_squares(fresh, "arch.sum");
  const ArchiveStats st = attach_archive(fresh, as[0]);
  EXPECT_EQ(st.restored, 0u);
  EXPECT_EQ(st.missed, 1u);
}

TEST_F(ArchiveTest, RejectsSideTableLengthMismatch) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  // il2rpc must map every IL pc (plus the end sentinel); drop one entry.
  auto mutated = std::make_shared<regir::RCode>(*warm->code);
  mutated->il2rpc.pop_back();
  CodeArchive::MethodRecord rec = *warm;
  rec.code = mutated;
  const auto bytes = wrap(rec);
  EXPECT_THROW(deserialize_archives(vm.module(), bytes.data(), bytes.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsOutOfRangeRegister) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  auto mutated = std::make_shared<regir::RCode>(*warm->code);
  ASSERT_FALSE(mutated->code.empty());
  mutated->code[0].d = mutated->num_regs + 10;
  CodeArchive::MethodRecord rec = *warm;
  rec.code = mutated;
  const auto bytes = wrap(rec);
  EXPECT_THROW(deserialize_archives(vm.module(), bytes.data(), bytes.size()),
               SerializeError);
}

TEST_F(ArchiveTest, StaleHashDegradesToMiss) {
  // Same method name and id, different body in the attaching VM: the
  // verified-IL hash no longer matches, so the record is skipped and the
  // method stays cold (it will compile normally on first call).
  VirtualMachine other;
  std::int32_t local;
  {
    ILBuilder b(other.module(), "arch.sum", {{ValType::I32}, ValType::I32});
    b.ldarg(0).ldc_i4(7).add().ret();  // different semantics entirely
    local = b.finish();
  }
  ASSERT_EQ(local, method);  // same id, same name, different body
  const auto as = deserialize_archives(other.module(), blob.data(),
                                       blob.size());
  ASSERT_EQ(as.size(), 1u);
  const ArchiveStats st = attach_archive(other, as[0]);
  EXPECT_EQ(st.restored, 0u);
  EXPECT_GE(st.missed, 1u);
  // And the local semantics win at execution time.
  auto eng = make_engine(other, profiles::by_name("clr11"));
  const std::vector<Slot> args = {Slot::from_i32(10)};
  EXPECT_EQ(eng->invoke(other.main_context(), local, args).i32, 17);
}

}  // namespace
}  // namespace hpcnet::test
