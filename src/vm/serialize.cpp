#include "vm/serialize.hpp"

#include <cstring>
#include <fstream>
#include <unordered_map>

#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/regir.hpp"
#include "vm/regir_ops.hpp"
#include "vm/veckernels.hpp"
#include "vm/verifier.hpp"
#include "vm/wire.hpp"

namespace hpcnet::vm {

namespace {

constexpr std::uint32_t kMagic = 0x48504331;  // "HPC1"

using Reader = ByteReader<SerializeError>;

/// Bytes one element takes on the wire: a ref element is an i32 record id.
std::size_t wire_elem_size(ValType elem) {
  return elem == ValType::Ref ? 4 : elem_size(elem);
}

/// Reads a ValType byte, refusing anything past Ref, and None unless the
/// field may mean "no value". The one range check of both decoders: graph
/// element types (never None) and archive signatures, IL and registers.
ValType get_valtype(Reader& r, const char* what, bool allow_none = true) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(ValType::Ref) ||
      (!allow_none && v == static_cast<std::uint8_t>(ValType::None))) {
    throw SerializeError(std::string(what) + ": bad ValType");
  }
  return static_cast<ValType>(v);
}

}  // namespace

std::vector<char> serialize_graph(VirtualMachine& vm, ObjRef root) {
  // Assign record ids in discovery (BFS) order, then emit each record with
  // child references encoded as ids. Cycles terminate because ids are
  // assigned before children are visited.
  std::unordered_map<ObjRef, std::int32_t> ids;
  std::vector<ObjRef> order;
  auto id_of = [&](ObjRef o) -> std::int32_t {
    if (o == nullptr) return -1;
    auto it = ids.find(o);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::int32_t>(order.size());
    ids.emplace(o, id);
    order.push_back(o);
    return id;
  };

  id_of(root);
  ByteWriter w;
  w.u32(kMagic);
  // Object count back-patched at the end (discovery grows the list).
  std::size_t visited = 0;
  ByteWriter body;
  while (visited < order.size()) {
    ObjRef obj = order[visited++];
    body.u8(static_cast<std::uint8_t>(obj->kind));
    switch (obj->kind) {
      case ObjKind::Instance: {
        body.i32(obj->klass);
        const auto& cls = vm.module().klass(obj->klass);
        body.i32(static_cast<std::int32_t>(cls.fields.size()));
        for (std::size_t i = 0; i < cls.fields.size(); ++i) {
          const Slot s = obj->fields()[i];
          if (cls.fields[i].type == ValType::Ref) {
            body.i32(id_of(s.ref));
          } else {
            body.u64(s.raw);
          }
        }
        break;
      }
      case ObjKind::Array: {
        body.u8(static_cast<std::uint8_t>(obj->elem));
        body.i32(obj->length);
        if (obj->elem == ValType::Ref) {
          for (std::int32_t i = 0; i < obj->length; ++i) {
            body.i32(id_of(obj->ref_data()[i]));
          }
        } else {
          body.bytes(obj->data(), static_cast<std::size_t>(obj->length) *
                                      elem_size(obj->elem));
        }
        break;
      }
      case ObjKind::Matrix2: {
        body.u8(static_cast<std::uint8_t>(obj->elem));
        body.i32(obj->length);
        body.i32(obj->cols);
        const std::size_t n =
            static_cast<std::size_t>(obj->length) * static_cast<std::size_t>(obj->cols);
        if (obj->elem == ValType::Ref) {
          for (std::size_t i = 0; i < n; ++i) body.i32(id_of(obj->ref_data()[i]));
        } else {
          body.bytes(obj->data(), n * elem_size(obj->elem));
        }
        break;
      }
      case ObjKind::Boxed: {
        body.u8(static_cast<std::uint8_t>(obj->elem));
        body.u64(obj->fields()[0].raw);
        break;
      }
      case ObjKind::String: {
        body.i32(obj->length);
        body.bytes(obj->chars(), static_cast<std::size_t>(obj->length));
        break;
      }
      case ObjKind::Free:
        // A swept cell is never reachable from a live root.
        throw SerializeError("graph reaches a freed object");
    }
  }
  w.u32(static_cast<std::uint32_t>(order.size()));
  std::vector<char> head = w.take();
  std::vector<char> tail = body.take();
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

ObjRef deserialize_graph(VirtualMachine& vm, VMContext& ctx, const char* data,
                         std::size_t size) {
  Reader r(data, size);
  if (r.u32() != kMagic) throw SerializeError("bad magic");
  const std::uint32_t count = r.u32();
  if (count == 0) return nullptr;

  // Pass 1: allocate shells (pinned so an allocation-triggered GC can't
  // reclaim them before they are linked). Ref fields are patched in pass 2
  // via a fixup list because a child may appear later in the stream.
  struct Fixup {
    ObjRef obj;
    std::size_t slot;   // field/element index
    std::int32_t target;
  };
  std::vector<ObjRef> objs;
  std::vector<Fixup> fixups;
  r.expect(count, 1);  // every record starts with its kind byte
  objs.reserve(count);

  Heap& heap = vm.heap();
  struct PinAll {
    VirtualMachine& vm;
    std::vector<ObjRef>& objs;
    ~PinAll() {
      for (ObjRef o : objs) vm.unpin(o);
    }
  } pin_guard{vm, objs};

  for (std::uint32_t id = 0; id < count; ++id) {
    const auto kind = static_cast<ObjKind>(r.u8());
    ObjRef obj = nullptr;
    switch (kind) {
      case ObjKind::Instance: {
        const std::int32_t klass = r.i32();
        if (klass < 0 ||
            static_cast<std::size_t>(klass) >= vm.module().class_count()) {
          throw SerializeError("bad class id");
        }
        const std::int32_t nfields = r.i32();
        const auto& cls = vm.module().klass(klass);
        if (static_cast<std::size_t>(nfields) != cls.fields.size()) {
          throw SerializeError("field count mismatch");
        }
        obj = heap.alloc_instance(klass, &ctx.tlab);
        if (obj == nullptr) throw SerializeError("allocation budget exhausted");
        vm.pin(obj);
        objs.push_back(obj);
        for (std::size_t i = 0; i < cls.fields.size(); ++i) {
          if (cls.fields[i].type == ValType::Ref) {
            fixups.push_back({obj, i, r.i32()});
          } else {
            obj->fields()[i].raw = r.u64();
          }
        }
        break;
      }
      case ObjKind::Array: {
        const ValType elem = get_valtype(r, "array element", false);
        const std::int32_t len = r.i32();
        if (len < 0) throw SerializeError("bad array length");
        r.expect(static_cast<std::size_t>(len), wire_elem_size(elem));
        obj = heap.alloc_array(elem, len, &ctx.tlab);
        if (obj == nullptr) throw SerializeError("allocation budget exhausted");
        vm.pin(obj);
        objs.push_back(obj);
        if (elem == ValType::Ref) {
          for (std::int32_t i = 0; i < len; ++i) {
            fixups.push_back({obj, static_cast<std::size_t>(i), r.i32()});
          }
        } else {
          const std::size_t bytes =
              static_cast<std::size_t>(len) * elem_size(elem);
          std::memcpy(obj->data(), r.bytes(bytes), bytes);
        }
        break;
      }
      case ObjKind::Matrix2: {
        const ValType elem = get_valtype(r, "matrix element", false);
        const std::int32_t rows = r.i32();
        const std::int32_t cols = r.i32();
        if (rows < 0 || cols < 0) throw SerializeError("bad matrix dims");
        const std::size_t n =
            static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
        r.expect(n, wire_elem_size(elem));
        obj = heap.alloc_matrix2(elem, rows, cols, &ctx.tlab);
        if (obj == nullptr) throw SerializeError("allocation budget exhausted");
        vm.pin(obj);
        objs.push_back(obj);
        if (elem == ValType::Ref) {
          for (std::size_t i = 0; i < n; ++i) fixups.push_back({obj, i, r.i32()});
        } else {
          const std::size_t bytes = n * elem_size(elem);
          std::memcpy(obj->data(), r.bytes(bytes), bytes);
        }
        break;
      }
      case ObjKind::Boxed: {
        const ValType elem = get_valtype(r, "boxed value", false);
        Slot s;
        s.raw = r.u64();
        obj = heap.alloc_box(elem, s, &ctx.tlab);
        if (obj == nullptr) throw SerializeError("allocation budget exhausted");
        vm.pin(obj);
        objs.push_back(obj);
        break;
      }
      case ObjKind::String: {
        const std::int32_t len = r.i32();
        if (len < 0) throw SerializeError("bad string length");
        obj = heap.alloc_string(
            std::string(r.bytes(static_cast<std::size_t>(len)),
                        static_cast<std::size_t>(len)),
            &ctx.tlab);
        if (obj == nullptr) throw SerializeError("allocation budget exhausted");
        vm.pin(obj);
        objs.push_back(obj);
        break;
      }
      default:
        throw SerializeError("bad record kind");
    }
  }

  // Pass 2: link references.
  for (const Fixup& f : fixups) {
    ObjRef target = nullptr;
    if (f.target >= 0) {
      if (static_cast<std::uint32_t>(f.target) >= count) {
        throw SerializeError("bad reference id");
      }
      target = objs[static_cast<std::size_t>(f.target)];
    }
    if (f.obj->kind == ObjKind::Instance) {
      f.obj->fields()[f.slot] = Slot::from_ref(target);
    } else {
      f.obj->ref_data()[f.slot] = target;
    }
    // A minor GC between the allocation passes can promote earlier-created
    // objects, making these fixups genuine old->young stores.
    gc_write_barrier(f.obj);
  }
  return objs[0];
}

ObjRef serialize_to_string(VirtualMachine& vm, VMContext& ctx, ObjRef root) {
  std::vector<char> bytes = serialize_graph(vm, root);
  // Allocate through the caller's TLAB, never the heap-shared one: a metered
  // job must not mint its output blob unaccounted (tenant budget audit).
  ObjRef blob = vm.heap().alloc_string(
      std::string(bytes.data(), bytes.size()), &ctx.tlab);
  if (blob == nullptr) throw SerializeError("allocation budget exhausted");
  return blob;
}

ObjRef deserialize_from_string(VirtualMachine& vm, VMContext& ctx,
                               ObjRef blob) {
  if (blob == nullptr || blob->kind != ObjKind::String) {
    throw SerializeError("deserialize: not a byte blob");
  }
  return deserialize_graph(vm, ctx, blob->chars(),
                           static_cast<std::size_t>(blob->length));
}

// --- Code archives (snapshot warm start) ----------------------------------

namespace {

constexpr std::uint32_t kArchiveMagic = 0x48504341;  // "HPCA"
constexpr std::uint32_t kArchiveVersion = 1;
// The checksum covers everything after its own field (byte offset 16).
constexpr std::size_t kChecksumStart = 16;

std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void bad(const std::string& what) {
  throw SerializeError("archive: " + what);
}

// -- IL body ----------------------------------------------------------------
// Only the raw fields travel: deserialization re-runs verify_body against
// the local module, so verifier outputs (stack maps, reachability, the
// stack-derived type annotations) are recomputed locally and never trusted
// from the wire. The per-instruction type byte IS serialized — for newarr/
// ldelem/conv/box-style ops it is a builder-set semantic input the verifier
// validates rather than infers — but on every stack-derived op the verifier
// overwrites it during simulation, so a hostile value can only fail
// verification, never leak through.

void put_body(ByteWriter& w, const MethodDef& m) {
  w.str(m.name);
  w.i32(m.id);
  w.u32(static_cast<std::uint32_t>(m.sig.params.size()));
  for (ValType t : m.sig.params) w.u8(static_cast<std::uint8_t>(t));
  w.u8(static_cast<std::uint8_t>(m.sig.ret));
  w.u32(static_cast<std::uint32_t>(m.locals.size()));
  for (ValType t : m.locals) w.u8(static_cast<std::uint8_t>(t));
  w.u32(static_cast<std::uint32_t>(m.code.size()));
  for (const Instr& in : m.code) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u8(static_cast<std::uint8_t>(in.type));
    w.i32(in.a);
    w.i32(in.b);
    w.u64(static_cast<std::uint64_t>(in.imm.i64));
  }
  w.u32(static_cast<std::uint32_t>(m.handlers.size()));
  for (const ExHandler& h : m.handlers) {
    w.u8(static_cast<std::uint8_t>(h.kind));
    w.i32(h.try_begin);
    w.i32(h.try_end);
    w.i32(h.handler);
    w.i32(h.catch_class);
  }
}

MethodDef get_body(Reader& r) {
  MethodDef m;
  m.name = r.str();
  m.id = r.i32();
  const std::uint32_t nparams = r.u32();
  for (std::uint32_t i = 0; i < nparams; ++i) {
    m.sig.params.push_back(get_valtype(r, "archive: param"));
  }
  m.sig.ret = get_valtype(r, "archive: return type");
  const std::uint32_t nlocals = r.u32();
  for (std::uint32_t i = 0; i < nlocals; ++i) {
    m.locals.push_back(get_valtype(r, "archive: local"));
  }
  const std::uint32_t ncode = r.u32();
  for (std::uint32_t i = 0; i < ncode; ++i) {
    Instr in;
    const std::uint8_t op = r.u8();
    if (op >= static_cast<std::uint8_t>(Op::COUNT_)) bad("bad IL opcode");
    in.op = static_cast<Op>(op);
    in.type = get_valtype(r, "archive: instruction type");
    in.a = r.i32();
    in.b = r.i32();
    in.imm.i64 = static_cast<std::int64_t>(r.u64());
    m.code.push_back(in);
  }
  const std::uint32_t nhandlers = r.u32();
  for (std::uint32_t i = 0; i < nhandlers; ++i) {
    ExHandler h;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(HandlerKind::Finally)) {
      bad("bad handler kind");
    }
    h.kind = static_cast<HandlerKind>(kind);
    h.try_begin = r.i32();
    h.try_end = r.i32();
    h.handler = r.i32();
    h.catch_class = r.i32();
    m.handlers.push_back(h);
  }
  return m;
}

// -- Compiled body ----------------------------------------------------------

void put_rcode(ByteWriter& w, const regir::RCode& rc) {
  put_body(w, *rc.body);
  w.i32(rc.num_regs);
  w.i32(rc.slot_regs);
  w.u32(static_cast<std::uint32_t>(rc.code.size()));
  for (const regir::RInstr& in : rc.code) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u8(in.flags);
    w.i32(in.d);
    w.i32(in.a);
    w.i32(in.b);
    w.i32(in.il_pc);
    w.u64(static_cast<std::uint64_t>(in.imm.i64));
  }
  w.u32(static_cast<std::uint32_t>(rc.args_pool.size()));
  for (std::int32_t v : rc.args_pool) w.i32(v);
  w.u32(static_cast<std::uint32_t>(rc.ref_regs.size()));
  for (std::int32_t v : rc.ref_regs) w.i32(v);
  w.u32(static_cast<std::uint32_t>(rc.reg_types.size()));
  for (ValType t : rc.reg_types) w.u8(static_cast<std::uint8_t>(t));
  w.u32(static_cast<std::uint32_t>(rc.il2rpc.size()));
  for (std::int32_t v : rc.il2rpc) w.i32(v);
  w.u32(static_cast<std::uint32_t>(rc.handler_exc_reg.size()));
  for (std::int32_t v : rc.handler_exc_reg) w.i32(v);
  w.u32(static_cast<std::uint32_t>(rc.deopt_points.size()));
  for (const regir::RCode::DeoptPoint& d : rc.deopt_points) {
    w.i32(d.rpc);
    w.i32(d.il_pc);
    w.u32(static_cast<std::uint32_t>(d.stack_regs.size()));
    for (std::int32_t v : d.stack_regs) w.i32(v);
  }
  w.u32(static_cast<std::uint32_t>(rc.vec_loops.size()));
  for (const regir::RCode::VecLoop& v : rc.vec_loops) {
    w.i32(v.kernel);
    w.i32(v.ivar);
    w.i32(v.limit);
    w.i32(v.limit_arr);
    w.i32(v.arr0);
    w.i32(v.arr1);
    w.i32(v.arr2);
    w.i32(v.acc);
    w.i32(v.s0_reg);
    w.i32(v.s1_reg);
    w.u64(static_cast<std::uint64_t>(v.s0_bits));
    w.u64(static_cast<std::uint64_t>(v.s1_bits));
  }
}

/// Full structural validation of a deserialized compiled body: everything
/// the optimizing dispatch loop and the deopt/OSR machinery would otherwise
/// trust blindly. Throws SerializeError on any violation — runs BEFORE the
/// body is verified, so it only leans on raw sizes, never verifier outputs.
void validate_rcode(const regir::RCode& rc, const Module& module) {
  const std::size_t nregs = static_cast<std::size_t>(rc.num_regs);
  const std::size_t ncode = rc.code.size();
  const std::size_t il_size = rc.body->code.size();
  if (rc.num_regs <= 0) bad("non-positive register count");
  if (rc.slot_regs < 0 || static_cast<std::size_t>(rc.slot_regs) > nregs) {
    bad("slot_regs out of range");
  }
  if (rc.reg_types.size() != nregs) bad("reg_types length mismatch");
  if (rc.code.empty()) bad("empty compiled body");
  if (rc.il2rpc.size() != il_size + 1) bad("il2rpc length mismatch");
  if (rc.handler_exc_reg.size() != rc.body->handlers.size()) {
    bad("handler_exc_reg length mismatch");
  }
  const auto reg_ok = [&](std::int32_t reg) {
    return reg >= 0 && static_cast<std::size_t>(reg) < nregs;
  };
  const auto opt_reg_ok = [&](std::int32_t reg) {
    return reg == -1 || reg_ok(reg);
  };
  for (std::int32_t reg : rc.args_pool) {
    if (!reg_ok(reg)) bad("args_pool register out of range");
  }
  for (std::int32_t reg : rc.ref_regs) {
    if (!reg_ok(reg) || rc.reg_types[static_cast<std::size_t>(reg)] !=
                            ValType::Ref) {
      bad("ref_regs entry is not a ref register");
    }
  }
  for (std::int32_t rpc : rc.il2rpc) {
    if (rpc < 0 || static_cast<std::size_t>(rpc) > ncode) {
      bad("il2rpc target out of range");
    }
  }
  for (std::int32_t reg : rc.handler_exc_reg) {
    if (!opt_reg_ok(reg)) bad("handler_exc_reg out of range");
  }
  for (const regir::RInstr& in : rc.code) {
    if (static_cast<std::uint8_t>(in.op) >=
        static_cast<std::uint8_t>(regir::ROp::COUNT_)) {
      bad("bad register opcode");
    }
    if (in.il_pc < -1 || (in.il_pc >= 0 &&
                          static_cast<std::size_t>(in.il_pc) >= il_size)) {
      bad("il_pc out of range");
    }
    if (regir::is_branch(in.op) &&
        (in.d < 0 || static_cast<std::size_t>(in.d) >= ncode)) {
      bad("branch target out of range");
    }
    // Register operands, via the same role table every pass uses.
    const regir::Operands o = regir::operands_of(in, rc.args_pool);
    if (!opt_reg_ok(o.def)) bad("defined register out of range");
    for (int i = 0; i < o.nuses; ++i) {
      if (!reg_ok(o.uses[i])) bad("used register out of range");
    }
    switch (in.op) {
      case regir::ROp::LDSTR_R:
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= module.string_count()) {
          bad("string pool id out of range");
        }
        break;
      case regir::ROp::NEWOBJ_R:
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= module.class_count()) {
          bad("class id out of range");
        }
        break;
      case regir::ROp::LDFLD_R:
      case regir::ROp::STFLD_R:
        if (in.b < 0) bad("negative field index");
        break;
      case regir::ROp::LDSFLD_R:
      case regir::ROp::STSFLD_R:
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= module.class_count()) {
          bad("static class id out of range");
        }
        if (in.b < 0 || static_cast<std::size_t>(in.b) >=
                            module.klass(in.a).static_fields.size()) {
          bad("static field index out of range");
        }
        break;
      case regir::ROp::NEWARR_R:
        if (in.b < static_cast<std::int32_t>(ValType::I32) ||
            in.b > static_cast<std::int32_t>(ValType::Ref)) {
          bad("bad array element type");
        }
        break;
      case regir::ROp::BOX_R:
      case regir::ROp::UNBOX_R:
        if (in.b < static_cast<std::int32_t>(ValType::I32) ||
            in.b > static_cast<std::int32_t>(ValType::Ref)) {
          bad("bad boxed type");
        }
        break;
      case regir::ROp::NEWMAT_R:
        if (in.imm.i64 < static_cast<std::int64_t>(ValType::I32) ||
            in.imm.i64 > static_cast<std::int64_t>(ValType::Ref)) {
          bad("bad matrix element type");
        }
        break;
      case regir::ROp::CALL_R: {
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= module.method_count()) {
          bad("call target out of range");
        }
        const std::int64_t argc = in.imm.i64;
        if (argc < 0 ||
            argc != static_cast<std::int64_t>(
                        module.method(in.a).num_args())) {
          bad("call arity mismatch");
        }
        if (in.b < 0 || static_cast<std::size_t>(in.b) + argc >
                            rc.args_pool.size()) {
          bad("call argument window out of range");
        }
        break;
      }
      case regir::ROp::CALLINTR_R: {
        if (in.a < 0 || in.a >= I_COUNT_) bad("intrinsic id out of range");
        const std::int64_t argc = in.imm.i64;
        if (argc < 0 || in.b < 0 ||
            static_cast<std::size_t>(in.b) + argc > rc.args_pool.size()) {
          bad("intrinsic argument window out of range");
        }
        break;
      }
      case regir::ROp::MATH1_R8:
        if (regir::math1_fn(static_cast<std::int32_t>(in.imm.i64)) ==
            nullptr) {
          bad("unresolvable math1 intrinsic");
        }
        break;
      case regir::ROp::MATH2_R8:
        if (regir::math2_fn(static_cast<std::int32_t>(in.imm.i64)) ==
            nullptr) {
          bad("unresolvable math2 intrinsic");
        }
        break;
      case regir::ROp::VECLOOP:
        if (in.a < 0 ||
            static_cast<std::size_t>(in.a) >= rc.vec_loops.size()) {
          bad("vec_loops index out of range");
        }
        break;
      case regir::ROp::LEAVE_R:
        if (in.a < 0 || static_cast<std::size_t>(in.a) > il_size) {
          bad("leave target out of range");
        }
        break;
      default:
        break;
    }
  }
  std::int32_t prev_rpc = -1;
  for (const regir::RCode::DeoptPoint& d : rc.deopt_points) {
    if (d.rpc <= prev_rpc || static_cast<std::size_t>(d.rpc) >= ncode) {
      bad("deopt points not ascending within body");
    }
    prev_rpc = d.rpc;
    if (d.il_pc < 0 || static_cast<std::size_t>(d.il_pc) >= il_size) {
      bad("deopt il_pc out of range");
    }
    for (std::int32_t reg : d.stack_regs) {
      if (!reg_ok(reg)) bad("deopt stack register out of range");
    }
  }
  for (const regir::RCode::VecLoop& v : rc.vec_loops) {
    if (v.kernel < 0 || v.kernel >= veckernels::kCount_) {
      bad("vector kernel id out of range");
    }
    for (std::int32_t reg : {v.ivar, v.limit, v.limit_arr, v.arr0, v.arr1,
                             v.arr2, v.acc, v.s0_reg, v.s1_reg}) {
      if (!opt_reg_ok(reg)) bad("vector loop register out of range");
    }
  }
}

/// Reads one compiled body. Structural damage throws; a body whose IL fails
/// local re-verification returns null (the caller degrades the record).
std::shared_ptr<const regir::RCode> get_rcode(Reader& r, Module& module) {
  auto rc = std::make_shared<regir::RCode>();
  auto body = std::make_shared<MethodDef>(get_body(r));
  rc->num_regs = r.i32();
  rc->slot_regs = r.i32();
  const std::uint32_t ncode = r.u32();
  for (std::uint32_t i = 0; i < ncode; ++i) {
    regir::RInstr in;
    in.op = static_cast<regir::ROp>(r.u8());
    in.flags = r.u8();
    in.d = r.i32();
    in.a = r.i32();
    in.b = r.i32();
    in.il_pc = r.i32();
    in.imm.i64 = static_cast<std::int64_t>(r.u64());
    rc->code.push_back(in);
  }
  const std::uint32_t npool = r.u32();
  for (std::uint32_t i = 0; i < npool; ++i) rc->args_pool.push_back(r.i32());
  const std::uint32_t nrefs = r.u32();
  for (std::uint32_t i = 0; i < nrefs; ++i) rc->ref_regs.push_back(r.i32());
  const std::uint32_t ntypes = r.u32();
  for (std::uint32_t i = 0; i < ntypes; ++i) {
    rc->reg_types.push_back(get_valtype(r, "archive: register type"));
  }
  const std::uint32_t nil2 = r.u32();
  for (std::uint32_t i = 0; i < nil2; ++i) rc->il2rpc.push_back(r.i32());
  const std::uint32_t nhex = r.u32();
  for (std::uint32_t i = 0; i < nhex; ++i) {
    rc->handler_exc_reg.push_back(r.i32());
  }
  const std::uint32_t ndeopt = r.u32();
  for (std::uint32_t i = 0; i < ndeopt; ++i) {
    regir::RCode::DeoptPoint d;
    d.rpc = r.i32();
    d.il_pc = r.i32();
    const std::uint32_t nstack = r.u32();
    for (std::uint32_t j = 0; j < nstack; ++j) {
      d.stack_regs.push_back(r.i32());
    }
    rc->deopt_points.push_back(std::move(d));
  }
  const std::uint32_t nvec = r.u32();
  for (std::uint32_t i = 0; i < nvec; ++i) {
    regir::RCode::VecLoop v;
    v.kernel = r.i32();
    v.ivar = r.i32();
    v.limit = r.i32();
    v.limit_arr = r.i32();
    v.arr0 = r.i32();
    v.arr1 = r.i32();
    v.arr2 = r.i32();
    v.acc = r.i32();
    v.s0_reg = r.i32();
    v.s1_reg = r.i32();
    v.s0_bits = static_cast<std::int64_t>(r.u64());
    v.s1_bits = static_cast<std::int64_t>(r.u64());
    rc->vec_loops.push_back(v);
  }
  rc->body = body;
  rc->method = rc->body.get();
  validate_rcode(*rc, module);
  // Re-verify the restored IL against the local module: fills types, stack
  // maps and reachability (which deopt continuations consume) from LOCAL
  // state. An unverifiable body is not an attack we need to distinguish
  // from a stale archive — both degrade to a cold compile.
  try {
    verify_body(module, *body);
  } catch (const VerifyError&) {
    return nullptr;
  }
  return rc;
}

}  // namespace

std::vector<char> serialize_archives(
    const std::vector<std::shared_ptr<const CodeArchive>>& archives) {
  ByteWriter body;
  body.u32(static_cast<std::uint32_t>(archives.size()));
  for (const auto& ar : archives) {
    body.str(ar->profile());
    body.u32(static_cast<std::uint32_t>(ar->records().size()));
    for (const CodeArchive::MethodRecord& rec : ar->records()) {
      body.i32(rec.method_id);
      body.str(rec.name);
      body.u64(rec.il_hash);
      body.u8(rec.tier);
      body.u32(rec.hotness);
      body.u8(rec.code != nullptr ? 1 : 0);
      if (rec.code != nullptr) put_rcode(body, *rec.code);
    }
  }
  const std::vector<char> payload = body.take();
  ByteWriter w;
  w.u32(kArchiveMagic);
  w.u32(kArchiveVersion);
  w.u64(fnv1a(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

std::vector<std::shared_ptr<const CodeArchive>> deserialize_archives(
    Module& module, const char* data, std::size_t size) {
  Reader r(data, size);
  if (r.u32() != kArchiveMagic) throw SerializeError("archive: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kArchiveVersion) {
    throw SerializeError("archive: unsupported version " +
                         std::to_string(version));
  }
  const std::uint64_t want = r.u64();
  if (size < kChecksumStart ||
      fnv1a(data + kChecksumStart, size - kChecksumStart) != want) {
    throw SerializeError("archive: checksum mismatch");
  }
  std::vector<std::shared_ptr<const CodeArchive>> out;
  const std::uint32_t narchives = r.u32();
  for (std::uint32_t ai = 0; ai < narchives; ++ai) {
    std::string profile = r.str();
    std::vector<CodeArchive::MethodRecord> records;
    const std::uint32_t nrecords = r.u32();
    for (std::uint32_t ri = 0; ri < nrecords; ++ri) {
      CodeArchive::MethodRecord rec;
      rec.method_id = r.i32();
      rec.name = r.str();
      rec.il_hash = r.u64();
      rec.tier = r.u8();
      rec.hotness = r.u32();
      if (rec.tier > static_cast<std::uint8_t>(Tier::Optimizing)) {
        throw SerializeError("archive: bad tier byte");
      }
      if (r.u8() != 0) rec.code = get_rcode(r, module);
      if (rec.code == nullptr &&
          rec.tier >= static_cast<std::uint8_t>(Tier::Optimizing)) {
        // Unverifiable-body degradation path: never dispatch to a tier
        // whose compiled artifact is absent.
        rec.tier = static_cast<std::uint8_t>(Tier::Baseline);
      }
      records.push_back(std::move(rec));
    }
    out.push_back(std::make_shared<const CodeArchive>(std::move(profile),
                                                      std::move(records)));
  }
  return out;
}

void save_snapshot(VirtualMachine& vm, const std::string& path) {
  std::vector<std::shared_ptr<const CodeArchive>> archives;
  for (const std::string& key : vm.code_cache_keys()) {
    if (key == "<verify>") continue;  // latches only, nothing to snapshot
    std::shared_ptr<const CodeArchive> ar = capture_archive(vm, key);
    if (!ar->records().empty()) archives.push_back(std::move(ar));
  }
  const std::vector<char> bytes = serialize_archives(archives);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SerializeError("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SerializeError("cannot write " + path);
}

ArchiveStats load_snapshot(VirtualMachine& vm, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializeError("cannot open " + path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ArchiveStats total;
  for (const auto& ar :
       deserialize_archives(vm.module(), bytes.data(), bytes.size())) {
    const ArchiveStats s = attach_archive(vm, ar);
    total.restored += s.restored;
    total.missed += s.missed;
  }
  return total;
}

}  // namespace hpcnet::vm
