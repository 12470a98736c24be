// Tier::Interp and Tier::Baseline — the two stack-machine tiers: one dispatch
// loop over the CIL operand stack, instantiated once per slot policy.
//
// Tagged (Tier::Interp) is the SSCLI/Rotor stand-in. Portable by
// construction: every stack slot carries a dynamic type tag, every typed
// opcode re-checks its operand tags, values move through out-of-line
// portability-layer push/pop helpers and every instruction polls the
// safepoint flag and re-validates pc and sp. This is the "generic
// portability layer, no optimization" design the paper measures at 5-10x
// below the optimizing engines.
//
// Untagged (Tier::Baseline) is the Mono 0.23 stand-in. The verifier's type
// annotations let it drop all dynamic tag dispatch (each opcode switches on
// the statically-known operand type), but it still translates the stack IL
// literally: every value round-trips through the memory-resident operand
// stack and locals array, exactly the code shape the paper's Mono
// disassembly shows (Table 7: "uses two memory locations for each of the
// variables, loads those and stores the result again"). It polls only at
// back edges and calls. GC maps: the frame records its current IL pc at
// every GC point; roots are derived from the verifier's per-pc stack type map
// plus the static local/arg types, so the operands of an instruction stay on
// the stack until it retires.
//
// Every difference between the two is an `if constexpr` on the policy; frame
// setup and teardown, the fuel/deadline pulse, the OSR trigger and exception
// dispatch are written once.
#include <algorithm>
#include <cmath>
#include <vector>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

namespace {

struct Tagged {
  using Cell = TaggedSlot;
  static constexpr bool kTagged = true;
  static constexpr Tier kTier = Tier::Interp;
};

struct Untagged {
  using Cell = Slot;
  static constexpr bool kTagged = false;
  static constexpr Tier kTier = Tier::Baseline;
};

// The untagged value of a stack or local cell.
inline Slot& val(Slot& c) { return c; }
inline Slot& val(TaggedSlot& c) { return c.v; }
inline const Slot& val(const Slot& c) { return c; }
inline const Slot& val(const TaggedSlot& c) { return c.v; }

template <class P>
struct StackFrame {
  using Cell = typename P::Cell;
  GcFrame gc;  // must be first (enumerate casts back)
  const MethodDef* m = nullptr;
  Cell* slots = nullptr;  // args + locals
  Cell* stack = nullptr;
  std::int32_t sp = 0;
  std::int32_t pc = 0;  // Untagged: kept current at every potential GC point

  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const StackFrame*>(g);
    const MethodDef& m = *f->m;
    const std::size_t nslots = m.frame_slots();
    if constexpr (P::kTagged) {
      // Every slot says what it holds.
      for (std::size_t i = 0; i < nslots; ++i) {
        if (f->slots[i].tag == ValType::Ref && f->slots[i].v.ref != nullptr) {
          visit(f->slots[i].v.ref, arg);
        }
      }
      for (std::int32_t i = 0; i < f->sp; ++i) {
        if (f->stack[i].tag == ValType::Ref && f->stack[i].v.ref != nullptr) {
          visit(f->stack[i].v.ref, arg);
        }
      }
    } else {
      for (std::size_t i = 0; i < nslots; ++i) {
        if (m.slot_type(i) == ValType::Ref && f->slots[i].ref != nullptr) {
          visit(f->slots[i].ref, arg);
        }
      }
      // The operand stack's ref layout at the recorded pc. The engine keeps
      // sp consistent with stack_in[pc] at every GC point (values being
      // consumed by the current instruction are not popped until it
      // retires).
      const auto& types = m.stack_in[static_cast<std::size_t>(f->pc)];
      const std::int32_t n =
          std::min(f->sp, static_cast<std::int32_t>(types.size()));
      for (std::int32_t i = 0; i < n; ++i) {
        if (types[static_cast<std::size_t>(i)] == ValType::Ref &&
            f->stack[i].ref != nullptr) {
          visit(f->stack[i].ref, arg);
        }
      }
    }
  }
};

using TaggedFrame = StackFrame<Tagged>;

// SSCLI funnels primitive operations through its portability layer rather
// than open-coding them; these out-of-line helpers model that call-per-
// operation design (and are the main reason the tagged tier lands 4-10x
// behind the optimizing engines, as Rotor did).
[[gnu::noinline]] void push_portable(TaggedFrame& f, ValType t, Slot v) {
  f.stack[f.sp].tag = t;
  f.stack[f.sp].v = v;
  ++f.sp;
}

[[gnu::noinline]] TaggedSlot pop_portable(TaggedFrame& f) {
  return f.stack[--f.sp];
}

/// The comparison behind CEQ/CGT/CLT and the conditional branches, on two
/// operands of type `t`. References only compare for (in)equality.
template <Op OP>
[[gnu::always_inline]] inline bool compare(ValType t, Slot a, Slot b) {
  const auto cmp = [](auto x, auto y) {
    if constexpr (OP == Op::CEQ || OP == Op::BEQ) return x == y;
    else if constexpr (OP == Op::BNE) return x != y;
    else if constexpr (OP == Op::CGT || OP == Op::BGT) return x > y;
    else if constexpr (OP == Op::CLT || OP == Op::BLT) return x < y;
    else if constexpr (OP == Op::BLE) return x <= y;
    else return x >= y;
  };
  switch (t) {
    case ValType::I32: return cmp(a.i32, b.i32);
    case ValType::I64: return cmp(a.i64, b.i64);
    case ValType::F32: return cmp(a.f32, b.f32);
    case ValType::F64: return cmp(a.f64, b.f64);
    default:
      if constexpr (OP == Op::CEQ || OP == Op::BEQ) return a.ref == b.ref;
      else if constexpr (OP == Op::CGT || OP == Op::CLT) return false;
      else return a.ref != b.ref;
  }
}

/// `a = a OP b` for the binary stack ops, both operands of type `t` (shift
/// counts are i32). Returns the result type; an integer DIV/REM fault is
/// left in `status` instead.
template <Op OP>
[[gnu::always_inline]] inline ValType binary(ValType t, Slot& a, Slot b,
                                             arith::DivStatus& status) {
  if constexpr (OP == Op::CEQ || OP == Op::CGT || OP == Op::CLT) {
    a = Slot::from_i32(compare<OP>(t, a, b) ? 1 : 0);
    return ValType::I32;
  } else if constexpr (OP == Op::AND || OP == Op::OR || OP == Op::XOR) {
    const auto bits = [](auto x, auto y) {
      if constexpr (OP == Op::AND) return x & y;
      else if constexpr (OP == Op::OR) return x | y;
      else return x ^ y;
    };
    if (t == ValType::I32) a.i32 = bits(a.i32, b.i32);
    else a.i64 = bits(a.i64, b.i64);
    return t;
  } else if constexpr (OP == Op::SHL || OP == Op::SHR || OP == Op::SHR_UN) {
    constexpr auto shift32 = OP == Op::SHL   ? arith::shl_i32
                             : OP == Op::SHR ? arith::shr_i32
                                             : arith::shru_i32;
    constexpr auto shift64 = OP == Op::SHL   ? arith::shl_i64
                             : OP == Op::SHR ? arith::shr_i64
                                             : arith::shru_i64;
    if (t == ValType::I32) a.i32 = shift32(a.i32, b.i32);
    else a.i64 = shift64(a.i64, b.i32);
    return t;
  } else {
    switch (t) {
      case ValType::I32:
        if constexpr (OP == Op::ADD) a.i32 = arith::add_i32(a.i32, b.i32);
        else if constexpr (OP == Op::SUB) a.i32 = arith::sub_i32(a.i32, b.i32);
        else if constexpr (OP == Op::MUL) a.i32 = arith::mul_i32(a.i32, b.i32);
        else if constexpr (OP == Op::DIV)
          status = arith::div_i32(a.i32, b.i32, &a.i32);
        else status = arith::rem_i32(a.i32, b.i32, &a.i32);
        break;
      case ValType::I64:
        if constexpr (OP == Op::ADD) a.i64 = arith::add_i64(a.i64, b.i64);
        else if constexpr (OP == Op::SUB) a.i64 = arith::sub_i64(a.i64, b.i64);
        else if constexpr (OP == Op::MUL) a.i64 = arith::mul_i64(a.i64, b.i64);
        else if constexpr (OP == Op::DIV)
          status = arith::div_i64(a.i64, b.i64, &a.i64);
        else status = arith::rem_i64(a.i64, b.i64, &a.i64);
        break;
      case ValType::F32:
        if constexpr (OP == Op::ADD) a.f32 = a.f32 + b.f32;
        else if constexpr (OP == Op::SUB) a.f32 = a.f32 - b.f32;
        else if constexpr (OP == Op::MUL) a.f32 = a.f32 * b.f32;
        else if constexpr (OP == Op::DIV) a.f32 = a.f32 / b.f32;
        else a.f32 = std::fmod(a.f32, b.f32);
        break;
      default:
        if constexpr (OP == Op::ADD) a.f64 = a.f64 + b.f64;
        else if constexpr (OP == Op::SUB) a.f64 = a.f64 - b.f64;
        else if constexpr (OP == Op::MUL) a.f64 = a.f64 * b.f64;
        else if constexpr (OP == Op::DIV) a.f64 = a.f64 / b.f64;
        else a.f64 = std::fmod(a.f64, b.f64);
        break;
    }
    return t;
  }
}

/// NEG, NOT and CONV_* on `a` of type `t`; returns the result type.
[[gnu::always_inline]] inline ValType unary(Op op, ValType t, Slot& a) {
  if (op == Op::NEG) {
    switch (t) {
      case ValType::I32: a.i32 = arith::sub_i32(0, a.i32); break;
      case ValType::I64: a.i64 = arith::sub_i64(0, a.i64); break;
      case ValType::F32: a.f32 = -a.f32; break;
      default: a.f64 = -a.f64; break;
    }
    return t;
  }
  if (op == Op::NOT) {
    if (t == ValType::I32) a.i32 = ~a.i32;
    else a.i64 = ~a.i64;
    return t;
  }
  const bool is_float = t == ValType::F32 || t == ValType::F64;
  double fv = 0;
  std::int64_t iv = 0;
  switch (t) {
    case ValType::I32: iv = a.i32; fv = a.i32; break;
    case ValType::I64: iv = a.i64; fv = static_cast<double>(a.i64); break;
    case ValType::F32: fv = a.f32; break;
    default: fv = a.f64; break;
  }
  const auto i32 = [&] {
    return is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
  };
  const auto narrow = [&](std::int32_t v) {
    a = Slot::from_i32(v);
    return ValType::I32;
  };
  switch (op) {
    case Op::CONV_I8:
      a = Slot::from_i64(is_float ? arith::f_to_i64(fv) : iv);
      return ValType::I64;
    case Op::CONV_R4:
      a = Slot::from_f32(is_float ? static_cast<float>(fv)
                                  : static_cast<float>(iv));
      return ValType::F32;
    case Op::CONV_R8:
      a = Slot::from_f64(is_float ? fv : static_cast<double>(iv));
      return ValType::F64;
    case Op::CONV_I1: return narrow(static_cast<std::int8_t>(i32()));
    case Op::CONV_U1: return narrow(static_cast<std::uint8_t>(i32()));
    case Op::CONV_I2: return narrow(static_cast<std::int16_t>(i32()));
    case Op::CONV_U2: return narrow(static_cast<std::uint16_t>(i32()));
    default: return narrow(i32());  // CONV_I4
  }
}

/// Element `i` of an array or row-major matrix of element type `t`.
[[gnu::always_inline]] inline Slot load_elem(ObjRef arr, std::int64_t i,
                                             ValType t) {
  switch (t) {
    case ValType::I32: return Slot::from_i32(arr->i32_data()[i]);
    case ValType::I64: return Slot::from_i64(arr->i64_data()[i]);
    case ValType::F32: return Slot::from_f32(arr->f32_data()[i]);
    case ValType::F64: return Slot::from_f64(arr->f64_data()[i]);
    default: return Slot::from_ref(arr->ref_data()[i]);
  }
}

[[gnu::always_inline]] inline void store_elem(ObjRef arr, std::int64_t i,
                                              ValType t, Slot v) {
  switch (t) {
    case ValType::I32: arr->i32_data()[i] = v.i32; break;
    case ValType::I64: arr->i64_data()[i] = v.i64; break;
    case ValType::F32: arr->f32_data()[i] = v.f32; break;
    case ValType::F64: arr->f64_data()[i] = v.f64; break;
    default:
      arr->ref_data()[i] = v.ref;
      gc_write_barrier(arr);
      break;
  }
}

template <class P>
class StackBackend final : public TierBackend {
 public:
  StackBackend(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine), tiered_(engine.tiered()) {}

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    return exec(ctx, m, args);
  }

 private:
  using Cell = typename P::Cell;
  using Frame = StackFrame<P>;

  Slot exec(VMContext& ctx, const MethodDef& m, const Slot* args);

  VirtualMachine& vm_;
  TieredEngine& engine_;
  const bool tiered_;
};

// Raises a managed exception at the current instruction. Untagged records
// the pc first: allocating the exception is a GC point.
#define STACK_THROW(cls, msg)                      \
  do {                                             \
    if constexpr (!P::kTagged) frame.pc = pc;      \
    vm_.throw_exception(ctx, (cls), (msg));        \
    goto dispatch_exception;                       \
  } while (0)

#define STACK_BINARY(OP, same_tags)                                  \
  case OP: {                                                         \
    TaggedSlot tmp;                                                  \
    Slot b;                                                          \
    ValType t;                                                       \
    Slot* a = binary_operands(in, tmp, b, t, same_tags);             \
    if (a == nullptr) {                                              \
      STACK_THROW(mod.invalid_cast_class(), "operand tag mismatch"); \
    }                                                                \
    arith::DivStatus status = arith::DivStatus::Ok;                  \
    t = binary<OP>(t, *a, b, status);                                \
    if (status == arith::DivStatus::DivideByZero) {                  \
      STACK_THROW(mod.divide_by_zero_class(), "division by zero");   \
    }                                                                \
    if (status == arith::DivStatus::Overflow) {                      \
      STACK_THROW(mod.arithmetic_class(),                            \
                  "integer overflow in division");                   \
    }                                                                \
    retire(t, *a);                                                   \
    break;                                                           \
  }

#define STACK_BRANCH_IF(OP)                                          \
  case OP: {                                                         \
    TaggedSlot tmp;                                                  \
    Slot b;                                                          \
    ValType t;                                                       \
    const Slot* a = binary_operands(in, tmp, b, t, true);            \
    if (a == nullptr) {                                              \
      STACK_THROW(mod.invalid_cast_class(), "operand tag mismatch"); \
    }                                                                \
    if constexpr (!P::kTagged) --frame.sp;                           \
    if (compare<OP>(t, *a, b)) goto branch;                          \
    break;                                                           \
  }

template <class P>
Slot StackBackend<P>::exec(VMContext& ctx, const MethodDef& m,
                           const Slot* args) {
  Module& mod = vm_.module();
  engine_.ensure_verified(m);
  if (fuel_kill(vm_, ctx)) return Slot{};
  telemetry::InvocationScope tel(m.id, static_cast<std::uint8_t>(P::kTier));
  const auto arena_mark = ctx.arena.mark();

  Frame frame;
  frame.m = &m;
  const std::size_t nslots = m.frame_slots();
  frame.slots = static_cast<Cell*>(ctx.arena.alloc(nslots * sizeof(Cell)));
  frame.stack = static_cast<Cell*>(ctx.arena.alloc(
      static_cast<std::size_t>(m.max_stack + 1) * sizeof(Cell)));
  if constexpr (P::kTagged) {
    for (std::size_t i = 0; i < nslots; ++i) {
      frame.slots[i].tag = m.slot_type(i);
    }
  }
  for (std::size_t i = 0; i < m.num_args(); ++i) val(frame.slots[i]) = args[i];
  frame.gc.parent = ctx.top_frame;
  frame.gc.enumerate = &Frame::enumerate;
  ctx.top_frame = &frame.gc;

  UnwindMachine uw;
  Cell* st = frame.stack;
  std::int32_t pc = 0;
  Slot result;
  // Bytecode counter kept in a register-friendly local; flushed to the
  // telemetry scope only at frame exit so the dispatch loop pays nothing.
  std::uint64_t bc = 0;
  // Taken backward branches, flushed to the tiering policy at frame exit
  // (kept register-local for the same reason as bc).
  std::uint32_t backedges = 0;
  // Back edges already charged to ctx.fuel (== backedges at each pulse).
  std::uint32_t fuel_charged = 0;

  // Frame teardown is RAII so it runs on EVERY exit: normal returns,
  // managed exceptions propagating out, and native C++ exceptions (frame
  // arena exhaustion, a compile failure inside a nested call) unwinding
  // through the dispatch loop. Without it a native unwind would leave
  // ctx.top_frame pointing at this dead frame (a GC crash waiting in the
  // caller's catch) and silently drop the frame's back-edge credit.
  // Declared after `tel` so the bytecode count lands before tel's flush.
  struct FrameExit {
    StackBackend* self;
    VMContext& ctx;
    Frame& frame;
    telemetry::InvocationScope& tel;
    const MethodDef& m;
    FrameArena::Mark arena_mark;
    const std::uint64_t& bc;
    const std::uint32_t& backedges;
    const std::uint32_t& fuel_charged;
    ~FrameExit() {
      tel.bytecodes = bc;
      ctx.top_frame = frame.gc.parent;
      ctx.arena.release(arena_mark);
      // Residual fuel: back edges taken since the last pulse are charged at
      // frame exit (no kill check here — the next pulse or call boundary
      // catches an overdraw), so short loops in callees are still metered.
      if (ctx.fuel.active && backedges != fuel_charged) {
        ctx.fuel.charge(backedges - fuel_charged);
      }
      if (self->tiered_ && backedges != 0) {
        try {
          self->engine_.note_backedges(m.id, backedges);
        } catch (...) {
          // A failed promotion (code-cache exhaustion) must not terminate
          // the process when this flush runs during another unwind; the
          // credit is simply dropped.
        }
      }
    }
  } frame_exit{this,       ctx, frame,     tel, m,
               arena_mark, bc,  backedges, fuel_charged};

  // On-stack replacement: once THIS frame's taken back edges cross the
  // trigger, compile a continuation at the loop header and finish the
  // invocation in compiled code (DESIGN.md §10). The OSR counter doubles as
  // the fuel-metering counter: both ride one `backedges == pulse_next`
  // compare per taken back edge, so arming fuel adds no second branch to the
  // hot path (DESIGN.md §11). With OSR armed the pulse cadence is the OSR
  // trigger; fuel alone pulses every kFuelPulseBackedges; with neither,
  // pulse_next parks at 0 and only matches on 32-bit wrap (a harmless no-op
  // pulse).
  const std::uint32_t osr_step = tiered_ ? engine_.osr_step() : 0;
  const bool fuel_on = ctx.fuel.active;
  const std::uint32_t pulse_step =
      osr_step != 0 ? osr_step : (fuel_on ? kFuelPulseBackedges : 0);
  std::uint32_t pulse_next = pulse_step;
  bool osr_armed = osr_step != 0;
  Slot osr_result;
  auto try_osr = [&](std::int32_t header) -> bool {
    if (!osr_armed || !uw.idle()) return false;
    const auto& entry_stack = m.stack_in[static_cast<std::size_t>(header)];
    if (static_cast<std::size_t>(frame.sp) != entry_stack.size()) {
      return false;
    }
    const regir::RCode* rc = engine_.osr_code(m, header);
    if (rc == nullptr) {
      // Unbuildable continuation: stop trying in this frame. Fuel still
      // needs pulses, so only park the counter when it has no other client.
      osr_armed = false;
      if (!fuel_on) pulse_next = 0;
      return false;
    }
    // Live frame state -> continuation arguments: slots, then the operand
    // stack bottom-up (the continuation signature orders them the same).
    std::vector<Slot> a(nslots + entry_stack.size());
    for (std::size_t i = 0; i < nslots; ++i) a[i] = val(frame.slots[i]);
    for (std::int32_t k = 0; k < frame.sp; ++k) {
      a[nslots + static_cast<std::size_t>(k)] = val(st[k]);
    }
    osr_result = engine_.osr_enter(ctx, *rc, header, a.data());
    return true;
  };
  // Fires when backedges hits pulse_next: charges the pulse window's fuel
  // (killing the job with a catchable FuelExhausted or DeadlineExceeded at
  // this safepoint — reported via ctx.pending_exception), then attempts OSR.
  // Re-arms after every firing so transient OSR failures retry and an
  // exhausted-but-caught job is re-killed a pulse later.
  auto pulse = [&](std::int32_t header) -> bool {
    pulse_next += pulse_step;
    if (fuel_on && fuel_pulse(vm_, ctx, backedges, fuel_charged)) return false;
    return try_osr(header);
  };

  // Operand stack traffic. Tagged moves typed values through the
  // portability layer; Untagged indexes the memory stack directly.
  auto push = [&](ValType t, Slot v) {
    if constexpr (P::kTagged) push_portable(frame, t, v);
    else { (void)t; st[frame.sp++] = v; }
  };
  auto push_cell = [&](const Cell& c) {
    if constexpr (P::kTagged) push_portable(frame, c.tag, c.v);
    else st[frame.sp++] = c;
  };
  auto pop_cell = [&]() -> Cell {
    if constexpr (P::kTagged) return pop_portable(frame);
    else return st[--frame.sp];
  };
  // Replaces the top operand in place.
  auto set_top = [&](ValType t, Slot v) {
    if constexpr (P::kTagged) st[frame.sp - 1] = {v, t};
    else { (void)t; st[frame.sp - 1] = v; }
  };
  // Typed operands. Their type is the dynamic tag for Tagged and the
  // verifier's static annotation for Untagged. The result is computed in
  // place: on the stack top for Untagged; in `tmp` for Tagged, which pops
  // the operands and pushes the result (retire) through the portability
  // layer.
  auto unary_operand = [&](const Instr& in, TaggedSlot& tmp,
                           ValType& t) -> Slot* {
    if constexpr (P::kTagged) {
      tmp = st[--frame.sp];
      t = tmp.tag;
      return &tmp.v;
    } else {
      (void)tmp;
      t = in.type;
      return &st[frame.sp - 1];
    }
  };
  // Pops the right operand into `b` and returns the left one. Tagged returns
  // null on mismatched tags when `same_tags` (false only for shifts, whose
  // count is always i32).
  auto binary_operands = [&](const Instr& in, TaggedSlot& tmp, Slot& b,
                             ValType& t, bool same_tags) -> Slot* {
    if constexpr (P::kTagged) {
      const TaggedSlot right = pop_portable(frame);
      tmp = pop_portable(frame);
      b = right.v;
      t = tmp.tag;
      return !same_tags || tmp.tag == right.tag ? &tmp.v : nullptr;
    } else {
      (void)tmp;
      (void)same_tags;
      b = st[--frame.sp];
      t = in.type;
      return &st[frame.sp - 1];
    }
  };
  auto retire = [&](ValType t, Slot v) {
    if constexpr (P::kTagged) push_portable(frame, t, v);
    else { (void)t; (void)v; }
  };
  // A call's arguments, the top `argc` operands: Untagged passes the stack
  // in place, Tagged strips the tags into `buf`.
  auto call_args = [&](std::size_t argc, Slot* buf) -> Slot* {
    Cell* first = st + frame.sp - static_cast<std::int32_t>(argc);
    if constexpr (P::kTagged) {
      for (std::size_t i = 0; i < argc; ++i) buf[i] = first[i].v;
      return buf;
    } else {
      (void)buf;
      return first;
    }
  };

  for (;;) {
    if constexpr (P::kTagged) {
      vm_.safepoint_poll(ctx);  // per-instruction: the portable engine's tax
      // Defensive dispatch checks (pc range, operand stack bounds): the
      // portability layer re-validates state on every instruction instead
      // of trusting the verifier, exactly the SSCLI trade-off the paper
      // measures.
      if (static_cast<std::uint32_t>(pc) >= m.code.size() ||
          static_cast<std::uint32_t>(frame.sp) >
              static_cast<std::uint32_t>(m.max_stack)) {
        STACK_THROW(mod.exception_class(), "interpreter state corrupt");
      }
    }
    {
    ++bc;
    const Instr& in = m.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Op::NOP:
        break;
      case Op::LDC_I4:
        push(ValType::I32, Slot::from_i32(static_cast<std::int32_t>(in.imm.i64)));
        break;
      case Op::LDC_I8:
        push(ValType::I64, Slot::from_i64(in.imm.i64));
        break;
      case Op::LDC_R4:
        push(ValType::F32, Slot::from_f32(static_cast<float>(in.imm.f64)));
        break;
      case Op::LDC_R8:
        push(ValType::F64, Slot::from_f64(in.imm.f64));
        break;
      case Op::LDNULL:
        push(ValType::Ref, Slot::from_ref(nullptr));
        break;
      case Op::LDSTR: {
        if constexpr (!P::kTagged) frame.pc = pc;
        ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
        if (s == nullptr) {
          STACK_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(s));
        break;
      }

      case Op::LDLOC:
        push_cell(frame.slots[m.num_args() + static_cast<std::size_t>(in.a)]);
        break;
      case Op::STLOC:
        frame.slots[m.num_args() + static_cast<std::size_t>(in.a)] = pop_cell();
        break;
      case Op::LDARG:
        push_cell(frame.slots[static_cast<std::size_t>(in.a)]);
        break;
      case Op::STARG:
        frame.slots[static_cast<std::size_t>(in.a)] = pop_cell();
        break;
      case Op::DUP:
        st[frame.sp] = st[frame.sp - 1];
        ++frame.sp;
        break;
      case Op::POP:
        --frame.sp;
        break;

      STACK_BINARY(Op::ADD, true)
      STACK_BINARY(Op::SUB, true)
      STACK_BINARY(Op::MUL, true)
      STACK_BINARY(Op::DIV, true)
      STACK_BINARY(Op::REM, true)
      STACK_BINARY(Op::AND, true)
      STACK_BINARY(Op::OR, true)
      STACK_BINARY(Op::XOR, true)
      STACK_BINARY(Op::SHL, false)
      STACK_BINARY(Op::SHR, false)
      STACK_BINARY(Op::SHR_UN, false)
      STACK_BINARY(Op::CEQ, true)
      STACK_BINARY(Op::CGT, true)
      STACK_BINARY(Op::CLT, true)

      case Op::NEG:
      case Op::NOT:
      case Op::CONV_I4:
      case Op::CONV_I8:
      case Op::CONV_R4:
      case Op::CONV_R8:
      case Op::CONV_I1:
      case Op::CONV_U1:
      case Op::CONV_I2:
      case Op::CONV_U2: {
        TaggedSlot tmp;
        ValType t;
        Slot* a = unary_operand(in, tmp, t);
        t = unary(in.op, t, *a);
        retire(t, *a);
        break;
      }

      case Op::BR:
        goto branch;
      case Op::BRTRUE:
      case Op::BRFALSE: {
        TaggedSlot tmp;
        ValType t;
        const Slot a = *unary_operand(in, tmp, t);
        if constexpr (!P::kTagged) --frame.sp;
        bool truth;
        switch (t) {
          case ValType::Ref: truth = a.ref != nullptr; break;
          case ValType::I64: truth = a.i64 != 0; break;
          default: truth = a.i32 != 0; break;
        }
        if (truth == (in.op == Op::BRTRUE)) goto branch;
        break;
      }
      STACK_BRANCH_IF(Op::BEQ)
      STACK_BRANCH_IF(Op::BNE)
      STACK_BRANCH_IF(Op::BLT)
      STACK_BRANCH_IF(Op::BLE)
      STACK_BRANCH_IF(Op::BGT)
      STACK_BRANCH_IF(Op::BGE)

      case Op::CALL: {
        if constexpr (!P::kTagged) {
          frame.pc = pc;
          vm_.safepoint_poll(ctx);
        }
        const MethodDef& callee = mod.method(in.a);
        const std::size_t argc = callee.sig.params.size();
        Slot buf[kMaxCallArgs];
        Slot* cargs = call_args(argc, buf);
        // Tiered mode routes calls through the engine so a hot callee runs
        // on its promoted tier; Single mode keeps the direct recursion.
        const Slot r = tiered_ ? engine_.call(ctx, in.a, cargs)
                               : exec(ctx, callee, cargs);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (callee.sig.ret != ValType::None) push(callee.sig.ret, r);
        break;
      }
      case Op::CALLINTR: {
        if constexpr (!P::kTagged) frame.pc = pc;
        const IntrinsicDef& d = intrinsic(in.a);
        const std::size_t argc = d.sig.params.size();
        Slot buf[kMaxIntrinsicArgs];
        Slot r;
        d.fn(ctx, call_args(argc, buf), &r);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (d.sig.ret != ValType::None) push(d.sig.ret, r);
        break;
      }
      case Op::RET:
        if (m.sig.ret != ValType::None) result = val(st[frame.sp - 1]);
        return result;  // frame_exit tears down

      case Op::NEWOBJ: {
        if constexpr (!P::kTagged) frame.pc = pc;
        ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
        if (obj == nullptr) {
          STACK_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(obj));
        break;
      }
      case Op::LDFLD: {
        ObjRef obj = val(st[frame.sp - 1]).ref;
        if (obj == nullptr) STACK_THROW(mod.null_reference_class(), "ldfld");
        --frame.sp;
        push(in.type, obj->fields()[in.a]);
        break;
      }
      case Op::STFLD: {
        const Slot v = val(st[--frame.sp]);
        ObjRef obj = val(st[--frame.sp]).ref;
        if (obj == nullptr) STACK_THROW(mod.null_reference_class(), "stfld");
        obj->fields()[in.a] = v;
        if (in.type == ValType::Ref) gc_write_barrier(obj);
        break;
      }
      case Op::LDSFLD:
        push(in.type, mod.statics(in.b)[in.a]);
        break;
      case Op::STSFLD:
        mod.statics(in.b)[in.a] = val(st[--frame.sp]);
        break;

      case Op::NEWARR: {
        if constexpr (!P::kTagged) frame.pc = pc;
        const std::int32_t len = val(st[frame.sp - 1]).i32;
        if (len < 0) STACK_THROW(mod.index_range_class(), "negative array size");
        ObjRef arr = vm_.heap().alloc_array(in.type, len, &ctx.tlab);
        if (arr == nullptr) {
          STACK_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        set_top(ValType::Ref, Slot::from_ref(arr));
        break;
      }
      case Op::LDLEN: {
        ObjRef arr = val(st[frame.sp - 1]).ref;
        if (arr == nullptr) STACK_THROW(mod.null_reference_class(), "ldlen");
        set_top(ValType::I32, Slot::from_i32(arr->length));
        break;
      }
      case Op::LDELEM: {
        const std::int32_t idx = val(st[--frame.sp]).i32;
        ObjRef arr = val(st[frame.sp - 1]).ref;
        if (arr == nullptr) STACK_THROW(mod.null_reference_class(), "ldelem");
        if constexpr (P::kTagged) {
          if (arr->kind != ObjKind::Array || arr->elem != in.type) {
            STACK_THROW(mod.invalid_cast_class(), "ldelem element type");
          }
        }
        if (idx < 0 || idx >= arr->length) {
          STACK_THROW(mod.index_range_class(), "index out of range");
        }
        --frame.sp;
        push(in.type, load_elem(arr, idx, in.type));
        break;
      }
      case Op::STELEM: {
        const Slot v = val(st[--frame.sp]);
        const std::int32_t idx = val(st[--frame.sp]).i32;
        ObjRef arr = val(st[--frame.sp]).ref;
        if (arr == nullptr) STACK_THROW(mod.null_reference_class(), "stelem");
        if constexpr (P::kTagged) {
          if (arr->kind != ObjKind::Array || arr->elem != in.type) {
            STACK_THROW(mod.invalid_cast_class(), "stelem element type");
          }
        }
        if (idx < 0 || idx >= arr->length) {
          STACK_THROW(mod.index_range_class(), "index out of range");
        }
        store_elem(arr, idx, in.type, v);
        break;
      }
      case Op::NEWMAT: {
        if constexpr (!P::kTagged) frame.pc = pc;
        const std::int32_t cols = val(st[frame.sp - 1]).i32;
        const std::int32_t rows = val(st[frame.sp - 2]).i32;
        if (rows < 0 || cols < 0) {
          STACK_THROW(mod.index_range_class(), "negative matrix size");
        }
        ObjRef mat = vm_.heap().alloc_matrix2(in.type, rows, cols, &ctx.tlab);
        if (mat == nullptr) {
          STACK_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        --frame.sp;
        set_top(ValType::Ref, Slot::from_ref(mat));
        break;
      }
      case Op::LDELEM2: {
        const std::int32_t c = val(st[--frame.sp]).i32;
        const std::int32_t r = val(st[--frame.sp]).i32;
        ObjRef mat = val(st[frame.sp - 1]).ref;
        if (mat == nullptr) STACK_THROW(mod.null_reference_class(), "ldelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          STACK_THROW(mod.index_range_class(), "matrix index out of range");
        }
        --frame.sp;
        push(in.type,
             load_elem(mat, static_cast<std::int64_t>(r) * mat->cols + c,
                       in.type));
        break;
      }
      case Op::STELEM2: {
        const Slot v = val(st[--frame.sp]);
        const std::int32_t c = val(st[--frame.sp]).i32;
        const std::int32_t r = val(st[--frame.sp]).i32;
        ObjRef mat = val(st[--frame.sp]).ref;
        if (mat == nullptr) STACK_THROW(mod.null_reference_class(), "stelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          STACK_THROW(mod.index_range_class(), "matrix index out of range");
        }
        store_elem(mat, static_cast<std::int64_t>(r) * mat->cols + c, in.type,
                   v);
        break;
      }
      case Op::LDMATROWS:
      case Op::LDMATCOLS: {
        ObjRef mat = val(st[frame.sp - 1]).ref;
        if (mat == nullptr) STACK_THROW(mod.null_reference_class(), "ldmat");
        set_top(ValType::I32, Slot::from_i32(in.op == Op::LDMATROWS
                                                 ? mat->length
                                                 : mat->cols));
        break;
      }

      case Op::BOX: {
        if constexpr (!P::kTagged) frame.pc = pc;
        ObjRef box =
            vm_.heap().alloc_box(in.type, val(st[frame.sp - 1]), &ctx.tlab);
        if (box == nullptr) {
          STACK_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        set_top(ValType::Ref, Slot::from_ref(box));
        break;
      }
      case Op::UNBOX: {
        ObjRef box = val(st[frame.sp - 1]).ref;
        if (box == nullptr) STACK_THROW(mod.null_reference_class(), "unbox");
        if (box->kind != ObjKind::Boxed || box->elem != in.type) {
          STACK_THROW(mod.invalid_cast_class(), "unbox type mismatch");
        }
        --frame.sp;
        push(in.type, box->fields()[0]);
        break;
      }

      case Op::THROW: {
        ObjRef exc = val(st[--frame.sp]).ref;
        if (exc == nullptr) STACK_THROW(mod.null_reference_class(), "throw null");
        if constexpr (!P::kTagged) frame.pc = pc;
        ctx.pending_exception = exc;
        goto dispatch_exception;
      }
      case Op::LEAVE: {
        const UnwindAction a = uw.on_leave(m, pc, in.a);
        frame.sp = 0;
        pc = a.pc;
        continue;
      }
      case Op::ENDFINALLY: {
        const UnwindAction a = uw.on_endfinally(mod, m);
        switch (a.kind) {
          case UnwindAction::Kind::Resume:
          case UnwindAction::Kind::EnterFinally:
            frame.sp = 0;
            pc = a.pc;
            continue;
          case UnwindAction::Kind::EnterCatch:
            frame.sp = 0;
            push(ValType::Ref, Slot::from_ref(uw.exception()));
            pc = a.pc;
            continue;
          case UnwindAction::Kind::Propagate:
            ctx.pending_exception = uw.exception();
            return result;  // frame_exit tears down
        }
        break;
      }

      case Op::COUNT_:
        break;
    }
    ++pc;
    continue;

  branch:
    // A taken branch to in.a. Back edges feed the fuel/OSR pulse; Untagged
    // also polls the safepoint there (Tagged already polls every
    // instruction).
    if (in.a <= pc) {
      ++backedges;
      if constexpr (!P::kTagged) {
        frame.pc = in.a;
        vm_.safepoint_poll(ctx);
      }
      if (backedges == pulse_next) {
        if (pulse(in.a)) return osr_result;
        if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
      }
    }
    pc = in.a;
    continue;
    }

  dispatch_exception: {
    ObjRef exc = ctx.pending_exception;
    ctx.pending_exception = nullptr;
    const UnwindAction a = uw.on_throw(mod, m, pc, exc);
    switch (a.kind) {
      case UnwindAction::Kind::EnterCatch:
        frame.sp = 0;
        push(ValType::Ref, Slot::from_ref(uw.exception()));
        pc = a.pc;
        continue;
      case UnwindAction::Kind::EnterFinally:
        frame.sp = 0;
        pc = a.pc;
        continue;
      default:
        ctx.pending_exception = exc;
        return result;  // frame_exit tears down
    }
  }
  }
}

#undef STACK_BRANCH_IF
#undef STACK_BINARY
#undef STACK_THROW

}  // namespace

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine) {
  return std::make_unique<StackBackend<Tagged>>(vm, engine);
}

std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine) {
  return std::make_unique<StackBackend<Untagged>>(vm, engine);
}

}  // namespace hpcnet::vm
