// Tier::Optimizing — the CLR 1.1 / IBM JVM class engine. Methods are
// compiled (by the TieredEngine, into the profile's CodeCache) to the
// three-address register IR in regir.hpp and executed by a dense dispatch
// loop over a flat register file: no operand stack, no tag checks, safepoint
// polls only on taken backward branches.
#include <algorithm>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/regir.hpp"
#include "vm/unwind.hpp"
#include "vm/veckernels.hpp"

namespace hpcnet::vm {

namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;

constexpr std::uint8_t kTierIndex = static_cast<std::uint8_t>(Tier::Optimizing);

constexpr std::int64_t kRegFieldBits = 20;
constexpr std::int64_t kRegFieldMask = (1 << kRegFieldBits) - 1;

struct OptFrame {
  GcFrame gc;  // must be first
  const RCode* rc = nullptr;
  Slot* regs = nullptr;

  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const OptFrame*>(g);
    for (std::int32_t r : f->rc->ref_regs) {
      if (f->regs[r].ref != nullptr) visit(f->regs[r].ref, arg);
    }
  }
};

/// Deliberately out-of-line rank-2 helpers: the "generic" multidimensional
/// array path of the JVM-like profiles goes through a call, mirroring how
/// Java's reflective multiarray access compares with the CLR's direct
/// row-major indexing (paper Graph 12).
[[gnu::noinline]] bool generic_mat_index(ObjRef mat, std::int32_t r,
                                         std::int32_t c, std::int64_t* out) {
  if (mat == nullptr || mat->kind != ObjKind::Matrix2) return false;
  if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) return false;
  *out = static_cast<std::int64_t>(r) * mat->cols + c;
  return true;
}

class OptimizingBackend final : public OptBackend {
 public:
  OptimizingBackend(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine) {}

  // Compilation (and the per-method latching around it) lives in the
  // TieredEngine + CodeCache; this backend only executes published bodies.
  Slot run_compiled(VMContext& ctx, const RCode& rc,
                    const Slot* args) override {
    return run(ctx, rc, args);
  }

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    // Only reachable in Single mode, where opt_code_for_call compiles on
    // demand and never returns null (tiered dispatch uses run_compiled).
    return run(ctx, *engine_.opt_code_for_call(m.id), args);
  }

 private:
  Slot run(VMContext& ctx, const RCode& rc, const Slot* args);

  VirtualMachine& vm_;
  TieredEngine& engine_;
};

#define OPT_THROW(cls, msg)                 \
  do {                                      \
    vm_.throw_exception(ctx, (cls), (msg)); \
    goto dispatch_exception;                \
  } while (0)

// 64-byte aligned, so the dispatch loop's branch targets keep the same
// cache-line offsets whatever the objects linked ahead of it weigh.
[[gnu::aligned(64)]] Slot OptimizingBackend::run(VMContext& ctx,
                                                 const RCode& rc,
                                                 const Slot* args) {
  Module& mod = vm_.module();
  const MethodDef& m = *rc.method;
  // Fuel/deadline check at the call boundary. Also guards OSR
  // continuations: osr_enter lands here too.
  if (fuel_kill(vm_, ctx)) return Slot{};
  telemetry::record_invocation(m.id, 0, kTierIndex);
  const auto arena_mark = ctx.arena.mark();

  OptFrame frame;
  frame.rc = &rc;
  frame.regs = static_cast<Slot*>(
      ctx.arena.alloc(static_cast<std::size_t>(rc.num_regs) * sizeof(Slot)));
  for (std::size_t i = 0; i < m.num_args(); ++i) frame.regs[i] = args[i];
  frame.gc.parent = ctx.top_frame;
  frame.gc.enumerate = &OptFrame::enumerate;
  ctx.top_frame = &frame.gc;

  Slot* R = frame.regs;
  UnwindMachine uw;
  std::int32_t pc = 0;
  Slot result;

  // Deopt arming: snapshot the method's deopt generation at frame entry.
  // request_deopt bumps it, and the next taken back edge notices and bails
  // out through the side table. Single mode and bodies without a side table
  // keep dent null — the check below stays a single null test off the cold
  // path of a taken branch.
  CodeCache::Entry* dent = nullptr;
  std::uint32_t dgen = 0;
  if (engine_.tiered() && !rc.deopt_points.empty()) {
    dent = &engine_.code_entry(m.id);
    dgen = dent->deopt_generation.load(std::memory_order_relaxed);
  }

  // Fuel windows: this tier has no OSR counter to piggyback on, so metering
  // costs one extra predictable branch per taken back edge (the satellite-2
  // single-compare constraint binds the interpreter, not this tier).
  const bool fuel_on = ctx.fuel.active;
  std::uint32_t backedges = 0;
  std::uint32_t fuel_charged = 0;
  std::uint32_t pulse_next = fuel_on ? kFuelPulseBackedges : 0;

  auto leave_frame = [&] {
    if (fuel_on && backedges != fuel_charged) {
      ctx.fuel.charge(backedges - fuel_charged);
      fuel_charged = backedges;
    }
    ctx.top_frame = frame.gc.parent;
    ctx.arena.release(arena_mark);
  };
  // Returns true when the frame must deoptimize: the branch was a taken back
  // edge (a safepoint, hence also a deopt point) and the generation moved.
  // `pc` then still indexes the branch, which is how deopt_bailout finds the
  // side-table record. Deopt waits for an idle unwind machine — a finally
  // running on behalf of a leave/throw holds state only this frame knows.
  // Kept out of line: inlined at its ~40 branch sites it grows the dispatch
  // loop by a quarter, which measured ~12% slower on the SciMark composite.
  auto take_branch = [&](std::int32_t target) __attribute__((noinline))
                         -> bool {
    if (target <= pc) {
      vm_.safepoint_poll(ctx);  // back-edge poll
      if (fuel_on && ++backedges == pulse_next) {
        pulse_next += kFuelPulseBackedges;
        // A fuel or deadline kill leaves pc at the branch so the deopt side
        // table (and the unwinder's il_pc mapping) still index a real
        // safepoint; the caller's bailout path sees the pending exception
        // and dispatches.
        if (fuel_pulse(vm_, ctx, backedges, fuel_charged)) return true;
      }
      if (dent != nullptr && uw.idle() &&
          dent->deopt_generation.load(std::memory_order_relaxed) != dgen) {
        return true;
      }
    }
    pc = target;
    return false;
  };

  for (;;) {
    const RInstr& in = rc.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case ROp::NOP_R:
      case ROp::SAFEPOINT:
        break;
      case ROp::CARDMARK:
        // Null guard: the preceding store threw before this point if the
        // object was null, but CSE may have sunk the mark past a re-entry.
        if (R[in.a].ref != nullptr) gc_write_barrier(R[in.a].ref);
        break;
      case ROp::MOV:
      case ROp::MEMLD:
      case ROp::MEMST:
        R[in.d] = R[in.a];
        break;
      case ROp::LDI:
        R[in.d].raw = static_cast<std::uint64_t>(in.imm.i64);
        break;
      case ROp::LDSTR_R: {
        ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
        if (s == nullptr) {
          OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        R[in.d] = Slot::from_ref(s);
        break;
      }

      case ROp::ADD_I4: R[in.d].i32 = arith::add_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::SUB_I4: R[in.d].i32 = arith::sub_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::MUL_I4: R[in.d].i32 = arith::mul_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::NEG_I4: R[in.d].i32 = arith::sub_i32(0, R[in.a].i32); break;
      case ROp::ADD_I8: R[in.d].i64 = arith::add_i64(R[in.a].i64, R[in.b].i64); break;
      case ROp::SUB_I8: R[in.d].i64 = arith::sub_i64(R[in.a].i64, R[in.b].i64); break;
      case ROp::MUL_I8: R[in.d].i64 = arith::mul_i64(R[in.a].i64, R[in.b].i64); break;
      case ROp::NEG_I8: R[in.d].i64 = arith::sub_i64(0, R[in.a].i64); break;
      case ROp::ADD_R4: R[in.d].f32 = R[in.a].f32 + R[in.b].f32; break;
      case ROp::SUB_R4: R[in.d].f32 = R[in.a].f32 - R[in.b].f32; break;
      case ROp::MUL_R4: R[in.d].f32 = R[in.a].f32 * R[in.b].f32; break;
      case ROp::DIV_R4: R[in.d].f32 = R[in.a].f32 / R[in.b].f32; break;
      case ROp::REM_R4: R[in.d].f32 = std::fmod(R[in.a].f32, R[in.b].f32); break;
      case ROp::NEG_R4: R[in.d].f32 = -R[in.a].f32; break;
      case ROp::ADD_R8: R[in.d].f64 = R[in.a].f64 + R[in.b].f64; break;
      case ROp::SUB_R8: R[in.d].f64 = R[in.a].f64 - R[in.b].f64; break;
      case ROp::MUL_R8: R[in.d].f64 = R[in.a].f64 * R[in.b].f64; break;
      case ROp::DIV_R8: R[in.d].f64 = R[in.a].f64 / R[in.b].f64; break;
      case ROp::REM_R8: R[in.d].f64 = std::fmod(R[in.a].f64, R[in.b].f64); break;
      case ROp::NEG_R8: R[in.d].f64 = -R[in.a].f64; break;

      case ROp::DIV_I4: {
        std::int32_t out;
        const auto s = arith::div_i32(R[in.a].i32, R[in.b].i32, &out);
        if (s == arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        if (s == arith::DivStatus::Overflow) {
          OPT_THROW(mod.arithmetic_class(), "integer overflow in division");
        }
        R[in.d].i32 = out;
        break;
      }
      case ROp::REM_I4: {
        std::int32_t out;
        if (arith::rem_i32(R[in.a].i32, R[in.b].i32, &out) ==
            arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        R[in.d].i32 = out;
        break;
      }
      case ROp::DIV_I8: {
        std::int64_t out;
        const auto s = arith::div_i64(R[in.a].i64, R[in.b].i64, &out);
        if (s == arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        if (s == arith::DivStatus::Overflow) {
          OPT_THROW(mod.arithmetic_class(), "integer overflow in division");
        }
        R[in.d].i64 = out;
        break;
      }
      case ROp::REM_I8: {
        std::int64_t out;
        if (arith::rem_i64(R[in.a].i64, R[in.b].i64, &out) ==
            arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        R[in.d].i64 = out;
        break;
      }

      case ROp::ADDI_I4:
        R[in.d].i32 = arith::add_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::SUBI_I4:
        R[in.d].i32 = arith::sub_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::MULI_I4:
        R[in.d].i32 = arith::mul_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::DIVI_I4: {
        std::int32_t out;
        const auto s = arith::div_i32(R[in.a].i32,
                                      static_cast<std::int32_t>(in.imm.i64), &out);
        if (s == arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        if (s == arith::DivStatus::Overflow) {
          OPT_THROW(mod.arithmetic_class(), "integer overflow in division");
        }
        R[in.d].i32 = out;
        break;
      }
      case ROp::REMI_I4: {
        std::int32_t out;
        if (arith::rem_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64),
                           &out) == arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        R[in.d].i32 = out;
        break;
      }
      case ROp::ADDI_I8:
        R[in.d].i64 = arith::add_i64(R[in.a].i64, in.imm.i64);
        break;
      case ROp::SUBI_I8:
        R[in.d].i64 = arith::sub_i64(R[in.a].i64, in.imm.i64);
        break;
      case ROp::MULI_I8:
        R[in.d].i64 = arith::mul_i64(R[in.a].i64, in.imm.i64);
        break;
      case ROp::DIVI_I8: {
        std::int64_t out;
        const auto s = arith::div_i64(R[in.a].i64, in.imm.i64, &out);
        if (s == arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        if (s == arith::DivStatus::Overflow) {
          OPT_THROW(mod.arithmetic_class(), "integer overflow in division");
        }
        R[in.d].i64 = out;
        break;
      }
      case ROp::REMI_I8: {
        std::int64_t out;
        if (arith::rem_i64(R[in.a].i64, in.imm.i64, &out) ==
            arith::DivStatus::DivideByZero) {
          OPT_THROW(mod.divide_by_zero_class(), "division by zero");
        }
        R[in.d].i64 = out;
        break;
      }
      case ROp::ADDI_R8: {
        Slot c;
        c.raw = static_cast<std::uint64_t>(in.imm.i64);
        R[in.d].f64 = R[in.a].f64 + c.f64;
        break;
      }
      case ROp::MULI_R8: {
        Slot c;
        c.raw = static_cast<std::uint64_t>(in.imm.i64);
        R[in.d].f64 = R[in.a].f64 * c.f64;
        break;
      }

      case ROp::AND_I4: R[in.d].i32 = R[in.a].i32 & R[in.b].i32; break;
      case ROp::OR_I4: R[in.d].i32 = R[in.a].i32 | R[in.b].i32; break;
      case ROp::XOR_I4: R[in.d].i32 = R[in.a].i32 ^ R[in.b].i32; break;
      case ROp::NOT_I4: R[in.d].i32 = ~R[in.a].i32; break;
      case ROp::SHL_I4: R[in.d].i32 = arith::shl_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::SHR_I4: R[in.d].i32 = arith::shr_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::SHRU_I4: R[in.d].i32 = arith::shru_i32(R[in.a].i32, R[in.b].i32); break;
      case ROp::AND_I8: R[in.d].i64 = R[in.a].i64 & R[in.b].i64; break;
      case ROp::OR_I8: R[in.d].i64 = R[in.a].i64 | R[in.b].i64; break;
      case ROp::XOR_I8: R[in.d].i64 = R[in.a].i64 ^ R[in.b].i64; break;
      case ROp::NOT_I8: R[in.d].i64 = ~R[in.a].i64; break;
      case ROp::SHL_I8: R[in.d].i64 = arith::shl_i64(R[in.a].i64, R[in.b].i32); break;
      case ROp::SHR_I8: R[in.d].i64 = arith::shr_i64(R[in.a].i64, R[in.b].i32); break;
      case ROp::SHRU_I8: R[in.d].i64 = arith::shru_i64(R[in.a].i64, R[in.b].i32); break;
      case ROp::SHLI_I4:
        R[in.d].i32 = arith::shl_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::SHRI_I4:
        R[in.d].i32 = arith::shr_i32(R[in.a].i32, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::SHLI_I8:
        R[in.d].i64 = arith::shl_i64(R[in.a].i64, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::SHRI_I8:
        R[in.d].i64 = arith::shr_i64(R[in.a].i64, static_cast<std::int32_t>(in.imm.i64));
        break;
      case ROp::ANDI_I4:
        R[in.d].i32 = R[in.a].i32 & static_cast<std::int32_t>(in.imm.i64);
        break;

      case ROp::CEQ_I4: R[in.d] = Slot::from_i32(R[in.a].i32 == R[in.b].i32); break;
      case ROp::CGT_I4: R[in.d] = Slot::from_i32(R[in.a].i32 > R[in.b].i32); break;
      case ROp::CLT_I4: R[in.d] = Slot::from_i32(R[in.a].i32 < R[in.b].i32); break;
      case ROp::CEQ_I8: R[in.d] = Slot::from_i32(R[in.a].i64 == R[in.b].i64); break;
      case ROp::CGT_I8: R[in.d] = Slot::from_i32(R[in.a].i64 > R[in.b].i64); break;
      case ROp::CLT_I8: R[in.d] = Slot::from_i32(R[in.a].i64 < R[in.b].i64); break;
      case ROp::CEQ_R4: R[in.d] = Slot::from_i32(R[in.a].f32 == R[in.b].f32); break;
      case ROp::CGT_R4: R[in.d] = Slot::from_i32(R[in.a].f32 > R[in.b].f32); break;
      case ROp::CLT_R4: R[in.d] = Slot::from_i32(R[in.a].f32 < R[in.b].f32); break;
      case ROp::CEQ_R8: R[in.d] = Slot::from_i32(R[in.a].f64 == R[in.b].f64); break;
      case ROp::CGT_R8: R[in.d] = Slot::from_i32(R[in.a].f64 > R[in.b].f64); break;
      case ROp::CLT_R8: R[in.d] = Slot::from_i32(R[in.a].f64 < R[in.b].f64); break;
      case ROp::CEQ_REF: R[in.d] = Slot::from_i32(R[in.a].ref == R[in.b].ref); break;

      case ROp::CV_I4_I8: R[in.d].i64 = R[in.a].i32; break;
      case ROp::CV_I4_R4: R[in.d] = Slot::from_f32(static_cast<float>(R[in.a].i32)); break;
      case ROp::CV_I4_R8: R[in.d].f64 = R[in.a].i32; break;
      case ROp::CV_I8_I4: R[in.d] = Slot::from_i32(static_cast<std::int32_t>(R[in.a].i64)); break;
      case ROp::CV_I8_R4: R[in.d] = Slot::from_f32(static_cast<float>(R[in.a].i64)); break;
      case ROp::CV_I8_R8: R[in.d].f64 = static_cast<double>(R[in.a].i64); break;
      case ROp::CV_R4_I4: R[in.d] = Slot::from_i32(arith::f_to_i32(R[in.a].f32)); break;
      case ROp::CV_R4_I8: R[in.d].i64 = arith::f_to_i64(R[in.a].f32); break;
      case ROp::CV_R4_R8: R[in.d].f64 = R[in.a].f32; break;
      case ROp::CV_R8_I4: R[in.d] = Slot::from_i32(arith::f_to_i32(R[in.a].f64)); break;
      case ROp::CV_R8_I8: R[in.d].i64 = arith::f_to_i64(R[in.a].f64); break;
      case ROp::CV_R8_R4: R[in.d] = Slot::from_f32(static_cast<float>(R[in.a].f64)); break;
      case ROp::SEXT8: R[in.d] = Slot::from_i32(static_cast<std::int8_t>(R[in.a].i32)); break;
      case ROp::ZEXT8: R[in.d] = Slot::from_i32(static_cast<std::uint8_t>(R[in.a].i32)); break;
      case ROp::SEXT16: R[in.d] = Slot::from_i32(static_cast<std::int16_t>(R[in.a].i32)); break;
      case ROp::ZEXT16: R[in.d] = Slot::from_i32(static_cast<std::uint16_t>(R[in.a].i32)); break;

      case ROp::JMP:
      case ROp::JMPB:
        if (take_branch(in.d)) goto deopt_bailout;
        continue;
      case ROp::JZ_I4: if (R[in.a].i32 == 0) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNZ_I4: if (R[in.a].i32 != 0) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JZ_I8: if (R[in.a].i64 == 0) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNZ_I8: if (R[in.a].i64 != 0) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JZ_REF: if (R[in.a].ref == nullptr) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNZ_REF: if (R[in.a].ref != nullptr) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;

      case ROp::JEQ_I4: if (R[in.a].i32 == R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNE_I4: if (R[in.a].i32 != R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLT_I4: if (R[in.a].i32 < R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLE_I4: if (R[in.a].i32 <= R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGT_I4: if (R[in.a].i32 > R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGE_I4: if (R[in.a].i32 >= R[in.b].i32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JEQ_I8: if (R[in.a].i64 == R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNE_I8: if (R[in.a].i64 != R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLT_I8: if (R[in.a].i64 < R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLE_I8: if (R[in.a].i64 <= R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGT_I8: if (R[in.a].i64 > R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGE_I8: if (R[in.a].i64 >= R[in.b].i64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JEQ_R4: if (R[in.a].f32 == R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNE_R4: if (R[in.a].f32 != R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLT_R4: if (R[in.a].f32 < R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLE_R4: if (R[in.a].f32 <= R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGT_R4: if (R[in.a].f32 > R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGE_R4: if (R[in.a].f32 >= R[in.b].f32) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JEQ_R8: if (R[in.a].f64 == R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNE_R8: if (R[in.a].f64 != R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLT_R8: if (R[in.a].f64 < R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLE_R8: if (R[in.a].f64 <= R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGT_R8: if (R[in.a].f64 > R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGE_R8: if (R[in.a].f64 >= R[in.b].f64) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JEQ_REF: if (R[in.a].ref == R[in.b].ref) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNE_REF: if (R[in.a].ref != R[in.b].ref) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;

      case ROp::JEQI_I4: if (R[in.a].i32 == static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JNEI_I4: if (R[in.a].i32 != static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLTI_I4: if (R[in.a].i32 < static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JLEI_I4: if (R[in.a].i32 <= static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGTI_I4: if (R[in.a].i32 > static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;
      case ROp::JGEI_I4: if (R[in.a].i32 >= static_cast<std::int32_t>(in.imm.i64)) { if (take_branch(in.d)) goto deopt_bailout; continue; } break;

      case ROp::CALL_R: {
        vm_.safepoint_poll(ctx);
        const auto argc = static_cast<std::int32_t>(in.imm.i64);
        Slot argbuf[kMaxCallArgs];
        for (std::int32_t k = 0; k < argc; ++k) {
          argbuf[k] = R[rc.args_pool[static_cast<std::size_t>(in.b + k)]];
        }
        // Hot-to-hot fast path: a published body runs directly. A cold
        // callee (tiered mode only) routes back through the engine, which
        // counts the call and runs it on its current tier.
        const RCode* callee = engine_.opt_code_for_call(in.a);
        const Slot r = callee != nullptr ? run(ctx, *callee, argbuf)
                                         : engine_.call(ctx, in.a, argbuf);
        if (ctx.has_pending()) goto dispatch_exception;
        if (in.d >= 0) R[in.d] = r;
        break;
      }
      case ROp::CALLINTR_R: {
        const auto argc = static_cast<std::int32_t>(in.imm.i64);
        Slot argbuf[kMaxIntrinsicArgs];
        for (std::int32_t k = 0; k < argc; ++k) {
          argbuf[k] = R[rc.args_pool[static_cast<std::size_t>(in.b + k)]];
        }
        Slot r;
        intrinsic(in.a).fn(ctx, argbuf, &r);
        if (ctx.has_pending()) goto dispatch_exception;
        if (in.d >= 0) R[in.d] = r;
        break;
      }
      case ROp::MATH1_R8: {
        // imm is the vm::Intr id (position-independent); the table lookup is
        // a dense switch the branch predictor resolves per call site.
        R[in.d].f64 = regir::math1_fn(
            static_cast<std::int32_t>(in.imm.i64))(R[in.a].f64);
        break;
      }
      case ROp::MATH2_R8: {
        R[in.d].f64 = regir::math2_fn(static_cast<std::int32_t>(in.imm.i64))(
            R[in.a].f64, R[in.b].f64);
        break;
      }
      case ROp::ABS_I4_R: R[in.d] = Slot::from_i32(R[in.a].i32 < 0 ? -R[in.a].i32 : R[in.a].i32); break;
      case ROp::ABS_I8_R: R[in.d].i64 = R[in.a].i64 < 0 ? -R[in.a].i64 : R[in.a].i64; break;
      case ROp::ABS_R4_R: R[in.d] = Slot::from_f32(std::fabs(R[in.a].f32)); break;
      case ROp::ABS_R8_R: R[in.d].f64 = std::fabs(R[in.a].f64); break;
      case ROp::MAX_I4_R: R[in.d] = Slot::from_i32(std::max(R[in.a].i32, R[in.b].i32)); break;
      case ROp::MAX_I8_R: R[in.d].i64 = std::max(R[in.a].i64, R[in.b].i64); break;
      case ROp::MAX_R4_R: R[in.d] = Slot::from_f32(std::fmax(R[in.a].f32, R[in.b].f32)); break;
      case ROp::MAX_R8_R: R[in.d].f64 = std::fmax(R[in.a].f64, R[in.b].f64); break;
      case ROp::MIN_I4_R: R[in.d] = Slot::from_i32(std::min(R[in.a].i32, R[in.b].i32)); break;
      case ROp::MIN_I8_R: R[in.d].i64 = std::min(R[in.a].i64, R[in.b].i64); break;
      case ROp::MIN_R4_R: R[in.d] = Slot::from_f32(std::fmin(R[in.a].f32, R[in.b].f32)); break;
      case ROp::MIN_R8_R: R[in.d].f64 = std::fmin(R[in.a].f64, R[in.b].f64); break;

      case ROp::RET_R:
        if (in.a >= 0) result = R[in.a];
        leave_frame();
        return result;

      case ROp::NEWOBJ_R: {
        ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
        if (obj == nullptr) {
          OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        R[in.d] = Slot::from_ref(obj);
        break;
      }
      case ROp::LDFLD_R: {
        ObjRef obj = R[in.a].ref;
        if (obj == nullptr) OPT_THROW(mod.null_reference_class(), "ldfld");
        R[in.d] = obj->fields()[in.b];
        break;
      }
      case ROp::STFLD_R: {
        ObjRef obj = R[in.a].ref;
        if (obj == nullptr) OPT_THROW(mod.null_reference_class(), "stfld");
        obj->fields()[in.b] = R[in.d];
        break;
      }
      case ROp::LDSFLD_R:
        R[in.d] = mod.statics(in.a)[in.b];
        break;
      case ROp::STSFLD_R:
        mod.statics(in.a)[in.b] = R[in.d];
        break;

      case ROp::NEWARR_R: {
        const std::int32_t len = R[in.a].i32;
        if (len < 0) OPT_THROW(mod.index_range_class(), "negative array size");
        ObjRef arr =
            vm_.heap().alloc_array(static_cast<ValType>(in.b), len, &ctx.tlab);
        if (arr == nullptr) {
          OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        R[in.d] = Slot::from_ref(arr);
        break;
      }
      case ROp::LDLEN_R: {
        ObjRef arr = R[in.a].ref;
        if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldlen");
        R[in.d] = Slot::from_i32(arr->length);
        break;
      }
      case ROp::CHK_BOUNDS: {
        ObjRef arr = R[in.a].ref;
        if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem");
        const std::int32_t idx = R[in.b].i32;
        if (idx < 0 || idx >= arr->length) {
          OPT_THROW(mod.index_range_class(), "index out of range");
        }
        break;
      }
      case ROp::JLT_LEN: {
        ObjRef arr = R[in.b].ref;
        if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldlen");
        if (R[in.a].i32 < arr->length) {
          if (take_branch(in.d)) goto deopt_bailout;
          continue;
        }
        break;
      }

#define OPT_LDELEM(OPC, FIELD, FROM)                                      \
  case ROp::OPC: {                                                        \
    ObjRef arr = R[in.a].ref;                                             \
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem");  \
    const std::int32_t idx = R[in.b].i32;                                 \
    if (idx < 0 || idx >= arr->length) {                                  \
      OPT_THROW(mod.index_range_class(), "index out of range");           \
    }                                                                     \
    R[in.d] = Slot::FROM(arr->FIELD()[idx]);                              \
    break;                                                                \
  }
      OPT_LDELEM(LDELEM_I4, i32_data, from_i32)
      OPT_LDELEM(LDELEM_I8, i64_data, from_i64)
      OPT_LDELEM(LDELEM_R4, f32_data, from_f32)
      OPT_LDELEM(LDELEM_R8, f64_data, from_f64)
      OPT_LDELEM(LDELEM_REF, ref_data, from_ref)
#undef OPT_LDELEM

#define OPT_LDELEMU(OPC, FIELD, FROM)               \
  case ROp::OPC:                                    \
    R[in.d] = Slot::FROM(R[in.a].ref->FIELD()[R[in.b].i32]); \
    break;
      OPT_LDELEMU(LDELEMU_I4, i32_data, from_i32)
      OPT_LDELEMU(LDELEMU_I8, i64_data, from_i64)
      OPT_LDELEMU(LDELEMU_R4, f32_data, from_f32)
      OPT_LDELEMU(LDELEMU_R8, f64_data, from_f64)
      OPT_LDELEMU(LDELEMU_REF, ref_data, from_ref)
#undef OPT_LDELEMU

#define OPT_STELEM(OPC, FIELD, MEMBER)                                    \
  case ROp::OPC: {                                                        \
    ObjRef arr = R[in.a].ref;                                             \
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "stelem");  \
    const std::int32_t idx = R[in.b].i32;                                 \
    if (idx < 0 || idx >= arr->length) {                                  \
      OPT_THROW(mod.index_range_class(), "index out of range");           \
    }                                                                     \
    arr->FIELD()[idx] = R[in.d].MEMBER;                                   \
    break;                                                                \
  }
      OPT_STELEM(STELEM_I4, i32_data, i32)
      OPT_STELEM(STELEM_I8, i64_data, i64)
      OPT_STELEM(STELEM_R4, f32_data, f32)
      OPT_STELEM(STELEM_R8, f64_data, f64)
      OPT_STELEM(STELEM_REF, ref_data, ref)
#undef OPT_STELEM

#define OPT_STELEMU(OPC, FIELD, MEMBER)                 \
  case ROp::OPC:                                        \
    R[in.a].ref->FIELD()[R[in.b].i32] = R[in.d].MEMBER; \
    break;
      OPT_STELEMU(STELEMU_I4, i32_data, i32)
      OPT_STELEMU(STELEMU_I8, i64_data, i64)
      OPT_STELEMU(STELEMU_R4, f32_data, f32)
      OPT_STELEMU(STELEMU_R8, f64_data, f64)
      OPT_STELEMU(STELEMU_REF, ref_data, ref)
#undef OPT_STELEMU

      case ROp::NEWMAT_R: {
        const std::int32_t rows = R[in.a].i32;
        const std::int32_t cols = R[in.b].i32;
        if (rows < 0 || cols < 0) {
          OPT_THROW(mod.index_range_class(), "negative matrix size");
        }
        ObjRef mat = vm_.heap().alloc_matrix2(
            static_cast<ValType>(in.imm.i64), rows, cols, &ctx.tlab);
        if (mat == nullptr) {
          OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        R[in.d] = Slot::from_ref(mat);
        break;
      }

#define OPT_LDEL2(OPC, FIELD, FROM)                                       \
  case ROp::OPC: {                                                        \
    ObjRef mat = R[in.a].ref;                                             \
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem2"); \
    const std::int32_t r2 = R[in.b].i32;                                  \
    const std::int32_t c2 =                                               \
        R[static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask)].i32;     \
    if (r2 < 0 || r2 >= mat->length || c2 < 0 || c2 >= mat->cols) {       \
      OPT_THROW(mod.index_range_class(), "matrix index out of range");    \
    }                                                                     \
    R[in.d] = Slot::FROM(                                                 \
        mat->FIELD()[static_cast<std::int64_t>(r2) * mat->cols + c2]);    \
    break;                                                                \
  }
      OPT_LDEL2(LDEL2_I4, i32_data, from_i32)
      OPT_LDEL2(LDEL2_I8, i64_data, from_i64)
      OPT_LDEL2(LDEL2_R4, f32_data, from_f32)
      OPT_LDEL2(LDEL2_R8, f64_data, from_f64)
      OPT_LDEL2(LDEL2_REF, ref_data, from_ref)
#undef OPT_LDEL2

#define OPT_STEL2(OPC, FIELD, MEMBER)                                     \
  case ROp::OPC: {                                                        \
    ObjRef mat = R[in.a].ref;                                             \
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "stelem2"); \
    const std::int32_t r2 = R[in.b].i32;                                  \
    const std::int32_t c2 =                                               \
        R[static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask)].i32;     \
    const std::int32_t v2 = static_cast<std::int32_t>(                    \
        (in.imm.i64 >> kRegFieldBits) & kRegFieldMask);                   \
    if (r2 < 0 || r2 >= mat->length || c2 < 0 || c2 >= mat->cols) {       \
      OPT_THROW(mod.index_range_class(), "matrix index out of range");    \
    }                                                                     \
    mat->FIELD()[static_cast<std::int64_t>(r2) * mat->cols + c2] =        \
        R[v2].MEMBER;                                                     \
    break;                                                                \
  }
      OPT_STEL2(STEL2_I4, i32_data, i32)
      OPT_STEL2(STEL2_I8, i64_data, i64)
      OPT_STEL2(STEL2_R4, f32_data, f32)
      OPT_STEL2(STEL2_R8, f64_data, f64)
      OPT_STEL2(STEL2_REF, ref_data, ref)
#undef OPT_STEL2

      case ROp::LDEL2_SLOW: {
        ObjRef mat = R[in.a].ref;
        const std::int32_t r2 = R[in.b].i32;
        const std::int32_t c2 =
            R[static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask)].i32;
        std::int64_t i;
        if (!generic_mat_index(mat, r2, c2, &i)) {
          if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem2");
          OPT_THROW(mod.index_range_class(), "matrix index out of range");
        }
        switch (static_cast<ValType>((in.imm.i64 >> 40) & 0xF)) {
          case ValType::I32: R[in.d] = Slot::from_i32(mat->i32_data()[i]); break;
          case ValType::I64: R[in.d] = Slot::from_i64(mat->i64_data()[i]); break;
          case ValType::F32: R[in.d] = Slot::from_f32(mat->f32_data()[i]); break;
          case ValType::F64: R[in.d] = Slot::from_f64(mat->f64_data()[i]); break;
          default: R[in.d] = Slot::from_ref(mat->ref_data()[i]); break;
        }
        break;
      }
      case ROp::STEL2_SLOW: {
        ObjRef mat = R[in.a].ref;
        const std::int32_t r2 = R[in.b].i32;
        const std::int32_t c2 =
            R[static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask)].i32;
        const std::int32_t v2 = static_cast<std::int32_t>(
            (in.imm.i64 >> kRegFieldBits) & kRegFieldMask);
        std::int64_t i;
        if (!generic_mat_index(mat, r2, c2, &i)) {
          if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "stelem2");
          OPT_THROW(mod.index_range_class(), "matrix index out of range");
        }
        switch (static_cast<ValType>((in.imm.i64 >> 40) & 0xF)) {
          case ValType::I32: mat->i32_data()[i] = R[v2].i32; break;
          case ValType::I64: mat->i64_data()[i] = R[v2].i64; break;
          case ValType::F32: mat->f32_data()[i] = R[v2].f32; break;
          case ValType::F64: mat->f64_data()[i] = R[v2].f64; break;
          default: mat->ref_data()[i] = R[v2].ref; break;
        }
        break;
      }
      case ROp::LDMROWS_R: {
        ObjRef mat = R[in.a].ref;
        if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldmat");
        R[in.d] = Slot::from_i32(mat->length);
        break;
      }
      case ROp::LDMCOLS_R: {
        ObjRef mat = R[in.a].ref;
        if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldmat");
        R[in.d] = Slot::from_i32(mat->cols);
        break;
      }

      case ROp::BOX_R: {
        ObjRef box =
            vm_.heap().alloc_box(static_cast<ValType>(in.b), R[in.a], &ctx.tlab);
        if (box == nullptr) {
          OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        R[in.d] = Slot::from_ref(box);
        break;
      }
      case ROp::UNBOX_R: {
        ObjRef box = R[in.a].ref;
        if (box == nullptr) OPT_THROW(mod.null_reference_class(), "unbox");
        if (box->kind != ObjKind::Boxed ||
            box->elem != static_cast<ValType>(in.b)) {
          OPT_THROW(mod.invalid_cast_class(), "unbox type mismatch");
        }
        R[in.d] = box->fields()[0];
        break;
      }

      case ROp::THROW_R: {
        ObjRef exc = R[in.a].ref;
        if (exc == nullptr) OPT_THROW(mod.null_reference_class(), "throw null");
        ctx.pending_exception = exc;
        goto dispatch_exception;
      }
      case ROp::LEAVE_R: {
        const UnwindAction a =
            uw.on_leave(m, in.il_pc, in.a);  // a = IL target
        pc = rc.il2rpc[static_cast<std::size_t>(a.pc)];
        continue;
      }
      case ROp::ENDFINALLY_R: {
        const UnwindAction a = uw.on_endfinally(mod, m);
        switch (a.kind) {
          case UnwindAction::Kind::Resume:
          case UnwindAction::Kind::EnterFinally:
            pc = rc.il2rpc[static_cast<std::size_t>(a.pc)];
            continue;
          case UnwindAction::Kind::EnterCatch:
            R[rc.handler_exc_reg[static_cast<std::size_t>(a.handler_index)]] =
                Slot::from_ref(uw.exception());
            pc = rc.il2rpc[static_cast<std::size_t>(a.pc)];
            continue;
          case UnwindAction::Kind::Propagate:
            ctx.pending_exception = uw.exception();
            leave_frame();
            return result;
        }
        break;
      }

      case ROp::VECLOOP: {
        // Guarded vector fast path (DESIGN.md §12). If every span the kernel
        // touches is provably in-bounds for the whole trip range, run the
        // loop as one kernel call and leave the register state exactly as
        // the scalar loop would at exit (ivar = limit, acc = final value);
        // the scalar guard that follows then exits immediately. Any guard
        // failure breaks out with NO state change, falling through to the
        // retained scalar loop — which throws (or just runs) exactly as an
        // unvectorized build would.
        const RCode::VecLoop& v = rc.vec_loops[static_cast<std::size_t>(in.a)];
        const std::int32_t start = R[v.ivar].i32;
        std::int32_t limit;
        if (v.limit >= 0) {
          limit = R[v.limit].i32;
        } else {
          ObjRef larr = R[v.limit_arr].ref;
          if (larr == nullptr) break;  // scalar loop throws the NRE
          limit = larr->length;
        }
        if (start >= limit) break;  // zero-trip: nothing to do, touch nothing
        ObjRef a0 = v.arr0 >= 0 ? R[v.arr0].ref : nullptr;
        ObjRef a1 = v.arr1 >= 0 ? R[v.arr1].ref : nullptr;
        ObjRef a2 = v.arr2 >= 0 ? R[v.arr2].ref : nullptr;
        if ((v.arr0 >= 0 && a0 == nullptr) || (v.arr1 >= 0 && a1 == nullptr) ||
            (v.arr2 >= 0 && a2 == nullptr) || start < 0) {
          break;
        }
        bool ok = false;
        switch (v.kernel) {
          case veckernels::kMapScaleF64:
          case veckernels::kMapScaleI4:
          case veckernels::kSumF64:
          case veckernels::kSumI4:
            ok = limit <= a0->length;
            break;
          case veckernels::kMapAddF64:
          case veckernels::kMapAddI4:
          case veckernels::kDaxpyF64:
          case veckernels::kDaxpyI4:
          case veckernels::kDotF64:
          case veckernels::kDotI4:
            ok = limit <= a0->length && limit <= a1->length;
            break;
          case veckernels::kGatherDotF64:
            // arr0 (x) is indexed through arr1's data-dependent values; the
            // kernel checks those per element and abandons on a violation.
            ok = limit <= a1->length && limit <= a2->length;
            break;
          case veckernels::kSor5F64:
            ok = start >= 1 && limit <= a0->length - 1 &&
                 limit <= a1->length && limit <= a2->length;
            break;
          default:
            break;
        }
        if (!ok) break;

        // Fuel: charge exactly what the scalar loop's in-loop pulses would
        // have charged by its LAST pulse (not the residual past it — that
        // stays in `backedges` for the frame's next pulse or exit charge, so
        // call-boundary exhaustion checks downstream see identical state).
        // If that charge would exhaust the budget, decline vectorization:
        // the scalar loop then kills the job at precisely the right pulse.
        const std::int64_t trips =
            static_cast<std::int64_t>(limit) - static_cast<std::int64_t>(start);
        const std::uint32_t save_backedges = backedges;
        const std::uint32_t save_charged = fuel_charged;
        const std::uint32_t save_pulse = pulse_next;
        std::uint64_t bulk = 0;
        if (fuel_on) {
          const std::uint64_t after = static_cast<std::uint64_t>(backedges) +
                                      static_cast<std::uint64_t>(trips);
          if (after >= pulse_next) {
            const std::uint64_t last_pulse =
                after - (after % kFuelPulseBackedges);
            bulk = last_pulse - fuel_charged;
            if (ctx.fuel.remaining <= static_cast<std::int64_t>(bulk)) break;
            ctx.fuel.charge(bulk);
            fuel_charged = static_cast<std::uint32_t>(last_pulse);
            pulse_next =
                static_cast<std::uint32_t>(last_pulse) + kFuelPulseBackedges;
          }
          backedges = static_cast<std::uint32_t>(after);
        }

        Slot s0v, s1v;
        if (v.s0_reg >= 0) {
          s0v = R[v.s0_reg];
        } else {
          s0v.raw = static_cast<std::uint64_t>(v.s0_bits);
        }
        if (v.s1_reg >= 0) {
          s1v = R[v.s1_reg];
        } else {
          s1v.raw = static_cast<std::uint64_t>(v.s1_bits);
        }

        bool ran = true;
        switch (v.kernel) {
          case veckernels::kMapScaleF64:
            veckernels::map_scale_f64(a0->f64_data(), start, limit, s0v.f64);
            break;
          case veckernels::kMapAddF64:
            veckernels::map_add_f64(a0->f64_data(), a1->f64_data(), start,
                                    limit);
            break;
          case veckernels::kDaxpyF64:
            veckernels::daxpy_f64(a0->f64_data(), a1->f64_data(), start,
                                  limit, s0v.f64);
            break;
          case veckernels::kSumF64:
            R[v.acc] = Slot::from_f64(
                veckernels::sum_f64(a0->f64_data(), start, limit,
                                    R[v.acc].f64));
            break;
          case veckernels::kDotF64:
            R[v.acc] = Slot::from_f64(
                veckernels::dot_f64(a0->f64_data(), a1->f64_data(), start,
                                    limit, R[v.acc].f64));
            break;
          case veckernels::kGatherDotF64: {
            double out = 0;
            if (veckernels::gather_dot_f64(a0->f64_data(), a0->length,
                                           a1->i32_data(), a2->f64_data(),
                                           start, limit, R[v.acc].f64,
                                           &out)) {
              R[v.acc] = Slot::from_f64(out);
            } else {
              // Data-dependent gather index out of range: roll the fuel
              // state back and let the scalar loop re-run — it meters itself
              // pulse by pulse and throws at exactly the offending element.
              backedges = save_backedges;
              fuel_charged = save_charged;
              pulse_next = save_pulse;
              ctx.fuel.spent -= bulk;
              ctx.fuel.remaining += static_cast<std::int64_t>(bulk);
              ran = false;
            }
            break;
          }
          case veckernels::kSor5F64:
            veckernels::sor5_f64(a0->f64_data(), a1->f64_data(),
                                 a2->f64_data(), start, limit, s0v.f64,
                                 s1v.f64);
            break;
          case veckernels::kMapScaleI4:
            veckernels::map_scale_i32(a0->i32_data(), start, limit, s0v.i32);
            break;
          case veckernels::kMapAddI4:
            veckernels::map_add_i32(a0->i32_data(), a1->i32_data(), start,
                                    limit);
            break;
          case veckernels::kDaxpyI4:
            veckernels::daxpy_i32(a0->i32_data(), a1->i32_data(), start,
                                  limit, s0v.i32);
            break;
          case veckernels::kSumI4:
            R[v.acc] = Slot::from_i32(
                veckernels::sum_i32(a0->i32_data(), start, limit,
                                    R[v.acc].i32));
            break;
          case veckernels::kDotI4:
            R[v.acc] = Slot::from_i32(
                veckernels::dot_i32(a0->i32_data(), a1->i32_data(), start,
                                    limit, R[v.acc].i32));
            break;
          default:
            ran = false;
            break;
        }
        if (!ran) break;

        // The whole loop ran: hand off to the scalar guard in exit position.
        // One safepoint poll stands in for the per-back-edge polls (there is
        // never a poll, allocation or call inside a lowered loop body).
        R[v.ivar] = Slot::from_i32(limit);
        telemetry::record_vec_loop(veckernels::kernel_name(v.kernel),
                                   static_cast<std::uint64_t>(trips));
        vm_.safepoint_poll(ctx);
        break;
      }

      case ROp::COUNT_:
        break;
    }
    ++pc;
    continue;

  deopt_bailout: {
    // A pending FuelExhausted raised at the back-edge safepoint unwinds like
    // any managed exception; only real deopt requests fall through below.
    if (ctx.has_pending()) goto dispatch_exception;
    // The invocation finishes in an interpreter continuation built from the
    // side-table record at this branch; its result IS this frame's result.
    result = engine_.deopt_bailout(ctx, rc, pc, R);
    leave_frame();
    return result;
  }

  dispatch_exception: {
    ObjRef exc = ctx.pending_exception;
    ctx.pending_exception = nullptr;
    const std::int32_t il =
        rc.code[static_cast<std::size_t>(pc)].il_pc;
    const UnwindAction a = uw.on_throw(mod, m, il, exc);
    switch (a.kind) {
      case UnwindAction::Kind::EnterCatch:
        R[rc.handler_exc_reg[static_cast<std::size_t>(a.handler_index)]] =
            Slot::from_ref(uw.exception());
        pc = rc.il2rpc[static_cast<std::size_t>(a.pc)];
        continue;
      case UnwindAction::Kind::EnterFinally:
        pc = rc.il2rpc[static_cast<std::size_t>(a.pc)];
        continue;
      default:
        ctx.pending_exception = exc;
        leave_frame();
        return result;
    }
  }
  }
}

#undef OPT_THROW

}  // namespace

std::unique_ptr<OptBackend> make_optimizing_backend(VirtualMachine& vm,
                                                    TieredEngine& engine) {
  return std::make_unique<OptimizingBackend>(vm, engine);
}

}  // namespace hpcnet::vm
