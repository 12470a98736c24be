// Register IR for Tier::Optimizing — the CLR-1.1/JVM-class JIT stand-in.
//
// The stack-to-register translator assigns every (stack depth, type) pair and
// every local/argument slot a virtual register with a FIXED type for the
// whole method. That invariant is what makes GC precise and cheap here: the
// set of ref-typed registers is a compile-time constant per method, and any
// bit pattern in a ref register is (inductively) either null or a pointer to
// an object this very register has kept alive — so frames need no per-pc
// maps at all, matching how generational JITs batch their root scans.
//
// Optimization passes (mostly gated by EngineFlags, see DESIGN.md §5):
// constant operand folding (immediate instruction forms), compare+branch
// fusion, copy propagation + dead-move elimination (the "enregistration" the
// paper's disassembly shows for CLR/IBM but not Mono/Rotor), the CLR's
// redundant-constant-store quirk, the 64-local enregistration limit, and
// array bounds-check elimination for counted loops bounded by ldlen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vm/module.hpp"
#include "vm/value.hpp"

namespace hpcnet::vm::regir {

enum class ROp : std::uint8_t {
  NOP_R = 0,
  MOV,    // d <- a
  MEMLD,  // d <- a  (spilled local load: pinned, never optimized)
  MEMST,  // d <- a  (spilled local store: pinned)
  LDI,    // d <- imm (raw 8 bytes)
  LDSTR_R,  // d <- new string(a = pool id)   [alloc]

  // Three-address arithmetic: d <- a op b.
  ADD_I4, SUB_I4, MUL_I4, DIV_I4, REM_I4, NEG_I4,
  ADD_I8, SUB_I8, MUL_I8, DIV_I8, REM_I8, NEG_I8,
  ADD_R4, SUB_R4, MUL_R4, DIV_R4, REM_R4, NEG_R4,
  ADD_R8, SUB_R8, MUL_R8, DIV_R8, REM_R8, NEG_R8,

  // Immediate forms: d <- a op imm.
  ADDI_I4, SUBI_I4, MULI_I4, DIVI_I4, REMI_I4,
  ADDI_I8, SUBI_I8, MULI_I8, DIVI_I8, REMI_I8,
  ADDI_R8, MULI_R8,

  AND_I4, OR_I4, XOR_I4, NOT_I4, SHL_I4, SHR_I4, SHRU_I4,
  AND_I8, OR_I8, XOR_I8, NOT_I8, SHL_I8, SHR_I8, SHRU_I8,
  SHLI_I4, SHRI_I4, SHLI_I8, SHRI_I8, ANDI_I4,

  // d <- (a cmp b) as i32 0/1.
  CEQ_I4, CGT_I4, CLT_I4,
  CEQ_I8, CGT_I8, CLT_I8,
  CEQ_R4, CGT_R4, CLT_R4,
  CEQ_R8, CGT_R8, CLT_R8,
  CEQ_REF,

  // Conversions: d <- conv(a).
  CV_I4_I8, CV_I4_R4, CV_I4_R8,
  CV_I8_I4, CV_I8_R4, CV_I8_R8,
  CV_R4_I4, CV_R4_I8, CV_R4_R8,
  CV_R8_I4, CV_R8_I8, CV_R8_R4,
  SEXT8, ZEXT8, SEXT16, ZEXT16,  // on i32 in d <- a

  // Control flow. Branch target is in `d`.
  JMP,      // forward jump
  JMPB,     // backward jump (safepoint poll)
  JZ_I4, JNZ_I4, JZ_I8, JNZ_I8, JZ_REF, JNZ_REF,  // test a
  // Fused compare-and-branch: test (a cmp b).
  JEQ_I4, JNE_I4, JLT_I4, JLE_I4, JGT_I4, JGE_I4,
  JEQ_I8, JNE_I8, JLT_I8, JLE_I8, JGT_I8, JGE_I8,
  JEQ_R4, JNE_R4, JLT_R4, JLE_R4, JGT_R4, JGE_R4,
  JEQ_R8, JNE_R8, JLT_R8, JLE_R8, JGT_R8, JGE_R8,
  JEQ_REF, JNE_REF,
  // Immediate compare-and-branch on i32: test (a cmp imm).
  JEQI_I4, JNEI_I4, JLTI_I4, JLEI_I4, JGTI_I4, JGEI_I4,

  CALL_R,      // a = method id, b = args-pool index, d = dst (-1 void),
               // imm.i64 = argc                                  [gc point]
  CALLINTR_R,  // a = intrinsic id, rest as CALL_R                [gc point]
  // fast_math inlined intrinsics (no marshalling, no pending check). The
  // immediate is the vm::Intr id, NOT a function pointer: compiled bodies
  // must stay position-independent so a serialized archive restored into
  // another process resolves the routine through math1_fn/math2_fn below.
  MATH1_R8,  // d.f64 <- fn(a.f64), imm.i64 = vm::Intr id
  MATH2_R8,  // d.f64 <- fn(a.f64, b.f64), imm.i64 = vm::Intr id
  ABS_I4_R, ABS_I8_R, ABS_R4_R, ABS_R8_R,
  MAX_I4_R, MAX_I8_R, MAX_R4_R, MAX_R8_R,
  MIN_I4_R, MIN_I8_R, MIN_R4_R, MIN_R8_R,

  RET_R,  // a = src reg or -1 for void

  NEWOBJ_R,  // d <- new(a = class id)                            [alloc]
  LDFLD_R,   // d <- a.fields[b]
  STFLD_R,   // a.fields[b] <- d  (d is the SOURCE here)
  LDSFLD_R,  // d <- statics(a)[b]
  STSFLD_R,  // statics(a)[b] <- d

  NEWARR_R,  // d <- new[a], b = ValType                          [alloc]
  LDLEN_R,   // d <- a.length
  CHK_BOUNDS,  // explicit range-check node (a = array, b = index); the
               // translation emits one before every unchecked access and the
               // BCE pass deletes the provably-redundant ones, exactly like
               // the range-check IR nodes of production JITs
  JLT_LEN,     // fused loop guard: if (a < b.length) jump (d = target);
               // produced by BCE when the in-loop ldlen feeds only the guard
  // Checked element access (a = array, b = index).
  LDELEM_I4, LDELEM_I8, LDELEM_R4, LDELEM_R8, LDELEM_REF,
  STELEM_I4, STELEM_I8, STELEM_R4, STELEM_R8, STELEM_REF,  // d = source
  // Unchecked forms produced by bounds-check elimination.
  LDELEMU_I4, LDELEMU_I8, LDELEMU_R4, LDELEMU_R8, LDELEMU_REF,
  STELEMU_I4, STELEMU_I8, STELEMU_R4, STELEMU_R8, STELEMU_REF,

  NEWMAT_R,   // d <- new[a, b], imm = ValType                    [alloc]
  // Rank-2 access: a = matrix, b = row, imm low 32 = col reg,
  // imm high 32 = source reg (stores). Fast = direct row-major indexing.
  LDEL2_I4, LDEL2_I8, LDEL2_R4, LDEL2_R8, LDEL2_REF,
  STEL2_I4, STEL2_I8, STEL2_R4, STEL2_R8, STEL2_REF,
  // Generic (profile without fast_multidim): extra helper-call indirection.
  LDEL2_SLOW, STEL2_SLOW,  // imm low 32 = col reg, high = src; b2 in `b`
  LDMROWS_R, LDMCOLS_R,

  BOX_R,    // d <- box(a), b = ValType                           [alloc]
  UNBOX_R,  // d <- unbox(a), b = ValType

  THROW_R,       // a = exception reg
  LEAVE_R,       // a = IL target pc (resolved via unwind machine)
  ENDFINALLY_R,
  SAFEPOINT,

  CARDMARK,  // card-mark a (object a ref field/element was just stored into);
             // emitted after every ref STFLD/STELEM so the generational GC
             // sees old->young edges; CSE drops repeats between GC points

  VECLOOP,  // vectorized loop superinstruction; a = index into
            // RCode::vec_loops. Placed in the preheader of the scalar loop
            // it replaces: when its runtime span guards pass it runs the
            // whole kernel, advances the induction variable to the limit
            // (so the retained scalar loop exits immediately) and polls one
            // safepoint; when they fail it is a no-op and the scalar loop
            // runs unchanged. Never a branch, never an OSR header.

  COUNT_,
};

/// One register instruction. `flags` bit 0 = pinned (exempt from
/// optimization); `il_pc` maps back to the stack IL for exception ranges and
/// the disassembly study (Tables 5-8).
struct RInstr {
  ROp op = ROp::NOP_R;
  std::uint8_t flags = 0;
  std::int32_t d = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t il_pc = -1;
  union {
    std::int64_t i64;
    double f64;
  } imm{};

  static constexpr std::uint8_t kPinned = 1;
  bool pinned() const { return (flags & kPinned) != 0; }
};

/// A compiled method.
struct RCode {
  /// Deopt side table: one record per backward branch (JMPB and the fused
  /// conditional back edges), sorted by `rpc`. At the recorded register pc
  /// the register file holds the IL frame state of the branch TARGET (the
  /// loop header): registers [0, slot_regs) mirror the locals/arguments and
  /// `stack_regs` (bottom-up) hold the header's entry operand stack — the
  /// invariant DCE maintains by keeping slot registers and successor-entry
  /// stack registers live across block boundaries. Empty when the body has
  /// no recoverable back edges; deopt is then disabled for the whole body.
  struct DeoptPoint {
    std::int32_t rpc = -1;    // register pc of the backward branch
    std::int32_t il_pc = -1;  // IL pc of the loop header (branch target)
    std::vector<std::int32_t> stack_regs;  // header entry stack, bottom-up
  };
  std::vector<DeoptPoint> deopt_points;

  /// Vector-loop side table: one record per VECLOOP superinstruction
  /// (indexed by the instruction's `a` field). All fields are register ids
  /// except the kernel id and the spilled scalar immediates. `limit` is the
  /// trip bound register, or -1 when the bound is `limit_arr.length`
  /// (BCE-fused JLT_LEN loops). `s0_reg`/`s1_reg` name scalar operand
  /// registers, or -1 when the operand is the constant in `s0_bits`/
  /// `s1_bits` (raw slot bits, i32 or f64 per kernel).
  struct VecLoop {
    std::int32_t kernel = -1;     // veckernels::VecKernel
    std::int32_t ivar = -1;       // induction variable register
    std::int32_t limit = -1;      // trip bound register (-1: use limit_arr)
    std::int32_t limit_arr = -1;  // array whose length bounds the loop
    std::int32_t arr0 = -1;       // kernel span registers (meaning per
    std::int32_t arr1 = -1;       // kernel; see veckernels.hpp)
    std::int32_t arr2 = -1;
    std::int32_t acc = -1;        // reduction accumulator register
    std::int32_t s0_reg = -1;
    std::int32_t s1_reg = -1;
    std::int64_t s0_bits = 0;
    std::int64_t s1_bits = 0;
  };
  std::vector<VecLoop> vec_loops;

  /// Always points at `body` below — never into the module that happened to
  /// drive the compile. Compiled code must be position-independent: an RCode
  /// published into a CodeArchive outlives (and precedes) any particular VM,
  /// so it carries its own verified copy of the method it implements.
  const MethodDef* method = nullptr;
  /// The owned body `method` points at: the module method's verified state
  /// as of compilation, or — when the inlining pass expanded call sites —
  /// the expanded, re-verified copy (same name/id/signature), so handler
  /// tables, stack maps and il_pc ranges always describe the code that was
  /// actually compiled.
  std::shared_ptr<const MethodDef> body;
  std::vector<RInstr> code;
  std::vector<std::int32_t> args_pool;  // flattened call argument registers
  std::vector<std::int32_t> ref_regs;   // ref-typed registers (GC roots)
  std::vector<ValType> reg_types;       // per-register static type
  std::vector<std::int32_t> il2rpc;     // IL pc -> first register pc
  std::vector<std::int32_t> handler_exc_reg;  // per handler: catch dest reg
  std::int32_t num_regs = 0;

  /// Registers = [slots][stack depth x type][scratch].
  std::int32_t slot_regs = 0;
};

/// Resolution of the fast-math superinstruction immediates: the native
/// routine for a vm::Intr id, or nullptr when the id is not a one-argument
/// (respectively two-argument) pure-math entry. Shared by the emitter, the
/// dispatch loop and the archive deserializer (which validates restored
/// immediates through the same tables).
using Math1Fn = double (*)(double);
using Math2Fn = double (*)(double, double);
Math1Fn math1_fn(std::int32_t intr_id);
Math2Fn math2_fn(std::int32_t intr_id);

/// One-line disassembly of a register instruction (jit_explorer, tests).
std::string to_string(const RInstr& in);

/// Side-table-aware variant: VECLOOP renders its kernel name, span and
/// scalar operands from `code.vec_loops` (other ops defer to the one-line
/// form). Used by the full disassembly and the per-pass trace listings.
std::string to_string(const RInstr& in, const RCode& code);

/// Full method disassembly.
std::string to_string(const RCode& code);

}  // namespace hpcnet::vm::regir
