// Register-IR compiler: the optimization passes and profile quirks behind
// the paper's §5 findings, checked structurally (what code is emitted) and
// behaviourally (every flag combination computes the interpreter's answer).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "vm/regcompile.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;

std::size_t count_op(const RCode& rc, ROp op) {
  return static_cast<std::size_t>(
      std::count_if(rc.code.begin(), rc.code.end(),
                    [&](const RInstr& in) { return in.op == op; }));
}

/// The Table 5 division loop.
std::int32_t build_div_loop(Module& mod) {
  ILBuilder b(mod, "t_divloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(2147483647).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).ldc_i4(3).div().stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, CopyPropagationShrinksCode) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  // Each listing line is one live (non-NOP) instruction.
  std::map<std::string, std::size_t> instrs;
  regir::compile_traced(
      vm.module(), vm.module().method(m), profiles::clr11().flags,
      [&](const char* pass, const std::string& listing) {
        instrs[pass] = static_cast<std::size_t>(
            std::count(listing.begin(), listing.end(), '\n'));
      });
  ASSERT_EQ(instrs.count("translate"), 1u);
  ASSERT_EQ(instrs.count("copyprop+dce"), 1u);
  EXPECT_LT(instrs["copyprop+dce"], instrs["translate"]);
}

TEST(RegIr, Ibm131FusesImmediateDivide) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::ibm131().flags);
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 1u);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 0u);
}

TEST(RegIr, Clr11SpillsDivisorConstant) {
  // The paper's Table 6 quirk: the CLR stores the divisor in a temporary.
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 1u);   // real divide
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 0u);  // no immediate form
  // The redundant pinned constant round-trip is present.
  std::size_t pinned = 0;
  for (const RInstr& in : rc.code) {
    if (in.pinned()) ++pinned;
  }
  EXPECT_GE(pinned, 2u);
}

TEST(RegIr, FusedCompareBranchIsProfileGated) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode fused = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::clr11().flags);
  const RCode split = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::sun14().flags);
  EXPECT_GE(count_op(fused, ROp::JLT_I4), 1u);
  EXPECT_EQ(count_op(split, ROp::JLT_I4), 0u);
  EXPECT_GE(count_op(split, ROp::CLT_I4), 1u);
  EXPECT_LE(fused.code.size(), split.code.size());
}

TEST(RegIr, EnregistrationLimitSpillsToMemoryOps) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_spill", {{}, ValType::I32});
  std::vector<std::int32_t> locs;
  for (int i = 0; i < 70; ++i) locs.push_back(b.add_local(ValType::I32));
  for (int i = 0; i < 70; ++i) b.ldc_i4(i).stloc(locs[static_cast<std::size_t>(i)]);
  b.ldloc(locs[69]).ldloc(locs[68]).add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode limited = regir::compile(vm.module(), vm.module().method(m),
                                       profiles::clr11().flags);  // limit 64
  const RCode unlimited = regir::compile(vm.module(), vm.module().method(m),
                                         profiles::ibm131().flags);
  EXPECT_GT(count_op(limited, ROp::MEMLD) + count_op(limited, ROp::MEMST), 0u);
  EXPECT_EQ(count_op(unlimited, ROp::MEMLD) + count_op(unlimited, ROp::MEMST),
            0u);
}

TEST(RegIr, BceRemovesRangeChecksOnlyWhenEnabled) {
  VirtualMachine vm;
  // for (i = 0; i < a.Length; i++) a[i] = i;
  ILBuilder b(vm.module(), "t_bce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);

  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EngineFlags off_flags = profiles::clr11().flags;
  off_flags.bounds_check_elim = false;
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   off_flags);
  // With BCE the in-loop store's range check is gone and the guard fused.
  EXPECT_LT(count_op(on, ROp::CHK_BOUNDS), count_op(off, ROp::CHK_BOUNDS));
  EXPECT_EQ(count_op(on, ROp::JLT_LEN), 1u);
  EXPECT_EQ(count_op(off, ROp::JLT_LEN), 0u);
}

TEST(RegIr, BceDoesNotFireOnVariableBound) {
  VirtualMachine vm;
  // Same loop but bounded by a separate local: checks must remain.
  ILBuilder b(vm.module(), "t_nobce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto n = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).stloc(n);
  b.ldloc(n).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(n).blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::CHK_BOUNDS), 2u);  // in-loop store + final load
  EXPECT_EQ(count_op(rc, ROp::JLT_LEN), 0u);
}

TEST(RegIr, RefRegistersAreExactlyTheRefTyped) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_refs", {{ValType::Ref}, ValType::I32});
  const auto l = b.add_local(ValType::Ref);
  b.ldarg(0).stloc(l);
  b.ldloc(l).ldlen().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  for (std::int32_t r : rc.ref_regs) {
    EXPECT_EQ(rc.reg_types[static_cast<std::size_t>(r)], ValType::Ref);
  }
  std::size_t ref_typed = 0;
  for (ValType t : rc.reg_types) {
    if (t == ValType::Ref) ++ref_typed;
  }
  EXPECT_EQ(rc.ref_regs.size(), ref_typed);
}

TEST(RegIr, DisassemblyIsNonEmptyAndNamed) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  const std::string text = regir::to_string(rc);
  EXPECT_NE(text.find("t_divloop"), std::string::npos);
  EXPECT_NE(text.find("div.i4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Inlining / CSE: the structural effects the §5 disassembly study
// would show for the pass mixes of DESIGN.md §5.

/// Caller looping `x = sq(x)` over a one-expression callee.
std::int32_t build_call_loop(Module& mod, std::int32_t* callee_out) {
  ILBuilder sq(mod, "t_sq", {{ValType::I32}, ValType::I32});
  sq.ldarg(0).ldarg(0).mul().ldc_i4(1).add().ret();
  const auto sq_m = sq.finish();
  if (callee_out != nullptr) *callee_out = sq_m;
  ILBuilder b(mod, "t_callloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(3).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).call(sq_m).stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, InliningRemovesCallSites) {
  VirtualMachine vm;
  const auto m = build_call_loop(vm.module(), nullptr);
  verify(vm.module(), m);
  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);  // inline_calls
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   profiles::sun14().flags);  // no inlining
  EXPECT_EQ(count_op(on, ROp::CALL_R), 0u);
  EXPECT_EQ(count_op(off, ROp::CALL_R), 1u);
  // The callee body is spliced in: the multiply now appears in the caller.
  EXPECT_GE(count_op(on, ROp::MUL_I4), 1u);
  // Every RCode owns its body; only the inlined one was actually expanded.
  ASSERT_NE(on.body, nullptr);
  ASSERT_NE(off.body, nullptr);
  EXPECT_GT(on.body->il_size(), vm.module().method(m).il_size());
  EXPECT_EQ(off.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, InliningRespectsSizeBudget) {
  VirtualMachine vm;
  // A callee bigger than inline_max_il must stay a call.
  ILBuilder big(vm.module(), "t_big", {{ValType::I32}, ValType::I32});
  big.ldarg(0);
  for (int i = 0; i < 40; ++i) big.ldc_i4(i).add();
  big.ret();
  const auto big_m = big.finish();
  ILBuilder b(vm.module(), "t_bigcall", {{ValType::I32}, ValType::I32});
  b.ldarg(0).call(big_m).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags f = profiles::clr11().flags;
  f.inline_max_il = 24;
  const RCode rc = regir::compile(vm.module(), vm.module().method(m), f);
  EXPECT_EQ(count_op(rc, ROp::CALL_R), 1u);
  ASSERT_NE(rc.body, nullptr);
  EXPECT_EQ(rc.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, RecursiveInlineIsBoundedByDepth) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto fib_id = static_cast<std::int32_t>(mod.method_count());
  ILBuilder b(mod, "t_fib", {{ValType::I32}, ValType::I32});
  auto rec = b.new_label();
  b.ldarg(0).ldc_i4(2).bge(rec);
  b.ldarg(0).ret();
  b.bind(rec);
  b.ldarg(0).ldc_i4(1).sub().call(fib_id);
  b.ldarg(0).ldc_i4(2).sub().call(fib_id);
  b.add().ret();
  const auto m = b.finish();
  ASSERT_EQ(m, fib_id);
  verify(mod, m);
  const RCode rc = regir::compile(mod, mod.method(m), profiles::clr11().flags);
  // One level unrolled per round (kInlineDepth rounds): calls remain (the
  // recursion cannot disappear), but the body grew past the original and
  // stays bounded.
  EXPECT_GE(count_op(rc, ROp::CALL_R), 2u);
  EXPECT_LE(rc.code.size(),
            static_cast<std::size_t>(regir::kInlineTotalIl) * 4u);
}

TEST(RegIr, CseEliminatesDuplicateSubexpressions) {
  VirtualMachine vm;
  // x = (x*x + 3) ^ ((x*x + 3) >> 1): two mul/addi pairs fold to one.
  ILBuilder b(vm.module(), "t_cse", {{ValType::I32}, ValType::I32});
  const auto x = b.add_local(ValType::I32);
  b.ldarg(0).stloc(x);
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add();
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add().ldc_i4(1).shr();
  b.xor_().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_EQ(count_op(a, ROp::MUL_I4), 1u);
  EXPECT_EQ(count_op(c, ROp::MUL_I4), 2u);
  EXPECT_LT(count_op(a, ROp::ADDI_I4), count_op(c, ROp::ADDI_I4));
}

TEST(RegIr, CseDedupsRepeatedElementLoads) {
  VirtualMachine vm;
  // a[0] + a[0]: one checked load feeds both uses under CSE.
  ILBuilder b(vm.module(), "t_cseelem", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  on.bounds_check_elim = false;  // isolate CSE's CHK_BOUNDS dedup
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_LT(count_op(a, ROp::CHK_BOUNDS), count_op(c, ROp::CHK_BOUNDS));
  EXPECT_LT(count_op(a, ROp::LDELEM_I4) + count_op(a, ROp::LDELEMU_I4),
            count_op(c, ROp::LDELEM_I4) + count_op(c, ROp::LDELEMU_I4));
}

// ---------------------------------------------------------------------------
// Behavioural equivalence: every optimizing flag combination must compute
// exactly what the interpreter computes, over a program mixing arithmetic,
// arrays, calls and branches.

struct FlagCase {
  const char* name;
  EngineFlags flags;
};

std::vector<FlagCase> flag_matrix() {
  std::vector<FlagCase> cases;
  const EngineFlags base = profiles::clr11().flags;
  auto add = [&](const char* name, auto mutate) {
    EngineFlags f = base;
    mutate(f);
    cases.push_back({name, f});
  };
  add("all_on", [](EngineFlags&) {});
  add("no_fusion", [](EngineFlags& f) { f.fuse_cmp_branch = false; });
  add("no_bce", [](EngineFlags& f) { f.bounds_check_elim = false; });
  add("divfuse", [](EngineFlags& f) {
    f.div_imm_fusion = true;
    f.redundant_const_store = false;
  });
  add("limit1", [](EngineFlags& f) { f.enregister_limit = 1; });
  add("limit0_slow_all", [](EngineFlags& f) {
    f.enregister_limit = 0;
    f.fuse_cmp_branch = false;
    f.bounds_check_elim = false;
    f.fast_multidim = false;
    f.fast_math = false;
    f.inline_calls = false;
    f.cse = false;
  });
  add("no_inline", [](EngineFlags& f) { f.inline_calls = false; });
  add("no_cse", [](EngineFlags& f) { f.cse = false; });
  add("vec", [](EngineFlags& f) { f.vectorize = true; });
  add("vec_no_cse", [](EngineFlags& f) {
    f.vectorize = true;
    f.cse = false;
  });
  return cases;
}

class RegIrFlags : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegIrFlags, EveryFlagComboMatchesInterpreter) {
  const FlagCase fc = flag_matrix()[GetParam()];
  VMFixture f;
  Module& mod = f.vm.module();
  // mix(n): arrays, division by constants, shifts, compares, a call.
  ILBuilder helper(mod, "flags_helper", {{ValType::I32}, ValType::I32});
  helper.ldarg(0).ldc_i4(7).mul().ldc_i4(3).div().ret();
  const auto hm = helper.finish();

  ILBuilder b(mod, "flags_mix", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).ldc_i4(5).mul().call(hm).stelem(ValType::I32);
  b.ldloc(acc).ldloc(arr).ldloc(i).ldelem(ValType::I32).add()
      .ldc_i4(3).shl().ldc_i4(2).shr().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(acc).ret();
  const auto m = b.finish();
  verify(mod, m);

  // Reference result from the interpreter tier.
  const Slot want = f.run_on(2, m, {Slot::from_i32(50)});

  EngineProfile p;
  p.name = std::string("flags.") + fc.name;
  p.tier = Tier::Optimizing;
  p.flags = fc.flags;
  auto engine = make_engine(f.vm, p);
  VMContext& ctx = f.vm.main_context();
  Slot arg = Slot::from_i32(50);
  const Slot got = engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(got.raw, want.raw) << fc.name;

  // Tiered row: same flags under hotness promotion. Every invocation must be
  // bit-identical to the single-tier answer no matter which tier the method
  // (or its callee) happens to run on — including the ones that straddle the
  // interp->baseline and baseline->opt transitions.
  EngineProfile tp = profiles::tiered(p);
  auto tiered_engine = make_engine(f.vm, tp);
  for (int round = 0; round < 80; ++round) {
    const Slot r = tiered_engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(r.raw, want.raw) << fc.name << " tiered round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, RegIrFlags,
                         ::testing::Range<std::size_t>(0, 10));

}  // namespace
}  // namespace hpcnet::test
