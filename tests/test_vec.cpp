// Vector lowering (DESIGN.md §12): golden shape-recognition tests over the
// register IR, near-miss negatives (loops that look vectorizable but are
// not), bit-identity of every VECLOOP kernel against the scalar tiers
// (including NaN/Inf propagation and i32 wrap-around), guard-failure
// fallback onto the retained scalar loop, warm-up under the tiered
// pipeline, and deterministic fuel kills through the execution service.
//
// CI also builds and runs this binary with -DHPCNET_SIMD=OFF, so the SIMD
// strip-mined map kernels and the portable scalar fallback are both held to
// the same golden results.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "vm/regcompile.hpp"
#include "vm/service/service.hpp"
#include "vm/veckernels.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;
using service::ExecutionService;
using service::JobOutcome;
using service::JobResult;

std::size_t count_op(const RCode& rc, ROp op) {
  return static_cast<std::size_t>(
      std::count_if(rc.code.begin(), rc.code.end(),
                    [&](const RInstr& in) { return in.op == op; }));
}

EngineFlags vec_flags() { return profiles::vec(profiles::clr11()).flags; }

RCode compile_with(VirtualMachine& vm, std::int32_t m,
                   const EngineFlags& flags) {
  verify(vm.module(), m);
  return regir::compile(vm.module(), vm.module().method(m), flags);
}

/// Rotated ldlen-bounded loop (the BCE/JLT_LEN form): a[i] = a[i] * 1.5,
/// or 1.5 * a[i] when `swap` (the commutative match).
std::int32_t build_map_scale_f64(Module& mod, bool swap) {
  ILBuilder b(mod, swap ? "v.scale_sw" : "v.scale",
              {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(a).ldloc(i);
  if (swap) {
    b.ldc_r8(1.5).ldloc(a).ldloc(i).ldelem(ValType::F64).mul();
  } else {
    b.ldloc(a).ldloc(i).ldelem(ValType::F64).ldc_r8(1.5).mul();
  }
  b.stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(a).ldlen().blt(top);
  b.ldc_r8(0.0).ret();
  return b.finish();
}

/// y[i] = y[i] + s * x[i] with the scale passed as an argument (register
/// scalar operand, not an immediate).
std::int32_t build_daxpy_f64(Module& mod) {
  ILBuilder b(mod, "v.daxpy", {{ValType::I32, ValType::F64}, ValType::F64});
  const auto y = b.add_local(ValType::Ref);
  const auto x = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(y);
  b.ldarg(0).newarr(ValType::F64).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(y).ldloc(i);
  b.ldloc(y).ldloc(i).ldelem(ValType::F64);
  b.ldarg(1).ldloc(x).ldloc(i).ldelem(ValType::F64).mul();
  b.add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(y).ldlen().blt(top);
  b.ldc_r8(0.0).ret();
  return b.finish();
}

/// Top-tested (while-shaped, Form B) reduction with a variable bound:
/// acc += a[i] for i in [0, n).
std::int32_t build_sum_f64(Module& mod) {
  ILBuilder b(mod, "v.sum", {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto head = b.new_label();
  auto done = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(i);
  b.bind(head);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(acc).ldloc(a).ldloc(i).ldelem(ValType::F64).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(head);
  b.bind(done);
  b.ldloc(acc).ret();
  return b.finish();
}

std::int32_t build_dot_f64(Module& mod) {
  ILBuilder b(mod, "v.dot", {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto c = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldarg(0).newarr(ValType::F64).stloc(c);
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc);
  b.ldloc(a).ldloc(i).ldelem(ValType::F64);
  b.ldloc(c).ldloc(i).ldelem(ValType::F64).mul();
  b.add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(a).ldlen().blt(top);
  b.ldloc(acc).ret();
  return b.finish();
}

/// The sparse-matmul inner loop: acc += x[col[k]] * val[k].
std::int32_t build_gather_dot(Module& mod) {
  ILBuilder b(mod, "v.gather", {{ValType::I32}, ValType::F64});
  const auto x = b.add_local(ValType::Ref);
  const auto col = b.add_local(ValType::Ref);
  const auto val = b.add_local(ValType::Ref);
  const auto k = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(x);
  b.ldarg(0).newarr(ValType::I32).stloc(col);
  b.ldarg(0).newarr(ValType::F64).stloc(val);
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(k).br(cond);
  b.bind(top);
  b.ldloc(acc);
  b.ldloc(x).ldloc(col).ldloc(k).ldelem(ValType::I32).ldelem(ValType::F64);
  b.ldloc(val).ldloc(k).ldelem(ValType::F64).mul();
  b.add().stloc(acc);
  b.ldloc(k).ldc_i4(1).add().stloc(k);
  b.bind(cond);
  b.ldloc(k).ldloc(val).ldlen().blt(top);
  b.ldloc(acc).ret();
  return b.finish();
}

/// One SOR sweep over g with fixed neighbour rows (the sm_kernels j-loop
/// shape, Form B) followed by a sum reduction of the result.
std::int32_t build_sor_sweep(Module& mod) {
  ILBuilder b(mod, "v.sor", {{ValType::I32}, ValType::F64});
  const auto g = b.add_local(ValType::Ref);
  const auto up = b.add_local(ValType::Ref);
  const auto dn = b.add_local(ValType::Ref);
  const auto j = b.add_local(ValType::I32);
  const auto nm1 = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto fcond = b.new_label();
  auto ftop = b.new_label();
  auto jtop = b.new_label();
  auto jend = b.new_label();
  auto shead = b.new_label();
  auto sdone = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(g);
  b.ldarg(0).newarr(ValType::F64).stloc(up);
  b.ldarg(0).newarr(ValType::F64).stloc(dn);
  // Fill: g[j]=j*0.125, up[j]=j*0.25, dn[j]=j*0.5 (conv keeps this scalar).
  b.ldc_i4(0).stloc(j).br(fcond);
  b.bind(ftop);
  b.ldloc(g).ldloc(j).ldloc(j).conv_r8().ldc_r8(0.125).mul()
      .stelem(ValType::F64);
  b.ldloc(up).ldloc(j).ldloc(j).conv_r8().ldc_r8(0.25).mul()
      .stelem(ValType::F64);
  b.ldloc(dn).ldloc(j).ldloc(j).conv_r8().ldc_r8(0.5).mul()
      .stelem(ValType::F64);
  b.ldloc(j).ldc_i4(1).add().stloc(j);
  b.bind(fcond);
  b.ldloc(j).ldloc(g).ldlen().blt(ftop);
  // The 5-point update: g[j] = 0.3125*(((up[j]+dn[j])+g[j-1])+g[j+1])
  //                            + 0.75*g[j], j in [1, n-1).
  b.ldarg(0).ldc_i4(1).sub().stloc(nm1);
  b.ldc_i4(1).stloc(j);
  b.bind(jtop);
  b.ldloc(j).ldloc(nm1).bge(jend);
  b.ldloc(g).ldloc(j);
  b.ldc_r8(0.3125);
  b.ldloc(up).ldloc(j).ldelem(ValType::F64);
  b.ldloc(dn).ldloc(j).ldelem(ValType::F64).add();
  b.ldloc(g).ldloc(j).ldc_i4(1).sub().ldelem(ValType::F64).add();
  b.ldloc(g).ldloc(j).ldc_i4(1).add().ldelem(ValType::F64).add();
  b.mul();
  b.ldc_r8(0.75).ldloc(g).ldloc(j).ldelem(ValType::F64).mul();
  b.add().stelem(ValType::F64);
  b.ldloc(j).ldc_i4(1).add().stloc(j);
  b.br(jtop);
  b.bind(jend);
  // Checksum.
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(j);
  b.bind(shead);
  b.ldloc(j).ldarg(0).bge(sdone);
  b.ldloc(acc).ldloc(g).ldloc(j).ldelem(ValType::F64).add().stloc(acc);
  b.ldloc(j).ldc_i4(1).add().stloc(j);
  b.br(shead);
  b.bind(sdone);
  b.ldloc(acc).ret();
  return b.finish();
}

/// i32 pipeline: a[i] = a[i]*s (wrapping), then acc += a[i] (wrapping).
std::int32_t build_i4_pipeline(Module& mod) {
  ILBuilder b(mod, "v.i4pipe", {{ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto l0c = b.new_label();
  auto l0 = b.new_label();
  auto l1c = b.new_label();
  auto l1 = b.new_label();
  auto l2c = b.new_label();
  auto l2 = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(a);
  // Fill with a mixing constant so the scale overflows and wraps.
  b.ldc_i4(0).stloc(i).br(l0c);
  b.bind(l0);
  b.ldloc(a).ldloc(i).ldloc(i).ldc_i4(-1640531527).mul().stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l0c);
  b.ldloc(i).ldloc(a).ldlen().blt(l0);
  // a[i] = a[i] * 100003 — wraps; must match arith.hpp semantics exactly.
  b.ldc_i4(0).stloc(i).br(l1c);
  b.bind(l1);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::I32)
      .ldc_i4(100003).mul().stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l1c);
  b.ldloc(i).ldloc(a).ldlen().blt(l1);
  // acc += a[i].
  b.ldc_i4(0).stloc(acc);
  b.ldc_i4(0).stloc(i).br(l2c);
  b.bind(l2);
  b.ldloc(acc).ldloc(a).ldloc(i).ldelem(ValType::I32).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l2c);
  b.ldloc(i).ldloc(a).ldlen().blt(l2);
  b.ldloc(acc).ret();
  return b.finish();
}

// ---- golden lowering per shape ------------------------------------------

void expect_single_kernel(const RCode& rc, std::int32_t kernel) {
  ASSERT_EQ(count_op(rc, ROp::VECLOOP), 1u);
  ASSERT_EQ(rc.vec_loops.size(), 1u);
  EXPECT_EQ(rc.vec_loops[0].kernel, kernel);
  // The disassembly names the kernel (satellite contract for jit_explorer).
  EXPECT_NE(regir::to_string(rc).find(veckernels::kernel_name(kernel)),
            std::string::npos);
}

TEST(VecLower, MapScaleBothOperandOrders) {
  VirtualMachine vm;
  const auto m1 = build_map_scale_f64(vm.module(), false);
  const auto m2 = build_map_scale_f64(vm.module(), true);
  const RCode r1 = compile_with(vm, m1, vec_flags());
  const RCode r2 = compile_with(vm, m2, vec_flags());
  expect_single_kernel(r1, veckernels::kMapScaleF64);
  expect_single_kernel(r2, veckernels::kMapScaleF64);
  // The immediate scale is carried in the side table, not a register.
  EXPECT_EQ(r1.vec_loops[0].s0_reg, -1);
  // The bound is either the array length or a hoisted length register.
  EXPECT_TRUE(r1.vec_loops[0].limit_arr >= 0 || r1.vec_loops[0].limit >= 0);
  // The scalar loop is retained as the guard-failure/deopt body.
  EXPECT_GE(count_op(r1, ROp::JLT_LEN) + count_op(r1, ROp::JLT_I4), 1u);
}

TEST(VecLower, DaxpyWithRegisterScale) {
  VirtualMachine vm;
  const auto m = build_daxpy_f64(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  expect_single_kernel(rc, veckernels::kDaxpyF64);
  EXPECT_GE(rc.vec_loops[0].s0_reg, 0);  // scale comes from an argument
}

TEST(VecLower, TopTestedSumWithVariableBound) {
  VirtualMachine vm;
  const auto m = build_sum_f64(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  expect_single_kernel(rc, veckernels::kSumF64);
  EXPECT_GE(rc.vec_loops[0].limit, 0);  // bound is a register, not a length
  EXPECT_GE(rc.vec_loops[0].acc, 0);
}

TEST(VecLower, DotProduct) {
  VirtualMachine vm;
  const auto m = build_dot_f64(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  expect_single_kernel(rc, veckernels::kDotF64);
}

TEST(VecLower, GatherDot) {
  VirtualMachine vm;
  const auto m = build_gather_dot(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  expect_single_kernel(rc, veckernels::kGatherDotF64);
}

TEST(VecLower, SorFivePointAndChecksum) {
  VirtualMachine vm;
  const auto m = build_sor_sweep(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  // The fill loop stays scalar (conv in the body); the 5-point sweep and
  // the checksum reduction both lower.
  ASSERT_EQ(rc.vec_loops.size(), 2u);
  std::vector<std::int32_t> kernels = {rc.vec_loops[0].kernel,
                                       rc.vec_loops[1].kernel};
  std::sort(kernels.begin(), kernels.end());
  EXPECT_EQ(kernels[0], veckernels::kSumF64);
  EXPECT_EQ(kernels[1], veckernels::kSor5F64);
}

TEST(VecLower, I4MapAndSum) {
  VirtualMachine vm;
  const auto m = build_i4_pipeline(vm.module());
  const RCode rc = compile_with(vm, m, vec_flags());
  // Fill (i * c, not an element-wise map) stays scalar; scale + sum lower.
  ASSERT_EQ(rc.vec_loops.size(), 2u);
  std::vector<std::int32_t> kernels = {rc.vec_loops[0].kernel,
                                       rc.vec_loops[1].kernel};
  std::sort(kernels.begin(), kernels.end());
  EXPECT_EQ(kernels[0], veckernels::kMapScaleI4);
  EXPECT_EQ(kernels[1], veckernels::kSumI4);
}

TEST(VecLower, OffByDefaultInEveryPaperProfile) {
  VirtualMachine vm;
  const auto m = build_daxpy_f64(vm.module());
  verify(vm.module(), m);
  for (const auto& p : profiles::all()) {
    if (p.tier != Tier::Optimizing) continue;
    const RCode rc =
        regir::compile(vm.module(), vm.module().method(m), p.flags);
    EXPECT_EQ(count_op(rc, ROp::VECLOOP), 0u) << p.name;
  }
}

// ---- near-miss negatives -------------------------------------------------

TEST(VecLower, CallInBodyDoesNotLower) {
  VirtualMachine vm;
  ILBuilder h(vm.module(), "v.neg_helper", {{ValType::I32}, ValType::I32});
  h.ldarg(0).ldc_i4(3).mul().ret();
  const auto hm = h.finish();
  ILBuilder b(vm.module(), "v.neg_call", {{ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(a);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::I32).call(hm)
      .stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(a).ldlen().blt(top);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  // Inlining is off in this compile so the call survives into the loop body.
  EngineFlags f = vec_flags();
  f.inline_calls = false;
  const RCode rc = compile_with(vm, m, f);
  EXPECT_EQ(count_op(rc, ROp::VECLOOP), 0u);
}

TEST(VecLower, RefElementStoreDoesNotLower) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "v.neg_ref", {{ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::Ref).stloc(a);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(a).ldloc(i).ldnull().stelem(ValType::Ref);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(a).ldlen().blt(top);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  const RCode rc = compile_with(vm, m, vec_flags());
  EXPECT_EQ(count_op(rc, ROp::VECLOOP), 0u);
}

TEST(VecLower, NonUnitStrideDoesNotLower) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "v.neg_stride", {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::F64)
      .ldc_r8(1.5).mul().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(2).add().stloc(i);  // i += 2
  b.bind(cond);
  b.ldloc(i).ldloc(a).ldlen().blt(top);
  b.ldc_r8(0.0).ret();
  const auto m = b.finish();
  const RCode rc = compile_with(vm, m, vec_flags());
  EXPECT_EQ(count_op(rc, ROp::VECLOOP), 0u);
}

TEST(VecLower, ShiftedStoreDoesNotLower) {
  VirtualMachine vm;
  // a[i+1] = a[i] * 1.5 — a loop-carried shift, not an element-wise map.
  ILBuilder b(vm.module(), "v.neg_shift", {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto bound = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldarg(0).ldc_i4(1).sub().stloc(bound);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(a).ldloc(i).ldc_i4(1).add();
  b.ldloc(a).ldloc(i).ldelem(ValType::F64).ldc_r8(1.5).mul();
  b.stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(bound).blt(top);
  b.ldc_r8(0.0).ret();
  const auto m = b.finish();
  const RCode rc = compile_with(vm, m, vec_flags());
  EXPECT_EQ(count_op(rc, ROp::VECLOOP), 0u);
}

// ---- bit-identity across tiers ------------------------------------------

/// Fill + daxpy + map-add + map-scale + dot over arrays seeded with NaN and
/// ±Inf; returns the dot accumulator. Every engine must agree on raw bits.
std::int32_t build_f64_pipeline(Module& mod) {
  ILBuilder b(mod, "v.f64pipe", {{ValType::I32}, ValType::F64});
  const auto a = b.add_local(ValType::Ref);
  const auto c = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto l0c = b.new_label();
  auto l0 = b.new_label();
  auto l1c = b.new_label();
  auto l1 = b.new_label();
  auto l2c = b.new_label();
  auto l2 = b.new_label();
  auto l3c = b.new_label();
  auto l3 = b.new_label();
  auto l4c = b.new_label();
  auto l4 = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldarg(0).newarr(ValType::F64).stloc(c);
  b.ldc_i4(0).stloc(i).br(l0c);
  b.bind(l0);
  b.ldloc(a).ldloc(i).ldloc(i).conv_r8().ldc_r8(0.5).mul().ldc_r8(-3.0)
      .add().stelem(ValType::F64);
  b.ldloc(c).ldloc(i).ldloc(i).conv_r8().ldc_r8(0.25).mul().ldc_r8(1.0)
      .add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l0c);
  b.ldloc(i).ldloc(a).ldlen().blt(l0);
  // Plant specials (callers pass n >= 8).
  b.ldloc(a).ldc_i4(3)
      .ldc_r8(std::numeric_limits<double>::quiet_NaN()).stelem(ValType::F64);
  b.ldloc(a).ldc_i4(5)
      .ldc_r8(std::numeric_limits<double>::infinity()).stelem(ValType::F64);
  b.ldloc(c).ldc_i4(6)
      .ldc_r8(-std::numeric_limits<double>::infinity()).stelem(ValType::F64);
  // daxpy: a[i] += 2.5 * c[i].
  b.ldc_i4(0).stloc(i).br(l1c);
  b.bind(l1);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::F64);
  b.ldc_r8(2.5).ldloc(c).ldloc(i).ldelem(ValType::F64).mul();
  b.add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l1c);
  b.ldloc(i).ldloc(a).ldlen().blt(l1);
  // map-add: c[i] = c[i] + a[i].
  b.ldc_i4(0).stloc(i).br(l2c);
  b.bind(l2);
  b.ldloc(c).ldloc(i).ldloc(c).ldloc(i).ldelem(ValType::F64);
  b.ldloc(a).ldloc(i).ldelem(ValType::F64).add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l2c);
  b.ldloc(i).ldloc(c).ldlen().blt(l2);
  // map-scale: a[i] = a[i] * 1.0625.
  b.ldc_i4(0).stloc(i).br(l3c);
  b.bind(l3);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::F64)
      .ldc_r8(1.0625).mul().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l3c);
  b.ldloc(i).ldloc(a).ldlen().blt(l3);
  // dot: acc += a[i] * c[i].
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(i).br(l4c);
  b.bind(l4);
  b.ldloc(acc).ldloc(a).ldloc(i).ldelem(ValType::F64);
  b.ldloc(c).ldloc(i).ldelem(ValType::F64).mul().add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(l4c);
  b.ldloc(i).ldloc(a).ldlen().blt(l4);
  b.ldloc(acc).ret();
  return b.finish();
}

/// Runs `m` on the .vec optimizing engine and checks raw bits against the
/// three scalar tiers.
void expect_vec_matches_all(VMFixture& f, std::int32_t m,
                            std::vector<Slot> args) {
  const Slot want = f.run_all(m, args);
  auto vec_engine = make_engine(f.vm, profiles::vec(profiles::clr11()));
  VMContext& ctx = f.vm.main_context();
  ctx.engine = vec_engine.get();
  const Slot got = vec_engine->invoke(ctx, m, args);
  EXPECT_EQ(got.raw, want.raw);
}

TEST(VecExec, F64PipelineBitIdenticalWithNanAndInf) {
  VMFixture f;
  const auto m = build_f64_pipeline(f.vm.module());
  expect_vec_matches_all(f, m, {Slot::from_i32(64)});
  // Odd length: exercises the SIMD tail loop.
  expect_vec_matches_all(f, m, {Slot::from_i32(67)});
}

TEST(VecExec, I4PipelineWrapsIdentically) {
  VMFixture f;
  const auto m = build_i4_pipeline(f.vm.module());
  expect_vec_matches_all(f, m, {Slot::from_i32(257)});
}

TEST(VecExec, SorSweepBitIdentical) {
  VMFixture f;
  const auto m = build_sor_sweep(f.vm.module());
  expect_vec_matches_all(f, m, {Slot::from_i32(103)});
}

TEST(VecExec, ZeroAndOneTripLoops) {
  VMFixture f;
  const auto sum = build_sum_f64(f.vm.module());
  expect_vec_matches_all(f, sum, {Slot::from_i32(0)});
  expect_vec_matches_all(f, sum, {Slot::from_i32(1)});
}

/// try { for i in [0,m): a[i] += 2*c[i] over len-n arrays } catch
/// (IndexOutOfRange) { flag = -1 }; returns flag*1000 + i. When m > n the
/// VECLOOP span guard fails and the retained scalar loop must throw at
/// exactly i == n.
std::int32_t build_guard_fail(Module& mod) {
  ILBuilder b(mod, "v.guard", {{ValType::I32, ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  const auto c = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto flag = b.add_local(ValType::I32);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  auto head = b.new_label();
  auto done = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldarg(0).newarr(ValType::F64).stloc(c);
  b.ldc_i4(0).stloc(flag);
  b.ldc_i4(0).stloc(i);
  b.bind(t0);
  b.bind(head);
  b.ldloc(i).ldarg(1).bge(done);
  b.ldloc(a).ldloc(i).ldloc(a).ldloc(i).ldelem(ValType::F64);
  b.ldc_r8(2.0).ldloc(c).ldloc(i).ldelem(ValType::F64).mul();
  b.add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(head);
  b.bind(done);
  b.leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.index_range_class());
  b.bind(h);
  b.pop().ldc_i4(-1).stloc(flag).leave(out);
  b.bind(out);
  b.ldloc(flag).ldc_i4(1000).mul().ldloc(i).add().ret();
  return b.finish();
}

TEST(VecExec, GuardFailureFallsBackToScalarLoop) {
  VMFixture f;
  const auto m = build_guard_fail(f.vm.module());
  // In-bounds: the kernel runs, i ends at the limit.
  expect_vec_matches_all(f, m, {Slot::from_i32(8), Slot::from_i32(8)});
  // Bound past the array: guard fails, scalar loop throws at i == 8.
  expect_vec_matches_all(f, m, {Slot::from_i32(8), Slot::from_i32(10)});
}

/// Gather with a poisonable index: col[2] = arg1. An out-of-range gather
/// must abandon the kernel with no partial accumulator and re-throw from
/// the scalar loop at the exact element.
std::int32_t build_gather_poison(Module& mod) {
  ILBuilder b(mod, "v.gpoison", {{ValType::I32, ValType::I32}, ValType::F64});
  const auto x = b.add_local(ValType::Ref);
  const auto col = b.add_local(ValType::Ref);
  const auto val = b.add_local(ValType::Ref);
  const auto k = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  auto fcond = b.new_label();
  auto ftop = b.new_label();
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::F64).stloc(x);
  b.ldc_i4(4).newarr(ValType::I32).stloc(col);
  b.ldc_i4(4).newarr(ValType::F64).stloc(val);
  b.ldc_i4(0).stloc(k).br(fcond);
  b.bind(ftop);
  b.ldloc(x).ldloc(k).ldloc(k).conv_r8().ldc_r8(0.75).mul()
      .stelem(ValType::F64);
  b.ldloc(k).ldc_i4(1).add().stloc(k);
  b.bind(fcond);
  b.ldloc(k).ldloc(x).ldlen().blt(ftop);
  b.ldloc(col).ldc_i4(0).ldc_i4(0).stelem(ValType::I32);
  b.ldloc(col).ldc_i4(1).ldarg(0).ldc_i4(1).sub().stelem(ValType::I32);
  b.ldloc(col).ldc_i4(2).ldarg(1).stelem(ValType::I32);
  b.ldloc(col).ldc_i4(3).ldc_i4(1).stelem(ValType::I32);
  b.ldloc(val).ldc_i4(0).ldc_r8(1.5).stelem(ValType::F64);
  b.ldloc(val).ldc_i4(1).ldc_r8(2.5).stelem(ValType::F64);
  b.ldloc(val).ldc_i4(2).ldc_r8(-0.5).stelem(ValType::F64);
  b.ldloc(val).ldc_i4(3).ldc_r8(4.0).stelem(ValType::F64);
  b.ldc_r8(0.0).stloc(acc);
  b.ldc_i4(0).stloc(k);
  b.bind(t0);
  b.bind(cond);
  b.ldloc(k).ldloc(val).ldlen().bge(out);
  b.bind(top);
  b.ldloc(acc);
  b.ldloc(x).ldloc(col).ldloc(k).ldelem(ValType::I32).ldelem(ValType::F64);
  b.ldloc(val).ldloc(k).ldelem(ValType::F64).mul();
  b.add().stloc(acc);
  b.ldloc(k).ldc_i4(1).add().stloc(k);
  b.br(cond);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.index_range_class());
  b.bind(h);
  b.pop().ldc_r8(-1.0).stloc(acc).leave(out);
  b.bind(out);
  b.ldloc(acc).ret();
  return b.finish();
}

TEST(VecExec, GatherOutOfRangeAbandonsAndRethrows) {
  VMFixture f;
  const auto m = build_gather_poison(f.vm.module());
  // Valid gather indices.
  expect_vec_matches_all(f, m, {Slot::from_i32(16), Slot::from_i32(2)});
  // col[2] out of range: the kernel abandons, the scalar loop throws.
  expect_vec_matches_all(f, m, {Slot::from_i32(16), Slot::from_i32(99)});
  expect_vec_matches_all(f, m, {Slot::from_i32(16), Slot::from_i32(-1)});
}

// ---- tiered warm-up ------------------------------------------------------

TEST(VecExec, TieredWarmupStaysBitIdentical) {
  VMFixture f;
  const auto m = build_f64_pipeline(f.vm.module());
  const Slot want = f.run_on(2, m, {Slot::from_i32(48)});
  auto engine =
      make_engine(f.vm, profiles::tiered(profiles::vec(profiles::clr11())));
  VMContext& ctx = f.vm.main_context();
  ctx.engine = engine.get();
  std::vector<Slot> args = {Slot::from_i32(48)};
  // Every invocation across the interp -> baseline -> opt(+vec) promotions
  // (including the OSR transitions mid-warm-up) must agree bit-for-bit.
  for (int round = 0; round < 80; ++round) {
    const Slot r = engine->invoke(ctx, m, args);
    EXPECT_EQ(r.raw, want.raw) << "round " << round;
  }
}

// ---- metered execution ---------------------------------------------------

/// reps outer iterations of a daxpy over 100-element arrays: the job burns
/// ~101 fuel per outer iteration whether or not the inner loop vectorizes.
std::int32_t build_metered_daxpy(Module& mod) {
  ILBuilder b(mod, "v.metered", {{ValType::I32}, ValType::F64});
  const auto y = b.add_local(ValType::Ref);
  const auto x = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto r = b.add_local(ValType::I32);
  auto ocond = b.new_label();
  auto otop = b.new_label();
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(100).newarr(ValType::F64).stloc(y);
  b.ldc_i4(100).newarr(ValType::F64).stloc(x);
  b.ldc_i4(0).stloc(r).br(ocond);
  b.bind(otop);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(y).ldloc(i).ldloc(y).ldloc(i).ldelem(ValType::F64);
  b.ldc_r8(0.5).ldloc(x).ldloc(i).ldelem(ValType::F64).mul();
  b.add().stelem(ValType::F64);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(y).ldlen().blt(top);
  b.ldloc(r).ldc_i4(1).add().stloc(r);
  b.bind(ocond);
  b.ldloc(r).ldarg(0).blt(otop);
  b.ldloc(y).ldc_i4(0).ldelem(ValType::F64).ret();
  return b.finish();
}

TEST(VecExec, FuelKillIsDeterministicAndMatchesScalar) {
  constexpr std::uint64_t kFuel = 20'000;
  std::vector<std::uint64_t> spent;
  for (const char* prof : {"clr11", "clr11.vec"}) {
    VirtualMachine vm;
    const auto m = build_metered_daxpy(vm.module());
    verify(vm.module(), m);
    ExecutionService svc(vm, profiles::by_name(prof),
                         {.workers = 1, .warm_start = nullptr});
    svc.add_tenant({.name = "a", .fuel_per_job = kFuel});
    const JobResult r1 =
        svc.submit("a", m, {Slot::from_i32(1 << 20)}).wait();
    ASSERT_EQ(r1.outcome, JobOutcome::KilledFuel) << prof;
    EXPECT_GE(r1.fuel_spent, kFuel) << prof;
    EXPECT_LT(r1.fuel_spent, kFuel + kFuelPulseBackedges) << prof;
    const JobResult r2 =
        svc.submit("a", m, {Slot::from_i32(1 << 20)}).wait();
    ASSERT_EQ(r2.outcome, JobOutcome::KilledFuel) << prof;
    EXPECT_EQ(r1.fuel_spent, r2.fuel_spent) << prof;
    spent.push_back(r1.fuel_spent);
  }
  // Vectorized fuel accounting charges whole pulses at the same boundaries
  // the scalar loop would, so the kill point is profile-independent.
  EXPECT_EQ(spent[0], spent[1]);
}

}  // namespace
}  // namespace hpcnet::test
