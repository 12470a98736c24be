// End-to-end validation of the CIL benchmark programs: every program runs
// on every engine profile and must produce the same result, and where a
// native twin exists the result must match it bit-for-bit (checksums) or to
// 1e-9 relative (floating point) — the paper's cross-runtime validation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "cil/jg.hpp"
#include "cil/micro.hpp"
#include "cil/mt.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "kernels/jgf.hpp"
#include "kernels/scimark.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace hpcnet::test {
namespace {

using namespace hpcnet;
using namespace hpcnet::cil;
using vm::Slot;
using vm::ValType;

class CilSuite : public ::testing::Test {
 protected:
  BenchContext bc;

  /// Runs `method(args)` on every engine, requiring identical raw results.
  Slot run_all(std::int32_t method, std::vector<Slot> args) {
    Slot first;
    bool have = false;
    for (auto& e : bc.engines()) {
      const Slot r = bc.invoke(*e, method, args);
      if (!have) {
        first = r;
        have = true;
      } else {
        EXPECT_EQ(first.raw, r.raw)
            << e->name() << " disagrees on "
            << bc.vm().module().method(method).name;
      }
    }
    return first;
  }
};

// ---------------------------------------------------------------------------
// SciMark kernels (Graphs 9-11 inputs).

TEST_F(CilSuite, ScimarkValidatesOnEveryEngine) {
  const auto sizes = ScimarkSizes::test_model();
  for (auto& e : bc.engines()) {
    // run_scimark_cil throws on checksum mismatch with the native kernels.
    const ScimarkResult r = run_scimark_cil(bc.vm(), *e, sizes, true);
    ASSERT_EQ(r.kernels.size(), 5u) << e->name();
    for (const auto& k : r.kernels) {
      EXPECT_TRUE(k.validated) << e->name() << "/" << k.name;
      EXPECT_GT(k.mflops, 0) << e->name() << "/" << k.name;
    }
  }
}

TEST_F(CilSuite, MonteCarloMatchesNativePi) {
  const auto mc = build_sm_montecarlo(bc.vm());
  const Slot r = run_all(mc, {Slot::from_i32(50000)});
  EXPECT_DOUBLE_EQ(r.f64, kernels::montecarlo::integrate(50000));
}

TEST_F(CilSuite, FftMatchesNativeChecksumAtSeveralSizes) {
  const auto fft = build_sm_fft(bc.vm());
  for (int n : {16, 128, 512}) {
    const Slot r = run_all(fft, {Slot::from_i32(n), Slot::from_i32(1)});
    EXPECT_NEAR(r.f64, kernels::fft::roundtrip_checksum(n, 1), 1e-12)
        << "n=" << n;
  }
}

TEST_F(CilSuite, SorMatchesNative) {
  const auto sor = build_sm_sor(bc.vm());
  const Slot r = run_all(sor, {Slot::from_i32(24), Slot::from_i32(5)});
  EXPECT_DOUBLE_EQ(r.f64, kernels::sor::checksum(24, 5));
}

TEST_F(CilSuite, SparseMatchesNative) {
  const auto sp = build_sm_sparse(bc.vm());
  const Slot r = run_all(
      sp, {Slot::from_i32(40), Slot::from_i32(200), Slot::from_i32(3)});
  EXPECT_NEAR(r.f64, kernels::sparse::checksum(40, 200, 3), 1e-10);
}

TEST_F(CilSuite, LuMatchesNative) {
  const auto lu = build_sm_lu(bc.vm());
  const Slot r = run_all(lu, {Slot::from_i32(20)});
  EXPECT_DOUBLE_EQ(r.f64, kernels::lu::checksum(20));
}

// ---------------------------------------------------------------------------
// JGF section 2/3 kernels.

TEST_F(CilSuite, FibMatchesNative) {
  const auto fib = build_jg_fib(bc.vm());
  EXPECT_EQ(run_all(fib, {Slot::from_i32(18)}).i64,
            kernels::fib::compute(18));
}

TEST_F(CilSuite, SieveMatchesNative) {
  const auto sieve = build_jg_sieve(bc.vm());
  EXPECT_EQ(run_all(sieve, {Slot::from_i32(10000)}).i32,
            kernels::sieve::count_primes(10000));
  EXPECT_EQ(run_all(sieve, {Slot::from_i32(1)}).i32, 0);
  EXPECT_EQ(run_all(sieve, {Slot::from_i32(2)}).i32, 1);
}

TEST_F(CilSuite, HanoiMatchesNative) {
  const auto hanoi = build_jg_hanoi(bc.vm());
  EXPECT_EQ(run_all(hanoi, {Slot::from_i32(12)}).i64,
            kernels::hanoi::solve(12));
}

TEST_F(CilSuite, HeapSortMatchesNativeChecksum) {
  const auto hs = build_jg_heapsort(bc.vm());
  EXPECT_EQ(run_all(hs, {Slot::from_i32(2000)}).i64,
            kernels::heapsort::run(2000));
}

TEST_F(CilSuite, CryptMatchesNativeChecksum) {
  const auto cr = build_jg_crypt(bc.vm());
  for (int n : {64, 1024, 4096}) {
    const std::int64_t got = run_all(cr, {Slot::from_i32(n)}).i64;
    EXPECT_NE(got, -1) << "round trip failed, n=" << n;
    EXPECT_EQ(got, kernels::crypt::run(n)) << n;
  }
}

// ---------------------------------------------------------------------------
// Micro benchmarks: engines must agree on results (the computation part).

TEST_F(CilSuite, ArithProgramsAgreeAcrossEngines) {
  for (auto build : {build_arith_add_i32, build_arith_mul_i32,
                     build_arith_div_i32, build_arith_add_i64,
                     build_arith_mul_i64, build_arith_div_i64,
                     build_arith_add_f32, build_arith_mul_f32,
                     build_arith_div_f32, build_arith_add_f64,
                     build_arith_mul_f64, build_arith_div_f64}) {
    const auto m = build(bc.vm());
    run_all(m, {Slot::from_i32(1000)});
  }
}

TEST_F(CilSuite, LoopProgramsCountCorrectly) {
  EXPECT_EQ(run_all(build_loop_for(bc.vm()), {Slot::from_i32(12345)}).i32,
            12345);
  EXPECT_EQ(
      run_all(build_loop_reverse_for(bc.vm()), {Slot::from_i32(777)}).i32, 0);
  EXPECT_EQ(run_all(build_loop_while(bc.vm()), {Slot::from_i32(999)}).i32,
            999);
}

TEST_F(CilSuite, ExceptionProgramsCatchEveryIteration) {
  EXPECT_EQ(
      run_all(build_exception_throw(bc.vm()), {Slot::from_i32(500)}).i32, 500);
  EXPECT_EQ(run_all(build_exception_new(bc.vm()), {Slot::from_i32(300)}).i32,
            300);
  EXPECT_EQ(
      run_all(build_exception_method(bc.vm()), {Slot::from_i32(200)}).i32,
      200);
}

TEST_F(CilSuite, MathProgramsAgreeAcrossEngines) {
  // Every Math routine the paper plots in Graphs 6-8.
  for (std::int32_t id = vm::I_ABS_I4; id <= vm::I_ROUND_R8; ++id) {
    const auto m = build_math_call(bc.vm(), id);
    run_all(m, {Slot::from_i32(512)});
  }
}

TEST_F(CilSuite, AssignProgramsAgree) {
  for (auto build : {build_assign_local, build_assign_instance,
                     build_assign_static, build_assign_array}) {
    run_all(build(bc.vm()), {Slot::from_i32(640)});
  }
}

TEST_F(CilSuite, CastProgramsAgree) {
  for (auto build : {build_cast_i32_i64, build_cast_i32_f32,
                     build_cast_i32_f64, build_cast_f32_f64,
                     build_cast_i64_f64}) {
    run_all(build(bc.vm()), {Slot::from_i32(512)});
  }
}

TEST_F(CilSuite, CreateProgramsAgree) {
  run_all(build_create_object(bc.vm()), {Slot::from_i32(4000)});
  for (int len : {1, 8, 128}) {
    run_all(build_create_array(bc.vm(), len), {Slot::from_i32(1000)});
  }
}

TEST_F(CilSuite, MethodProgramsAgree) {
  for (auto build : {build_method_static, build_method_static_args,
                     build_method_instance, build_method_synchronized,
                     build_method_intrinsic}) {
    run_all(build(bc.vm()), {Slot::from_i32(2000)});
  }
}

TEST_F(CilSuite, SerialRoundTripPreservesLength) {
  const auto m = build_serial_roundtrip(bc.vm());
  EXPECT_EQ(run_all(m, {Slot::from_i32(50)}).i32, 50);
  EXPECT_EQ(run_all(m, {Slot::from_i32(1)}).i32, 1);
  EXPECT_EQ(run_all(m, {Slot::from_i32(0)}).i32, 0);
}

TEST_F(CilSuite, MatrixProgramsAgree) {
  const std::vector<Slot> args = {Slot::from_i32(3), Slot::from_i32(12)};
  EXPECT_EQ(run_all(build_matrix_multidim_f64(bc.vm()), args).i32, 2);
  EXPECT_EQ(run_all(build_matrix_jagged_f64(bc.vm()), args).i32, 2);
  EXPECT_EQ(run_all(build_matrix_multidim_ref(bc.vm()), args).i32, 1);
  EXPECT_EQ(run_all(build_matrix_jagged_ref(bc.vm()), args).i32, 1);
}

TEST_F(CilSuite, BoxingProgramsAgree) {
  run_all(build_boxing_i32(bc.vm()), {Slot::from_i32(3000)});
  run_all(build_boxing_f64(bc.vm()), {Slot::from_i32(3000)});
}

TEST_F(CilSuite, LockProgramAgrees) {
  EXPECT_EQ(
      run_all(build_lock_uncontended(bc.vm()), {Slot::from_i32(5000)}).i32,
      5000);
}

// ---------------------------------------------------------------------------
// Multithreaded programs (Table 2). Run per-engine (threads are real).

TEST_F(CilSuite, ForkJoinRunsAllThreads) {
  const auto m = build_mt_forkjoin(bc.vm());
  for (auto& e : bc.engines()) {
    EXPECT_EQ(bc.invoke(*e, m, {Slot::from_i32(4)}).i32, 4) << e->name();
  }
}

TEST_F(CilSuite, SyncCounterIsExact) {
  const auto m = build_mt_sync(bc.vm());
  for (auto& e : bc.engines()) {
    EXPECT_EQ(
        bc.invoke(*e, m, {Slot::from_i32(4), Slot::from_i32(250)}).i32,
        1000)
        << e->name();
  }
}

TEST_F(CilSuite, SimpleBarrierCompletesAllRounds) {
  const auto m = build_mt_barrier_simple(bc.vm());
  for (auto& e : bc.engines()) {
    EXPECT_EQ(bc.invoke(*e, m, {Slot::from_i32(4), Slot::from_i32(50)}).i32,
              50)
        << e->name();
  }
}

TEST_F(CilSuite, TournamentBarrierCompletesAllRounds) {
  const auto m = build_mt_barrier_tournament(bc.vm());
  for (auto& e : bc.engines()) {
    EXPECT_EQ(bc.invoke(*e, m, {Slot::from_i32(4), Slot::from_i32(50)}).i32,
              50)
        << e->name();
    // Non-power-of-two thread counts exercise the bye paths.
    EXPECT_EQ(bc.invoke(*e, m, {Slot::from_i32(3), Slot::from_i32(20)}).i32,
              20)
        << e->name();
  }
}

// ---------------------------------------------------------------------------
// BCE experiment kernels.

TEST_F(CilSuite, BceVariantsComputeIdenticalResults) {
  const auto ld = build_bce_daxpy_ldlen(bc.vm());
  const auto var = build_bce_daxpy_var(bc.vm());
  const std::vector<Slot> args = {Slot::from_i32(64), Slot::from_i32(5)};
  const Slot a = run_all(ld, args);
  const Slot b = run_all(var, args);
  EXPECT_EQ(a.raw, b.raw);
}


// The interpreter (rotor10) and baseline (mono023) tiers are one stack
// machine instantiated on two slot policies. A policy may change how fast an
// instruction runs, never which instructions run or what they compute: both
// tiers must return the same bits and retire the same IL instructions per
// method, on the SciMark kernels and on exception control flow.
TEST(StackTiers, TaggedAndUntaggedAgreeOnResultsAndBytecodes) {
  vm::telemetry::set_enabled(true);
  if (!vm::telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  vm::VirtualMachine v;
  vm::Module& mod = v.module();
  const auto i4 = [](int x) { return Slot::from_i32(x); };
  const ScimarkSizes s = ScimarkSizes::test_model();
  std::vector<std::pair<std::int32_t, std::vector<Slot>>> calls = {
      {build_sm_fft(v), {i4(s.fft_n), i4(s.fft_cycles)}},
      {build_sm_sor(v), {i4(s.sor_n), i4(s.sor_iters)}},
      {build_sm_montecarlo(v), {i4(s.mc_samples)}},
      {build_sm_sparse(v),
       {i4(s.sparse_n), i4(s.sparse_nz), i4(s.sparse_iters)}},
      {build_sm_lu(v), {i4(s.lu_n)}},
  };

  // x = arg; try { x = 100 / x } catch (DivideByZero) { x = -1 }
  // try { x = x + 5 } finally { x = x * 2 } return x
  vm::ILBuilder tcf(mod, "xtier.try_catch_finally",
                    {{ValType::I32}, ValType::I32});
  {
    const auto x = tcf.add_local(ValType::I32);
    const auto c0 = tcf.new_label(), c1 = tcf.new_label();
    const auto handler = tcf.new_label(), after_catch = tcf.new_label();
    const auto f0 = tcf.new_label(), f1 = tcf.new_label();
    const auto fin = tcf.new_label(), out = tcf.new_label();
    tcf.ldarg(0).stloc(x);
    tcf.bind(c0);
    tcf.ldc_i4(100).ldloc(x).div().stloc(x).leave(after_catch);
    tcf.bind(c1);
    tcf.add_catch(c0, c1, handler, mod.divide_by_zero_class());
    tcf.bind(handler);
    tcf.pop().ldc_i4(-1).stloc(x).leave(after_catch);
    tcf.bind(after_catch);
    tcf.bind(f0);
    tcf.ldloc(x).ldc_i4(5).add().stloc(x).leave(out);
    tcf.bind(f1);
    tcf.add_finally(f0, f1, fin);
    tcf.bind(fin);
    tcf.ldloc(x).ldc_i4(2).mul().stloc(x).endfinally();
    tcf.bind(out);
    tcf.ldloc(x).ret();
  }
  const std::int32_t tcf_id = tcf.finish();

  // thrower(n): if (n == 0) throw new Exception(); return 100 / n
  vm::ILBuilder thrower(mod, "xtier.thrower", {{ValType::I32}, ValType::I32});
  {
    const auto ok = thrower.new_label();
    thrower.ldarg(0).brtrue(ok);
    thrower.newobj(mod.exception_class()).throw_();
    thrower.bind(ok);
    thrower.ldc_i4(100).ldarg(0).div().ret();
  }
  const std::int32_t thrower_id = thrower.finish();
  // caller(n): try { r = thrower(n) } catch (Exception) { r = -7 } return r
  vm::ILBuilder caller(mod, "xtier.caller", {{ValType::I32}, ValType::I32});
  {
    const auto r = caller.add_local(ValType::I32);
    const auto t0 = caller.new_label(), t1 = caller.new_label();
    const auto handler = caller.new_label(), out = caller.new_label();
    caller.bind(t0);
    caller.ldarg(0).call(thrower_id).stloc(r).leave(out);
    caller.bind(t1);
    caller.add_catch(t0, t1, handler, mod.exception_class());
    caller.bind(handler);
    caller.pop().ldc_i4(-7).stloc(r).leave(out);
    caller.bind(out);
    caller.ldloc(r).ret();
  }
  const std::int32_t caller_id = caller.finish();
  for (int arg : {0, 7}) calls.push_back({tcf_id, {i4(arg)}});
  for (int arg : {0, 4}) calls.push_back({caller_id, {i4(arg)}});

  struct Run {
    std::vector<std::uint64_t> results;
    std::map<std::int32_t, std::uint64_t> bytecodes;  // per method
  };
  const auto run = [&](const char* profile) {
    auto engine = vm::make_engine(v, vm::profiles::by_name(profile));
    vm::VMContext& ctx = v.main_context();
    ctx.engine = engine.get();
    vm::telemetry::reset();
    Run r;
    for (const auto& [method, args] : calls) {
      r.results.push_back(engine->invoke(ctx, method, args).raw);
    }
    for (const auto& p : vm::telemetry::snapshot().methods) {
      r.bytecodes[p.method_id] = p.bytecodes;
    }
    return r;
  };
  Run rotor = run("rotor10");
  Run mono = run("mono023");
  vm::telemetry::set_enabled(false);
  vm::telemetry::reset();

  EXPECT_EQ(rotor.results, mono.results);
  EXPECT_EQ(rotor.bytecodes, mono.bytecodes);
  const std::size_t n = calls.size();
  ASSERT_EQ(mono.results.size(), n);
  EXPECT_EQ(static_cast<std::int32_t>(mono.results[n - 4]), 8);
  EXPECT_EQ(static_cast<std::int32_t>(mono.results[n - 3]), 38);
  EXPECT_EQ(static_cast<std::int32_t>(mono.results[n - 2]), -7);
  EXPECT_EQ(static_cast<std::int32_t>(mono.results[n - 1]), 25);
  for (const auto& [method, args] : calls) {
    EXPECT_GT(mono.bytecodes[method], 0u) << mod.method(method).name;
  }
  EXPECT_GT(mono.bytecodes[thrower_id], 0u);
}

}  // namespace
}  // namespace hpcnet::test
