// Tiered execution pipeline: hotness-driven promotion through the
// interp -> baseline -> optimizing tiers, the shared per-profile CodeCache,
// and the per-method compile latch. The Concurrent* and Osr* tests are the
// TSan targets for the tier-up path: many threads hitting the first (cold)
// call of the same and of different methods at once, and racing the OSR
// compile of the same loop header.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "vm/engines.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

/// Straight-line body, long enough (> kTinyMethodIl, tiered.cpp) to start in
/// the interpreter: f(x) = ((x*7 + 3) * 5 - x) ^ 2.
std::int32_t build_straightline(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  b.ldarg(0).ldc_i4(7).mul().ldc_i4(3).add();
  b.ldc_i4(5).mul().ldarg(0).sub();
  b.ldc_i4(2).xor_().ret();
  return b.finish();
}

/// Loop with `n` back edges: sum of i*i for i in [0, n).
std::int32_t build_loop(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc).ldloc(i).ldloc(i).mul().add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(acc).ret();
  return b.finish();
}

/// What build_loop(n) computes, with i32 wrap-around semantics (uint32
/// arithmetic is bit-identical to the VM's two's-complement overflow).
std::int32_t sum_squares(std::int32_t n) {
  std::uint32_t acc = 0;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n); ++i) {
    acc += i * i;
  }
  return static_cast<std::int32_t>(acc);
}

TEST(Tiered, PromotesThroughAllTiersAtThresholds) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "tier_straight");
  ASSERT_GT(vm.module().method(m).il_size(), std::size_t{8});

  const EngineProfile p = profiles::tiered(profiles::clr11());
  EXPECT_EQ(p.name, "clr11.tiered");
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(11);
  const std::int32_t want = ((11 * 7 + 3) * 5 - 11) ^ 2;

  for (int call = 1; call <= 70; ++call) {
    const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(r.i32, want) << "call " << call;
    const Tier t = eng.method_tier(m);
    if (call < 8) {
      EXPECT_EQ(t, Tier::Interp) << "call " << call;
    } else if (call < 64) {
      EXPECT_EQ(t, Tier::Baseline) << "call " << call;
    } else {
      EXPECT_EQ(t, Tier::Optimizing) << "call " << call;
    }
  }
}

TEST(Tiered, LoopHeavyMethodPromotesAfterOneInvocation) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_loop");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(100);  // 100 back edges >> kOptThreshold

  const Slot first = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  // Frame-exit back-edge flush: 1 invocation + capped credit crosses the
  // optimizing threshold, so the SECOND call already runs compiled code.
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  const Slot second = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(first.raw, second.raw);
  EXPECT_EQ(first.i32, 328350);  // sum i^2, i<100
}

TEST(Tiered, TinyMethodSkipsStraightToBaseline) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "tier_tiny", {{ValType::I32}, ValType::I32});
  b.ldarg(0).ldc_i4(1).add().ret();  // 4 instructions <= kTinyMethodIl
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(41);
  EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 42);
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);
}

TEST(Tiered, InterpOnlyPolicyNeverPromotes) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_rotor");
  const EngineProfile p = profiles::tiered(profiles::rotor10());
  EXPECT_EQ(p.tiering.max_tier, Tier::Interp);
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(50);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 40425);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Interp);
}

TEST(Tiered, BaselinePolicyCapsBelowOptimizing) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_mono");
  const EngineProfile p = profiles::tiered(profiles::mono023());
  EXPECT_EQ(p.tiering.max_tier, Tier::Baseline);
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(50);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 40425);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);
}

TEST(Tiered, SingleModeRunsProfileTierImmediately) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "tier_single");
  TieredEngine eng(vm, profiles::clr11());  // TierMode::Single
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(11);
  eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);  // compiled on first call
}

TEST(Tiered, ExceptionsPropagateAcrossPromotionBoundaries) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // throws_on_zero(x): x == 0 ? throw : 1000 / x.
  ILBuilder b(mod, "tier_thrower", {{ValType::I32}, ValType::I32});
  auto ok = b.new_label();
  b.ldarg(0).ldc_i4(0).bne(ok);
  b.newobj(mod.exception_class()).throw_();
  b.bind(ok);
  b.ldc_i4(1000).ldarg(0).div().ret();
  const auto m = b.finish();

  TieredEngine single(vm, profiles::clr11());
  TieredEngine tiered(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot good = Slot::from_i32(8);
  Slot bad = Slot::from_i32(0);

  const Slot want = single.invoke(ctx, m, std::span<const Slot>(&good, 1));
  // Interleave throwing and normal calls through every tier transition; the
  // hotness counter keeps advancing on throwing frames too, so promotion
  // happens mid-sequence while exceptional control flow is in play.
  for (int call = 1; call <= 80; ++call) {
    if (call % 3 == 0) {
      EXPECT_THROW(tiered.invoke(ctx, m, std::span<const Slot>(&bad, 1)),
                   ManagedException)
          << "call " << call;
    } else {
      const Slot r = tiered.invoke(ctx, m, std::span<const Slot>(&good, 1));
      EXPECT_EQ(r.raw, want.raw) << "call " << call;
    }
  }
  EXPECT_EQ(tiered.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, ConcurrentFirstCallsSameMethod) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_race_same");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  // Every thread races through the cold -> hot window of ONE method: the
  // promotions and the optimizing compile must happen exactly once each and
  // publish safely to readers that never take the latch.
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 100; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, ConcurrentFirstCallsDifferentMethods) {
  VirtualMachine vm;
  // One method per thread, all cold: distinct methods must verify and
  // compile concurrently (per-method latches, no cache-wide serialization).
  constexpr int kThreads = 8;
  std::vector<std::int32_t> methods;
  methods.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    methods.push_back(
        build_loop(vm.module(), "tier_race_" + std::to_string(t)));
  }
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 100; ++i) {
        const Slot r =
            eng.invoke(*ctx, methods[static_cast<std::size_t>(t)],
                       std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  for (std::int32_t m : methods) {
    EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  }
}

TEST(Tiered, ConcurrentEnginesShareOnlyTheVerifyCache) {
  // Two engines (different profiles -> different code caches) exercising the
  // same cold methods: verification state is VM-shared, compiled code is
  // not, and neither may race on the MethodDef.
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_two_engines");
  TieredEngine a(vm, profiles::tiered(profiles::clr11()));
  TieredEngine b(vm, profiles::tiered(profiles::ibm131()));

  std::atomic<int> wrong{0};
  auto hammer = [&](TieredEngine& eng) {
    auto ctx = vm.attach_thread(&eng);
    Slot arg = Slot::from_i32(60);
    for (int i = 0; i < 100; ++i) {
      const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
      if (r.i32 != 70210) wrong.fetch_add(1);
    }
    vm.detach_thread(*ctx);
  };
  std::thread t1([&] { hammer(a); });
  std::thread t2([&] { hammer(b); });
  t1.join();
  t2.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Tiered, ManagedThreadOnPartiallyPromotedMethod) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const std::int32_t cls = mod.define_class("tier.Cell", {{"v", ValType::I32}});

  // Worker runs a loop (promotes fast) and stores the result in the cell.
  ILBuilder w(mod, "tier_t_worker", {{ValType::Ref}, ValType::I32});
  const auto i = w.add_local(ValType::I32);
  const auto acc = w.add_local(ValType::I32);
  auto cond = w.new_label();
  auto top = w.new_label();
  w.ldc_i4(0).stloc(i).br(cond);
  w.bind(top);
  w.ldloc(acc).ldloc(i).add().stloc(acc);
  w.ldloc(i).ldc_i4(1).add().stloc(i);
  w.bind(cond);
  w.ldloc(i).ldc_i4(100).blt(top);
  w.ldarg(0).ldloc(acc).stfld(cls, "v");
  w.ldc_i4(0).ret();
  const auto worker = w.finish();

  ILBuilder b(mod, "tier_t_main", {{}, ValType::I32});
  const auto cell = b.add_local(ValType::Ref);
  const auto h = b.add_local(ValType::Ref);
  b.newobj(cls).stloc(cell);
  b.ldc_i4(worker).ldloc(cell).call_intr(vm::I_THREAD_START).stloc(h);
  b.ldloc(h).call_intr(vm::I_THREAD_JOIN);
  b.ldloc(cell).ldfld(cls, "v").ret();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  // Each round spawns a managed thread onto the engine while the worker (and
  // the spawner) sit at a different point of the promotion ladder.
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(eng.invoke(ctx, m, {}).i32, 4950) << "round " << round;
  }
  EXPECT_EQ(eng.method_tier(worker), Tier::Optimizing);
}

TEST(Tiered, TelemetryCountsTierUpsAndZeroDeopts) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_telemetry");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();

  telemetry::set_enabled(true);
  telemetry::reset();
  Slot arg = Slot::from_i32(100);
  for (int i = 0; i < 4; ++i) {
    eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  }
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  // interp (cold call) -> optimizing via back-edge credit: one promotion and
  // no deopt. 100 back edges per frame stays below the OSR trigger and
  // nothing requests a deoptimization here, so Deopts must read zero — the
  // counter is live (see the Osr* tests), not structurally dead.
  EXPECT_GE(snap.counter(telemetry::Counter::TierUps), 1u);
  EXPECT_EQ(snap.counter(telemetry::Counter::Deopts), 0u);

  const telemetry::MethodProfile* prof = snap.method(m);
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->invocations, 4u);
  EXPECT_EQ(prof->tier_invocations[0], 1u);  // the cold interp call
  EXPECT_EQ(prof->tier_invocations[2], 3u);  // the rest ran compiled
  bool saw_tier_event = false;
  for (const auto& ev : snap.events) {
    if (std::string(ev.cat) == "tier") saw_tier_event = true;
  }
  EXPECT_TRUE(saw_tier_event);
}

// ---------------------------------------------------------------------------
// On-stack replacement and deoptimization.

TEST(Tiered, OsrPromotesWithinSingleInvocation) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "osr_single_shot");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();

  telemetry::reset();
  // One cold call whose frame alone crosses kOsrBackedgeTrigger many times
  // over: promotion may not wait for the invocation boundary.
  Slot arg = Slot::from_i32(200'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(r.i32, sum_squares(200'000));
  EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 1u);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  const telemetry::MethodProfile* prof = snap.method(m);
  ASSERT_NE(prof, nullptr);
  // The OSR continuation runs on the optimizing backend within the same
  // logical call, so the compiled tier shows an invocation too.
  EXPECT_GE(prof->tier_invocations[2], 1u);
}

TEST(Tiered, OsrWithLiveOperandStack) {
  namespace telemetry = hpcnet::vm::telemetry;
  VirtualMachine vm;
  // sum i for i in [0, n) with the accumulator LIVE ON THE OPERAND STACK
  // across the back edge — OSR must carry the stack, not just the locals.
  ILBuilder b(vm.module(), "osr_stack_loop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  auto top = b.new_label();
  b.ldc_i4(0);  // the accumulator; never touches a local
  b.bind(top);
  b.ldloc(i).add();
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.ldloc(i).ldarg(0).blt(top);
  b.ret();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  telemetry::set_enabled(true);
  const bool have_telemetry = telemetry::enabled();
  telemetry::reset();
  Slot arg = Slot::from_i32(20'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(r.i32, 20'000 * 19'999 / 2);
  if (have_telemetry) {
    EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 1u);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, OsrInsideTryFinally) {
  VirtualMachine vm;
  // The hot loop lives inside a protected region whose finally adjusts the
  // result on the way out: the OSR continuation must keep the handler table
  // (shifted to the new pcs) so the compiled code still runs the finally.
  ILBuilder b(vm.module(), "osr_finally_loop",
              {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto try_begin = b.new_label();
  auto try_end = b.new_label();
  auto handler = b.new_label();
  auto done = b.new_label();
  auto top = b.new_label();
  b.bind(try_begin);
  b.bind(top);
  b.ldloc(acc).ldloc(i).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.ldloc(i).ldarg(0).blt(top);
  b.leave(done);
  b.bind(try_end);
  b.bind(handler);
  b.ldloc(acc).ldc_i4(1'000'000).add().stloc(acc);
  b.endfinally();
  b.bind(done);
  b.ldloc(acc).ret();
  b.add_finally(try_begin, try_end, handler);
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(20'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(r.i32, 20'000 * 19'999 / 2 + 1'000'000);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, HotLoopExitingViaThrowStillPromotes) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // The frame NEVER returns normally: it loops `arg` times and then throws.
  // Its back-edge credit must survive the unwind, or the method stays cold
  // forever no matter how hot the loop is.
  ILBuilder b(mod, "osr_throw_exit", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc).ldloc(i).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.newobj(mod.exception_class()).throw_();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(100);  // 100 back edges >> kOptThreshold credit
  for (int call = 0; call < 3; ++call) {
    EXPECT_THROW(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)),
                 ManagedException)
        << "call " << call;
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, SaturatingHotnessAtWrapBoundary) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "osr_hot_wrap");
  TieredEngine eng(vm, profiles::tiered(profiles::mono023()));
  VMContext& ctx = vm.main_context();

  // Pre-cook the counter to the top of the u32 range: the next bump must
  // saturate, not wrap to zero (which would reset the method to ice cold).
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  eng.code_entry(m).hotness.store(kMax);
  Slot arg = Slot::from_i32(11);
  const std::int32_t want = ((11 * 7 + 3) * 5 - 11) ^ 2;
  EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, want);
  EXPECT_EQ(eng.code_entry(m).hotness.load(), kMax);
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);  // mono caps at baseline
}

TEST(Tiered, SingleModeConcurrentFirstCall) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "single_mode_race");
  TieredEngine eng(vm, profiles::clr11());  // TierMode::Single
  telemetry::reset();

  // Single mode compiles on first call; when eight threads deliver that
  // first call at once, the per-method latch must admit exactly one compile
  // and everyone else must wait for the published code — never run a
  // half-built body and never compile twice.
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 10; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(wrong.load(), 0);
  const telemetry::EngineJitTimes* jit = snap.engine_jit("clr11");
  ASSERT_NE(jit, nullptr);
  EXPECT_EQ(jit->methods_compiled, 1u);
}

TEST(Tiered, ConcurrentOsrSameLoop) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "osr_race");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  // Two cold frames cross the OSR trigger at the same loop header at nearly
  // the same moment: the continuation build + compile must be latched like
  // any other compile, and both frames must resume with the right state.
  constexpr int kThreads = 2;
  const std::int32_t want = sum_squares(20'000);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(20'000);
      for (int i = 0; i < 3; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != want) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, DeoptThenReOsrRoundTrip) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  // Progress is observed through code-cache atomics, so the round trip runs
  // even in HPCNET_TELEMETRY=OFF builds; only the counter cross-check at the
  // end needs the sinks.
  const bool have_telemetry = telemetry::enabled();
  VirtualMachine vm;
  Module& mod = vm.module();
  const std::int32_t cls = mod.define_class("osr.Flag", {{"stop", ValType::I32}});

  // Worker: spin until flag.stop != 0, counting iterations. The loop is
  // unbounded, so the TEST decides how long each execution tier stays
  // resident — no timing-dependent trip counts. The flag is read and
  // written under the cell's monitor to keep the test TSan-clean.
  ILBuilder w(mod, "osr_deopt_worker", {{ValType::Ref}, ValType::I32});
  const auto n = w.add_local(ValType::I32);
  auto top = w.new_label();
  w.bind(top);
  w.ldloc(n).ldc_i4(1).add().stloc(n);
  w.ldarg(0).call_intr(I_MON_ENTER);
  w.ldarg(0).ldfld(cls, "stop");
  w.ldarg(0).call_intr(I_MON_EXIT);
  w.brfalse(top);
  w.ldloc(n).ret();
  const auto worker = w.finish();

  ILBuilder s(mod, "osr_deopt_stop", {{ValType::Ref}, ValType::I32});
  s.ldarg(0).call_intr(I_MON_ENTER);
  s.ldarg(0).ldc_i4(1).stfld(cls, "stop");
  s.ldarg(0).call_intr(I_MON_EXIT);
  s.ldc_i4(0).ret();
  const auto stop = s.finish();

  ILBuilder c(mod, "osr_deopt_cell", {{}, ValType::Ref});
  c.newobj(cls).ret();
  const auto make_cell = c.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  telemetry::reset();
  const Slot cell = eng.invoke(ctx, make_cell, {});

  Slot result = Slot::from_i32(0);
  std::thread t([&] {
    auto wctx = vm.attach_thread(&eng);
    Slot a = cell;
    result = eng.invoke(*wctx, worker, std::span<const Slot>(&a, 1));
    vm.detach_thread(*wctx);
  });

  // Mid-run progress is observed through the code-cache entry's atomic
  // osr_entries/deopts counters; the thread-local telemetry sinks only merge
  // safely once the worker quiesces, so the snapshot waits for the join.
  CodeCache::Entry& entry = eng.code_entry(worker);
  auto wait_for = [](std::atomic<std::uint32_t>& ctr, std::uint32_t min) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ctr.load(std::memory_order_relaxed) >= min) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  // 1. The spinning frame crosses the trigger and OSR-enters compiled code.
  const bool osr1 = wait_for(entry.osr_entries, 1);
  bool deopted = false;
  bool osr2 = false;
  if (osr1) {
    // 2. Invalidate: the running compiled frame must bail to the
    //    interpreter at its next back-edge safepoint. A request that lands
    //    in the sliver between the osr_entries bump and the frame snapping
    //    its generation at entry is invisible to that frame, so keep
    //    re-requesting until a bail is observed.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      eng.request_deopt(worker);
      if (entry.deopts.load(std::memory_order_relaxed) >= 1) {
        deopted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // 3. The interpreter continuation is the same hot loop, so it re-arms and
  //    OSR-enters freshly compiled code again — the full round trip.
  if (deopted) osr2 = wait_for(entry.osr_entries, 2);

  Slot a = cell;
  eng.invoke(ctx, stop, std::span<const Slot>(&a, 1));
  t.join();
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_TRUE(osr1) << "hot loop never OSR-promoted";
  EXPECT_TRUE(deopted) << "compiled frame never bailed after request_deopt";
  EXPECT_TRUE(osr2) << "deopted loop never re-entered compiled code";
  if (have_telemetry) {
    EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 2u);
    EXPECT_GE(snap.counter(telemetry::Counter::Deopts), 1u);
  }
  EXPECT_GE(result.i32, 1);
  // The deopt zeroed the hotness, but the frame-exit back-edge flush from
  // the interpreter continuation re-promotes the method.
  EXPECT_EQ(eng.method_tier(worker), Tier::Optimizing);
}

TEST(Tiered, TieredProfileNamesResolveViaByName) {
  const EngineProfile p = profiles::by_name("mono023.tiered");
  EXPECT_EQ(p.name, "mono023.tiered");
  EXPECT_EQ(p.tiering.mode, TierMode::Tiered);
  EXPECT_EQ(p.tiering.max_tier, Tier::Baseline);
  EXPECT_THROW(profiles::by_name("nosuch.tiered"), std::invalid_argument);
}

}  // namespace
}  // namespace hpcnet::test
