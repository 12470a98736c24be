// Multi-tenant execution service tests: deterministic fuel kills in every
// tier (including OSR continuations), memory-budget kills, co-tenant
// non-interference, concurrent submission, and the accounting-bypass
// regressions (DESIGN.md §11). The whole binary also runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/intrinsics.hpp"
#include "vm/monitor.hpp"
#include "vm/service/service.hpp"
#include "vm/verifier.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using namespace hpcnet::vm;
using service::ExecutionService;
using service::JobOutcome;
using service::JobResult;
using service::TenantConfig;

/// sum(0..n-1) with exactly one taken backward branch per iteration, so a
/// run of spin(n) costs n fuel (plus the pulse-window rounding at the kill).
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

/// A floating-point recurrence whose bit pattern detects any perturbation.
std::int32_t build_compute(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::F64});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::F64);
  auto loop = b.new_label();
  auto done = b.new_label();
  b.ldc_r8(1.0).stloc(acc);
  b.ldc_i4(0).stloc(i);
  b.bind(loop);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(acc).ldc_r8(1.0000001).mul().ldc_r8(0.5).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(loop);
  b.bind(done);
  b.ldloc(acc).ret();
  return b.finish();
}

/// Allocates `count` f64 arrays of `elems` elements and drops each. With
/// elems >= 2048 every array takes the large-object path, which charges the
/// tenant budget exact byte counts — the kill point is deterministic.
std::int32_t build_alloc_loop(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32, ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  auto loop = b.new_label();
  auto done = b.new_label();
  b.ldc_i4(0).stloc(i);
  b.bind(loop);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldarg(1).newarr(ValType::F64).pop();
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(loop);
  b.bind(done);
  b.ldloc(i).ret();
  return b.finish();
}

/// spawner() { Thread.Join(Thread.Start(child, null)); return 1; } — the
/// shape a tenant would use to fork work onto an unmetered thread.
std::int32_t build_spawner(Module& mod, const std::string& name) {
  ILBuilder c(mod, name + ".child", {{ValType::Ref}, ValType::None});
  c.ret();
  const auto child = c.finish();
  ILBuilder b(mod, name, {{}, ValType::I32});
  b.ldc_i4(child).ldnull().call_intr(I_THREAD_START).call_intr(I_THREAD_JOIN);
  b.ldc_i4(1).ret();
  return b.finish();
}

TEST(Service, CompletesJobsAndReportsStats) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 2, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  auto h1 = svc.submit("a", spin, {Slot::from_i32(1000)});
  auto h2 = svc.submit("a", spin, {Slot::from_i32(10)});
  const JobResult r1 = h1.wait();
  const JobResult r2 = h2.wait();
  EXPECT_EQ(r1.outcome, JobOutcome::Completed);
  EXPECT_EQ(r1.value.i32, 999 * 1000 / 2);
  EXPECT_EQ(r2.outcome, JobOutcome::Completed);
  EXPECT_EQ(r2.value.i32, 45);
  EXPECT_EQ(r1.fuel_spent, 0u);  // unmetered tenant: the meter stays off
  svc.drain();
  const auto st = svc.tenant_stats("a");
  EXPECT_EQ(st.jobs_completed, 2u);
  EXPECT_EQ(st.jobs_killed_fuel + st.jobs_killed_memory, 0u);
}

TEST(Service, MalformedSubmissionsAreRejected) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  // Unverifiable IL: pops an empty stack. Rejected by the worker's verifier.
  ILBuilder bad(vm.module(), "svc.bad", {{}, ValType::I32});
  bad.add().ret();
  const auto bad_id = bad.finish();

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  EXPECT_EQ(svc.submit("a", 9999, {}).wait().outcome, JobOutcome::Rejected);
  EXPECT_EQ(svc.submit("a", spin, {}).wait().outcome,
            JobOutcome::Rejected);  // argument count mismatch
  EXPECT_EQ(svc.submit("a", bad_id, {}).wait().outcome, JobOutcome::Rejected);
  EXPECT_THROW(svc.submit("nobody", spin, {Slot::from_i32(1)}),
               std::invalid_argument);
  EXPECT_EQ(svc.tenant_stats("a").jobs_rejected, 3u);
}

// The tentpole invariant: a fuel-exhausted job terminates deterministically —
// the same fuel count every run, in every tier, including the tiered
// pipeline's OSR continuation (spin OSR-enters compiled code at the loop
// header after 1024 back edges and keeps charging there).
TEST(Service, FuelKillIsDeterministicInEveryTier) {
  constexpr std::uint64_t kFuel = 10'000;
  std::vector<std::uint64_t> spent_by_profile;
  for (const char* prof : {"rotor10", "mono023", "clr11", "clr11.tiered"}) {
    VirtualMachine vm;
    const auto spin = build_spin(vm.module(), "svc.spin");
    ExecutionService svc(vm, profiles::by_name(prof),
                         {.workers = 1, .warm_start = nullptr});
    svc.add_tenant({.name = "a", .fuel_per_job = kFuel});
    const JobResult r1 =
        svc.submit("a", spin, {Slot::from_i32(1 << 20)}).wait();
    ASSERT_EQ(r1.outcome, JobOutcome::KilledFuel) << prof;
    EXPECT_GE(r1.fuel_spent, kFuel) << prof;
    // Overdraw is bounded by one pulse window.
    EXPECT_LT(r1.fuel_spent, kFuel + kFuelPulseBackedges) << prof;
    const JobResult r2 =
        svc.submit("a", spin, {Slot::from_i32(1 << 20)}).wait();
    ASSERT_EQ(r2.outcome, JobOutcome::KilledFuel) << prof;
    EXPECT_EQ(r1.fuel_spent, r2.fuel_spent) << prof;
    spent_by_profile.push_back(r1.fuel_spent);
  }
  // Fuel is a tier-independent unit (taken backward branches), so the kill
  // point agrees across the interpreter, baseline, optimizing, and
  // interp->OSR execution shapes.
  for (std::size_t i = 1; i < spent_by_profile.size(); ++i) {
    EXPECT_EQ(spent_by_profile[0], spent_by_profile[i]);
  }
}

TEST(Service, FuelExhaustedIsCatchableInIl) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // try { spin-loop } catch (FuelExhausted) { return -1; }
  ILBuilder b(mod, "svc.catch_fuel", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto res = b.add_local(ValType::I32);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  auto loop = b.new_label();
  auto done = b.new_label();
  b.ldc_i4(0).stloc(res);
  b.ldc_i4(0).stloc(i);
  b.bind(t0);
  b.bind(loop);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(loop);
  b.bind(done);
  b.ldc_i4(1).stloc(res);
  b.leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.fuel_exhausted_class());
  b.bind(h);
  b.pop().ldc_i4(-1).stloc(res).leave(out);
  b.bind(out);
  b.ldloc(res).ret();
  const auto catcher = b.finish();

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a", .fuel_per_job = 5'000});
  const JobResult r = svc.submit("a", catcher, {Slot::from_i32(1 << 20)}).wait();
  // The fault is a catchable managed exception: the job caught it and
  // completed normally, with the meter recording the overdraw.
  EXPECT_EQ(r.outcome, JobOutcome::Completed);
  EXPECT_EQ(r.value.i32, -1);
  EXPECT_GE(r.fuel_spent, 5'000u);
}

TEST(Service, MemoryBudgetKillsArrayCreateDeterministically) {
  VirtualMachine vm;
  const auto alloc = build_alloc_loop(vm.module(), "svc.alloc");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  // 4096-element f64 arrays are 32 KiB payloads — large-object allocations,
  // charged exact sizes, so the kill lands on the same array every run.
  svc.add_tenant({.name = "a", .memory_budget_bytes = 256u << 10});
  const JobResult r1 =
      svc.submit("a", alloc, {Slot::from_i32(64), Slot::from_i32(4096)}).wait();
  ASSERT_EQ(r1.outcome, JobOutcome::KilledMemory);
  EXPECT_LE(r1.bytes_charged, 256u << 10);
  EXPECT_GE(r1.bytes_charged, 7u * 4096u * 8u);  // at least 7 arrays landed
  const JobResult r2 =
      svc.submit("a", alloc, {Slot::from_i32(64), Slot::from_i32(4096)}).wait();
  ASSERT_EQ(r2.outcome, JobOutcome::KilledMemory);
  EXPECT_EQ(r1.bytes_charged, r2.bytes_charged);
  // The budget was fully released at job teardown: a small run now fits.
  const JobResult r3 =
      svc.submit("a", alloc, {Slot::from_i32(4), Slot::from_i32(4096)}).wait();
  EXPECT_EQ(r3.outcome, JobOutcome::Completed);
}

// Satellite regression: metered jobs must not mint objects through the
// heap-shared TLAB unaccounted. Every byte a budgeted job allocates shows up
// in bytes_charged (region-granular on the TLAB path, exact on the large
// path), and a dry budget refuses both paths.
TEST(Service, BudgetedAllocationCannotBypassAccounting) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  // Direct heap probe: a TLAB bound to a dry budget refuses the small path
  // (region charge) and the large path (exact charge)...
  Tlab t;
  heap.register_tlab(t);
  AllocBudget dry(16u << 10);  // below one 64 KiB TLAB region
  t.bind_budget(&dry);
  EXPECT_EQ(heap.alloc_array(ValType::F64, 8192, &t), nullptr);  // large
  EXPECT_EQ(heap.alloc_array(ValType::I32, 4, &t), nullptr);     // region
  EXPECT_EQ(t.budget_charged(), 0u);
  // ...while the shared (tlab-less) path stays unmetered by design: that is
  // exactly why run_job must never leave a metered context on it.
  EXPECT_NE(heap.alloc_array(ValType::I32, 4, nullptr), nullptr);
  t.bind_budget(nullptr);
  heap.retire_tlab(t);
  heap.unregister_tlab(t);

  // Service-level: a budgeted job's charged bytes cover everything it
  // allocated. 10 arrays x 32 KiB payload must all be visible in the charge.
  const auto alloc = build_alloc_loop(vm.module(), "svc.alloc");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a", .memory_budget_bytes = 8u << 20});
  const JobResult r =
      svc.submit("a", alloc, {Slot::from_i32(10), Slot::from_i32(4096)}).wait();
  ASSERT_EQ(r.outcome, JobOutcome::Completed);
  EXPECT_GE(r.bytes_charged, 10u * 4096u * 8u);
}

// Regression (REVIEW): a metered job must not escape its boundaries through
// Thread.Start — the child thread would run on a fresh context with no fuel
// meter and no allocation budget, and could outlive the job whose budget
// paid for it. Both metering axes refuse the spawn with a catchable fault;
// unmetered tenants keep the full threading substrate.
TEST(Service, MeteredJobCannotSpawnThreads) {
  VirtualMachine vm;
  const auto spawner = build_spawner(vm.module(), "svc.spawn");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "fuel", .fuel_per_job = 1'000'000});
  svc.add_tenant({.name = "mem", .memory_budget_bytes = 8u << 20});
  svc.add_tenant({.name = "free"});
  const JobResult rf = svc.submit("fuel", spawner, {}).wait();
  EXPECT_EQ(rf.outcome, JobOutcome::Faulted);
  EXPECT_NE(rf.error.find("Thread.Start refused"), std::string::npos);
  const JobResult rm = svc.submit("mem", spawner, {}).wait();
  EXPECT_EQ(rm.outcome, JobOutcome::Faulted);
  EXPECT_NE(rm.error.find("Thread.Start refused"), std::string::npos);
  const JobResult ru = svc.submit("free", spawner, {}).wait();
  EXPECT_EQ(ru.outcome, JobOutcome::Completed);
  EXPECT_EQ(ru.value.i32, 1);
}

// One tenant's runaway recursion overflows the worker's frame arena. The job
// faults; the worker's context must come out of the native unwind clean, so
// a collection and the next job on the same worker still run.
TEST(Service, StackOverflowJobFaultsAndWorkerSurvives) {
  VirtualMachine vm;
  const auto deep = test::build_deep_recursion(vm.module(), "svc.deep");
  const auto spin = build_spin(vm.module(), "svc.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  const JobResult r = svc.submit("a", deep, {Slot::from_i32(0)}).wait();
  EXPECT_EQ(r.outcome, JobOutcome::Faulted);
  EXPECT_NE(r.error.find("managed stack overflow"), std::string::npos);
  vm.collect();
  const JobResult next = svc.submit("a", spin, {Slot::from_i32(10)}).wait();
  EXPECT_EQ(next.outcome, JobOutcome::Completed);
  EXPECT_EQ(next.value.i32, 45);
}

// Regression (REVIEW): a budgeted refill must charge a fixed segment granule
// rather than whatever free run first-fits — run sizes depend on co-tenant
// GC/fragmentation history, which would make the budget-kill point
// nondeterministic and let one huge run drain a tenant's budget for a single
// TLAB window.
TEST(Service, BudgetedRefillChargesFixedGranuleDespiteFragmentation) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  VMContext& ctx = vm.main_context();
  // Manufacture fragmentation: fill segments with small dead objects, keep
  // one pinned survivor so its segment stays live, and collect — the
  // survivor's segment now holds a large free run feeding first-fit refills.
  ObjRef keep = heap.alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned pin(vm, keep);
  for (int i = 0; i < 4096; ++i) {
    heap.alloc_instance(vm.thread_class(), &ctx.tlab);
  }
  vm.collect();

  Tlab t;
  heap.register_tlab(t);
  AllocBudget budget(Heap::kSegmentBytes + Heap::kSegmentBytes / 2);
  t.bind_budget(&budget);
  // The refill charges exactly one granule, not the run the GC left behind.
  EXPECT_NE(heap.alloc_array(ValType::I32, 4, &t), nullptr);
  EXPECT_EQ(t.budget_charged(), Heap::kSegmentBytes);
  // The remaining half granule cannot pay for another refill: a second
  // budgeted window is refused even though free runs remain available to
  // unmetered callers.
  Tlab t2;
  heap.register_tlab(t2);
  t2.bind_budget(&budget);
  EXPECT_EQ(heap.alloc_array(ValType::I32, 4, &t2), nullptr);
  EXPECT_EQ(t2.budget_charged(), 0u);
  t2.bind_budget(nullptr);
  heap.unregister_tlab(t2);
  t.bind_budget(nullptr);
  heap.unregister_tlab(t);
}

// Regression (REVIEW): limits above INT64_MAX mean "effectively unmetered",
// not a meter armed already negative (fuel) or a pool that refuses
// everything after a wrapped cast (memory).
TEST(Service, OverWideLimitsClampRatherThanKill) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a",
                  .fuel_per_job = std::numeric_limits<std::uint64_t>::max()});
  const JobResult r = svc.submit("a", spin, {Slot::from_i32(200'000)}).wait();
  EXPECT_EQ(r.outcome, JobOutcome::Completed);  // meter armed, never fires
  EXPECT_GE(r.fuel_spent, 200'000u);

  AllocBudget wide(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(wide.remaining(), std::numeric_limits<std::int64_t>::max());
  // A charge wider than the signed pool can never succeed (the unclamped
  // cast would wrap negative and "succeed" by growing the pool).
  EXPECT_FALSE(wide.try_charge(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_TRUE(wide.try_charge(64));
}

TEST(Service, CoTenantKillDoesNotPerturbVictimResults) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  const auto alloc = build_alloc_loop(vm.module(), "svc.alloc");
  const auto compute = build_compute(vm.module(), "svc.compute");

  // Reference result, computed directly on an engine of the same profile.
  auto engine = make_engine(vm, profiles::clr11());
  VMContext& ctx = vm.main_context();
  ctx.engine = engine.get();
  verify(vm.module(), compute);
  const std::vector<Slot> cargs{Slot::from_i32(200'000)};
  const Slot expected = engine->invoke(ctx, compute, cargs);

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 2, .warm_start = nullptr});
  svc.add_tenant({.name = "noisy",
                  .fuel_per_job = 20'000,
                  .memory_budget_bytes = 256u << 10});
  svc.add_tenant({.name = "victim"});
  std::vector<service::JobHandle> victims;
  std::uint64_t kills = 0;
  for (int round = 0; round < 8; ++round) {
    auto hk = svc.submit("noisy", spin, {Slot::from_i32(1 << 20)});
    auto hm =
        svc.submit("noisy", alloc, {Slot::from_i32(64), Slot::from_i32(4096)});
    victims.push_back(svc.submit("victim", compute, cargs));
    EXPECT_EQ(hk.wait(&ctx).outcome, JobOutcome::KilledFuel);
    EXPECT_EQ(hm.wait(&ctx).outcome, JobOutcome::KilledMemory);
    ++kills;
  }
  for (auto& h : victims) {
    const JobResult r = h.wait(&ctx);
    ASSERT_EQ(r.outcome, JobOutcome::Completed);
    // Bit-identical to the uncontended direct run: co-tenant kills must not
    // perturb a victim's floating-point results.
    EXPECT_EQ(r.value.raw, expected.raw);
  }
  EXPECT_GE(kills, 1u);
  svc.drain(&ctx);
  EXPECT_EQ(svc.tenant_stats("victim").jobs_completed, victims.size());
  EXPECT_EQ(svc.tenant_stats("noisy").jobs_killed_fuel, 8u);
  EXPECT_EQ(svc.tenant_stats("noisy").jobs_killed_memory, 8u);
}

/// gate(obj) { lock(obj) { Monitor.Pulse(obj); Monitor.Wait(obj); } ret 1 }
/// Handshake for deterministic "worker busy" tests, no sleeps or racy flags:
/// the test thread holds the monitor, submits this job, then calls
/// monitors().wait — which parks until the worker has picked the job up,
/// entered the monitor and pulsed. When the test's wait returns, the worker
/// is provably in-flight and parked (GC-safe) in Monitor.Wait; pulse + exit
/// releases it.
std::int32_t build_gate(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::Ref}, ValType::I32});
  b.ldarg(0).call_intr(I_MON_ENTER);
  b.ldarg(0).call_intr(I_MON_PULSE);
  b.ldarg(0).call_intr(I_MON_WAIT);
  b.ldarg(0).call_intr(I_MON_EXIT);
  b.ldc_i4(1).ret();
  return b.finish();
}

// Regression (PR 10): ref-typed args of a QUEUED job were not GC roots — a
// Slot in the service's deque is invisible to the collector's stack walk, so
// a major collection between submit and pickup swept an otherwise-
// unreachable argument graph and the job later dereferenced freed memory.
// submit now pins the graph until worker pickup. Census is exact:
// heap.stats().live_objects is recomputed by every major sweep.
TEST(Service, QueuedRefArgsSurviveMajorCollection) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto node_cls = mod.define_class(
      "svc.Node", {{"a", ValType::Ref}, {"b", ValType::Ref}, {"v", ValType::I32}});
  // touch(n) = n.v + n.a.v + n.b.v — faults loudly if the graph died.
  ILBuilder tb(mod, "svc.touch", {{ValType::Ref}, ValType::I32});
  tb.ldarg(0).ldfld(node_cls, 2);
  tb.ldarg(0).ldfld(node_cls, 0).ldfld(node_cls, 2).add();
  tb.ldarg(0).ldfld(node_cls, 1).ldfld(node_cls, 2).add();
  tb.ret();
  const auto touch = tb.finish();
  const auto gate = build_gate(mod, "svc.gate");

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});

  VMContext& ctx = vm.main_context();
  Heap& heap = vm.heap();
  ObjRef lock = heap.alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned lock_pin(vm, lock);
  vm.monitors().enter(ctx, lock);
  auto blocker = svc.submit("a", gate, {Slot::from_ref(lock)});
  // Returns once the worker has picked the blocker up, pulsed, and parked
  // GC-safe in Monitor.Wait — the worker is now provably busy.
  ASSERT_TRUE(vm.monitors().wait(ctx, lock));

  const std::size_t base = heap.stats().live_objects;
  service::JobHandle queued = [&] {
    // Scope the native pins: after this block the 3-node graph is reachable
    // ONLY through the queued job's submit-time pins.
    ObjRef root = heap.alloc_instance(node_cls, &ctx.tlab);
    Pinned root_pin(vm, root);
    ObjRef na = heap.alloc_instance(node_cls, &ctx.tlab);
    root->fields()[0].ref = na;
    ObjRef nb = heap.alloc_instance(node_cls, &ctx.tlab);
    root->fields()[1].ref = nb;
    root->fields()[2].i32 = 5;
    na->fields()[2].i32 = 7;
    nb->fields()[2].i32 = 9;
    return svc.submit("a", touch, {Slot::from_ref(root)});
  }();
  EXPECT_EQ(heap.stats().live_objects, base + 3);

  // The worker is parked inside the gate job; `queued` sits in the deque.
  vm.collect();
  EXPECT_EQ(heap.stats().live_objects, base + 3);  // pins held the graph

  vm.monitors().pulse(ctx, lock);
  vm.monitors().exit(ctx, lock);
  EXPECT_EQ(blocker.wait(&ctx).outcome, JobOutcome::Completed);
  const JobResult r = queued.wait(&ctx);
  ASSERT_EQ(r.outcome, JobOutcome::Completed);
  EXPECT_EQ(r.value.i32, 21);
  svc.drain(&ctx);
  // Pickup unpinned the args; with the job done the graph is garbage again.
  vm.collect();
  EXPECT_EQ(heap.stats().live_objects, base);
}

// Regression (PR 10): capture_snapshot drained and then captured without
// closing admission, so a submit racing the drain predicate could start a
// compile while capture walked the cache (a TSan-visible race on cache
// internals). Admission is now held closed across the whole quiesce window.
// This test is the TSan witness: 8 submitters hammer submit while the main
// thread captures repeatedly.
TEST(Service, SubmitRacesCaptureSnapshotSafely) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 2, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const JobResult r =
            svc.submit("a", spin, {Slot::from_i32(2000)}).wait();
        if (r.outcome == JobOutcome::Completed) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int c = 0; c < 5; ++c) {
    EXPECT_NE(svc.capture_snapshot(), nullptr);
  }
  for (std::thread& t : submitters) t.join();
  svc.drain();
  EXPECT_EQ(ok.load(), kThreads * kJobsPerThread);
}

// Regression (PR 10): ~ExecutionService used to leave still-queued jobs
// undelivered — a handle whose service died blocked in wait() forever. The
// destructor now fails them as Rejected ("service stopped") BEFORE joining,
// so waits unblock even while an in-flight job is still finishing.
TEST(Service, DestroyedServiceRejectsQueuedJobs) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto gate = build_gate(mod, "svc.gate");
  const auto spin = build_spin(mod, "svc.spin");

  VMContext& ctx = vm.main_context();
  ObjRef lock = vm.heap().alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned lock_pin(vm, lock);
  vm.monitors().enter(ctx, lock);

  auto svc = std::make_unique<ExecutionService>(
      vm, profiles::clr11(),
      ExecutionService::Options{.workers = 1, .warm_start = nullptr});
  svc->add_tenant({.name = "a"});
  auto blocker = svc->submit("a", gate, {Slot::from_ref(lock)});
  // Handshake: do not queue the spins (or destroy the service) until the
  // worker has provably picked the blocker up and parked in Monitor.Wait.
  ASSERT_TRUE(vm.monitors().wait(ctx, lock));
  std::vector<service::JobHandle> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(svc->submit("a", spin, {Slot::from_i32(10)}));
  }
  // Destroy the service while its only worker is parked inside the gate job
  // (the 4 spins cannot have started). The destructor must fail them before
  // joining — these waits would otherwise deadlock against the held monitor.
  std::thread destroyer([&] { svc.reset(); });
  for (auto& h : queued) {
    const JobResult r = h.wait(&ctx);
    EXPECT_EQ(r.outcome, JobOutcome::Rejected);
    EXPECT_EQ(r.error, "service stopped");
  }
  vm.monitors().pulse(ctx, lock);
  vm.monitors().exit(ctx, lock);
  destroyer.join();
  // The in-flight gate job was allowed to finish normally.
  EXPECT_EQ(blocker.wait(&ctx).outcome, JobOutcome::Completed);
}

TEST(Service, CancelRemovesQueuedJobOnly) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto gate = build_gate(mod, "svc.gate");
  const auto spin = build_spin(mod, "svc.spin");

  VMContext& ctx = vm.main_context();
  ObjRef lock = vm.heap().alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned lock_pin(vm, lock);
  vm.monitors().enter(ctx, lock);

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a"});
  auto blocker = svc.submit("a", gate, {Slot::from_ref(lock)});
  // Wait for pickup: without the handshake, cancel(victim) could race the
  // worker's pop and legitimately remove the still-queued blocker instead.
  ASSERT_TRUE(vm.monitors().wait(ctx, lock));
  auto victim = svc.submit("a", spin, {Slot::from_i32(10)});
  EXPECT_TRUE(svc.cancel(victim));
  EXPECT_FALSE(svc.cancel(victim));  // already finished (as Rejected)
  const JobResult r = victim.wait(&ctx);
  EXPECT_EQ(r.outcome, JobOutcome::Rejected);
  EXPECT_EQ(r.error, "cancelled");
  // A running job is never interrupted by cancel.
  EXPECT_FALSE(svc.cancel(blocker));
  vm.monitors().pulse(ctx, lock);
  vm.monitors().exit(ctx, lock);
  EXPECT_EQ(blocker.wait(&ctx).outcome, JobOutcome::Completed);
  svc.drain(&ctx);
  EXPECT_EQ(svc.tenant_stats("a").jobs_rejected, 1u);
  EXPECT_EQ(svc.tenant_stats("a").jobs_completed, 1u);
}

// PR 10: wall-clock deadlines ride the same pulse cadence as fuel, in every
// tier. The kill is not deterministic in fuel units (it is time), but the
// outcome, the exception class and the stats axis are.
TEST(Service, DeadlineKillsInEveryTier) {
  for (const char* prof : {"rotor10", "mono023", "clr11", "clr11.tiered"}) {
    VirtualMachine vm;
    const auto spin = build_spin(vm.module(), "svc.spin");
    ExecutionService svc(vm, profiles::by_name(prof),
                         {.workers = 1, .warm_start = nullptr});
    svc.add_tenant({.name = "a", .deadline_ms = 50});
    const JobResult r =
        svc.submit("a", spin, {Slot::from_i32(1 << 30)}).wait();
    ASSERT_EQ(r.outcome, JobOutcome::KilledDeadline) << prof;
    EXPECT_GE(r.run_ns, 50'000'000) << prof;
    // Deadline-only tenants still arm the meter (with the fuel axis clamped
    // to infinity), so the job's work is accounted even though fuel never
    // kills it.
    EXPECT_GT(r.fuel_spent, 0u) << prof;
    EXPECT_EQ(svc.tenant_stats("a").jobs_killed_deadline, 1u) << prof;
  }
}

TEST(Service, DeadlineExceededIsCatchableInIl) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // try { spin-loop } catch (DeadlineExceeded) { return -1; }
  ILBuilder b(mod, "svc.catch_deadline", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto res = b.add_local(ValType::I32);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  auto loop = b.new_label();
  auto done = b.new_label();
  b.ldc_i4(0).stloc(res);
  b.ldc_i4(0).stloc(i);
  b.bind(t0);
  b.bind(loop);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(loop);
  b.bind(done);
  b.ldc_i4(1).stloc(res);
  b.leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.deadline_exceeded_class());
  b.bind(h);
  b.pop().ldc_i4(-1).stloc(res).leave(out);
  b.bind(out);
  b.ldloc(res).ret();
  const auto catcher = b.finish();

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "a", .deadline_ms = 50});
  const JobResult r = svc.submit("a", catcher, {Slot::from_i32(1 << 30)}).wait();
  EXPECT_EQ(r.outcome, JobOutcome::Completed);
  EXPECT_EQ(r.value.i32, -1);
}

// PR 10: deficit round-robin over per-tenant sub-queues replaced the global
// FIFO. With the single worker parked behind the gate, the dispatch order of
// a pre-filled backlog is a pure function of the queues and weights.
TEST(Service, WeightedSchedulingInterleavesByWeight) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto gate = build_gate(mod, "svc.gate");
  const auto spin = build_spin(mod, "svc.spin");

  VMContext& ctx = vm.main_context();
  ObjRef lock = vm.heap().alloc_instance(vm.thread_class(), &ctx.tlab);
  Pinned lock_pin(vm, lock);
  vm.monitors().enter(ctx, lock);

  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 1, .warm_start = nullptr});
  svc.add_tenant({.name = "gate"});
  svc.add_tenant({.name = "heavy", .weight = 3});
  svc.add_tenant({.name = "light", .weight = 1});
  auto blocker = svc.submit("gate", gate, {Slot::from_ref(lock)});
  // The backlog below must be fully queued before the worker frees up; the
  // handshake proves the worker is parked inside the gate job first.
  ASSERT_TRUE(vm.monitors().wait(ctx, lock));

  std::mutex order_mu;
  std::string order;
  const auto record = [&](char tag) {
    return [&order_mu, &order, tag](const JobResult&) {
      std::lock_guard<std::mutex> g(order_mu);
      order.push_back(tag);
    };
  };
  std::vector<service::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(
        svc.submit("heavy", spin, {Slot::from_i32(10)}, record('H')));
  }
  for (int i = 0; i < 2; ++i) {
    handles.push_back(
        svc.submit("light", spin, {Slot::from_i32(10)}, record('L')));
  }
  vm.monitors().pulse(ctx, lock);
  vm.monitors().exit(ctx, lock);
  EXPECT_EQ(blocker.wait(&ctx).outcome, JobOutcome::Completed);
  for (auto& h : handles) {
    EXPECT_EQ(h.wait(&ctx).outcome, JobOutcome::Completed);
  }
  svc.drain(&ctx);
  std::lock_guard<std::mutex> g(order_mu);
  // heavy serves 3 per turn, light 1: HHH L HHH L.
  EXPECT_EQ(order, "HHHLHHHL");
}

TEST(Service, ConcurrentSubmissionFromEightThreads) {
  VirtualMachine vm;
  const auto spin = build_spin(vm.module(), "svc.spin");
  ExecutionService svc(vm, profiles::clr11(),
                       {.workers = 8, .warm_start = nullptr});
  const std::string tenants[] = {"t0", "t1", "t2", "t3"};
  for (int t = 0; t < 4; ++t) {
    svc.add_tenant({.name = tenants[t],
                    .fuel_per_job = t % 2 == 0 ? 0u : 1'000'000u});
  }
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const int n = 100 + (t * kJobsPerThread + j) % 900;
        const JobResult r =
            svc.submit(tenants[t % 4], spin, {Slot::from_i32(n)}).wait();
        if (r.outcome == JobOutcome::Completed &&
            r.value.i32 == (n - 1) * n / 2) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  svc.drain();
  EXPECT_EQ(ok.load(), kThreads * kJobsPerThread);
  std::uint64_t total = 0;
  for (int t = 0; t < 4; ++t) {
    total += svc.tenant_stats(tenants[t]).jobs_completed;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kJobsPerThread));
}

}  // namespace
}  // namespace hpcnet::test
