// Generational collector: old->young write barriers (STFLD / STELEM / box)
// in all three engine tiers, promotion semantics (minor survivors turn old,
// old garbage waits for a major), AllocBudget interaction with promotion,
// and a concurrent-mutator stress against the parallel mark/sweep pool.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "vm/intrinsics.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

/// Allocates an instance of `class_id`, pins it and runs a major collection
/// so it is promoted: the returned object is an *old* root whose young edges
/// only a write barrier can keep alive across a minor collection.
ObjRef make_old_instance(VMFixture& f, std::int32_t class_id) {
  ObjRef obj = f.vm.heap().alloc_instance(class_id);
  f.vm.pin(obj);
  f.vm.collect();  // major: every survivor promotes in place
  EXPECT_TRUE(obj->is_old());
  return obj;
}

// An old object's ref field is overwritten with a freshly allocated (young)
// array; the only thing keeping that array alive across the next minor
// collection is the card the tier's write barrier dirtied. Run per tier so a
// missing barrier in any one engine fails by name.
TEST(VmGcGen, StfldWriteBarrierKeepsYoungAliveAllTiers) {
  VMFixture f;
  Module& mod = f.vm.module();
  const std::int32_t holder =
      mod.define_class("gen.Holder", {{"ref", ValType::Ref}});

  // store(h): a = new i32[32]; a[7] = 123; h.ref = a; return 0
  ILBuilder b(mod, "gen_stfld", {{ValType::Ref}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  b.ldc_i4(32).newarr(ValType::I32).stloc(a);
  b.ldloc(a).ldc_i4(7).ldc_i4(123).stelem(ValType::I32);
  b.ldarg(0).ldloc(a).stfld(holder, "ref");
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(mod, m);

  ObjRef h = make_old_instance(f, holder);
  for (std::size_t tier = 0; tier < f.engines.size(); ++tier) {
    const auto before = f.vm.heap().stats();
    EXPECT_EQ(f.run_on(tier, m, {Slot::from_ref(h)}).i32, 0)
        << f.engines[tier]->name();
    f.vm.collect(GcKind::Minor);
    EXPECT_EQ(f.vm.heap().stats().minor_collections,
              before.minor_collections + 1);
    ObjRef stored = h->fields()[0].ref;
    ASSERT_NE(stored, nullptr) << f.engines[tier]->name();
    EXPECT_EQ(stored->kind, ObjKind::Array) << f.engines[tier]->name();
    EXPECT_EQ(stored->i32_data()[7], 123) << f.engines[tier]->name();
    // The survivor was promoted by the minor collection.
    EXPECT_TRUE(stored->is_old()) << f.engines[tier]->name();
  }
  f.vm.unpin(h);
}

// Same shape through an old Ref *array* and STELEM.
TEST(VmGcGen, StelemWriteBarrierKeepsYoungAliveAllTiers) {
  VMFixture f;
  Module& mod = f.vm.module();

  // store(arr): a = new i32[16]; a[2] = 77; arr[3] = a; return 0
  ILBuilder b(mod, "gen_stelem", {{ValType::Ref}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  b.ldc_i4(16).newarr(ValType::I32).stloc(a);
  b.ldloc(a).ldc_i4(2).ldc_i4(77).stelem(ValType::I32);
  b.ldarg(0).ldc_i4(3).ldloc(a).stelem(ValType::Ref);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(mod, m);

  ObjRef arr = f.vm.heap().alloc_array(ValType::Ref, 8);
  f.vm.pin(arr);
  f.vm.collect();
  ASSERT_TRUE(arr->is_old());
  for (std::size_t tier = 0; tier < f.engines.size(); ++tier) {
    EXPECT_EQ(f.run_on(tier, m, {Slot::from_ref(arr)}).i32, 0)
        << f.engines[tier]->name();
    f.vm.collect(GcKind::Minor);
    ObjRef stored = arr->ref_data()[3];
    ASSERT_NE(stored, nullptr) << f.engines[tier]->name();
    EXPECT_EQ(stored->kind, ObjKind::Array) << f.engines[tier]->name();
    EXPECT_EQ(stored->i32_data()[2], 77) << f.engines[tier]->name();
  }
  f.vm.unpin(arr);
}

// Boxing allocates the young object on the store path itself: h.ref = box 55.
TEST(VmGcGen, BoxedStoreWriteBarrierAllTiers) {
  VMFixture f;
  Module& mod = f.vm.module();
  const std::int32_t holder =
      mod.define_class("gen.BoxHolder", {{"ref", ValType::Ref}});

  ILBuilder b(mod, "gen_box", {{ValType::Ref}, ValType::I32});
  b.ldarg(0).ldc_i4(55).box(ValType::I32).stfld(holder, "ref");
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(mod, m);

  ObjRef h = make_old_instance(f, holder);
  for (std::size_t tier = 0; tier < f.engines.size(); ++tier) {
    EXPECT_EQ(f.run_on(tier, m, {Slot::from_ref(h)}).i32, 0)
        << f.engines[tier]->name();
    f.vm.collect(GcKind::Minor);
    ObjRef boxed = h->fields()[0].ref;
    ASSERT_NE(boxed, nullptr) << f.engines[tier]->name();
    EXPECT_EQ(boxed->kind, ObjKind::Boxed) << f.engines[tier]->name();
    EXPECT_EQ(boxed->fields()[0].i32, 55) << f.engines[tier]->name();
  }
  f.vm.unpin(h);
}

// Promotion threshold = one collection: a minor survivor turns old; once its
// root is dropped it is *old garbage*, which a minor must leave alone (the
// old generation is live by assumption) and only a major reclaims.
TEST(VmGcGen, OldGarbageSurvivesMinorDiesAtMajor) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  ObjRef a = heap.alloc_array(ValType::F64, 100);
  a->f64_data()[99] = 6.25;
  vm.pin(a);

  EXPECT_FALSE(a->is_old());
  vm.collect(GcKind::Minor);
  EXPECT_TRUE(a->is_old());  // survivor promoted in place
  const auto promoted = heap.stats();
  EXPECT_GT(promoted.promoted_bytes, 0u);
  EXPECT_GT(promoted.old_bytes, 0u);
  EXPECT_EQ(promoted.minor_collections, 1u);

  vm.unpin(a);  // now old garbage
  const auto live_before = heap.stats().live_objects;
  vm.collect(GcKind::Minor);
  // A minor does not sweep the old generation: the object is still counted
  // live and its payload is untouched by any reuse.
  EXPECT_EQ(heap.stats().live_objects, live_before);
  EXPECT_EQ(a->f64_data()[99], 6.25);

  vm.collect();  // major reclaims it
  const auto after = heap.stats();
  EXPECT_EQ(after.live_objects, 0u);
  EXPECT_EQ(after.major_collections, 1u);
  EXPECT_EQ(after.old_bytes, 0u);
}

// Promotion must not charge the tenant's AllocBudget: the budget caps
// in-flight allocation, and a survivor's bytes were already paid for at TLAB
// refill time. A collection (minor or major) leaves the pool untouched.
TEST(VmGcGen, PromotionChargesNothingToAllocBudget) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  Tlab& tlab = vm.main_context().tlab;
  AllocBudget budget(1u << 20);  // 1 MiB

  heap.retire_tlab(tlab);
  tlab.bind_budget(&budget);
  ObjRef a = heap.alloc_array(ValType::I32, 64, &tlab);
  ASSERT_NE(a, nullptr);
  vm.pin(a);
  // Exactly one segment granule charged for the refill.
  EXPECT_EQ(tlab.budget_charged(), Heap::kSegmentBytes);
  const std::int64_t remaining = budget.remaining();
  EXPECT_EQ(remaining,
            static_cast<std::int64_t>((1u << 20) - Heap::kSegmentBytes));

  vm.collect(GcKind::Minor);  // promotes the survivor
  EXPECT_TRUE(a->is_old());
  EXPECT_EQ(budget.remaining(), remaining);
  EXPECT_EQ(tlab.budget_charged(), Heap::kSegmentBytes);

  vm.collect();  // a major must not charge either
  EXPECT_EQ(budget.remaining(), remaining);

  vm.unpin(a);
  heap.retire_tlab(tlab);
  tlab.bind_budget(nullptr);
}

// Stress for the TSan job: mutator threads bump-allocate and publish young
// objects into their own pinned (old) holders through the write barrier
// while allocation pressure drives collections through the 4-worker parallel
// mark/sweep pool. After the joins the census must partition exactly.
TEST(VmGcGen, ConcurrentMutatorsAgainstParallelCollector) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  heap.set_gc_threads(4);
  heap.set_threshold(1 << 16);  // collect early and often
  constexpr int kThreads = 4;
  constexpr int kAllocs = 3000;

  // One old ref-holder per thread, created up front and promoted by a major.
  std::vector<ObjRef> holders;
  for (int t = 0; t < kThreads; ++t) {
    ObjRef h = heap.alloc_array(ValType::Ref, 4);
    vm.pin(h);
    holders.push_back(h);
  }
  vm.collect();
  const auto before = heap.stats();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&vm, &holders, t] {
      auto ctx = vm.attach_thread(nullptr);
      ObjRef holder = holders[static_cast<std::size_t>(t)];
      for (int i = 0; i < kAllocs; ++i) {
        ObjRef a =
            vm.heap().alloc_array(ValType::I32, 8 + (i % 33), &ctx->tlab);
        a->i32_data()[0] = t * kAllocs + i;
        // Publish into the old holder exactly as the engines do: store, then
        // barrier. Only the dirtied card keeps `a` alive across minors.
        holder->ref_data()[i % 4] = a;
        gc_write_barrier(holder);
        vm.safepoint_poll(*ctx);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(vm.gc_count(), 0u);

  // The last four arrays each thread published are reachable via its holder.
  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < 4; ++s) {
      ObjRef a = holders[static_cast<std::size_t>(t)]->ref_data()[s];
      ASSERT_NE(a, nullptr);
      EXPECT_EQ(a->kind, ObjKind::Array);
      EXPECT_GE(a->i32_data()[0], t * kAllocs);
      EXPECT_LT(a->i32_data()[0], (t + 1) * kAllocs);
    }
  }

  const auto after = heap.stats();
  EXPECT_EQ(after.total_allocations - before.total_allocations,
            static_cast<std::size_t>(kThreads) * kAllocs);
  EXPECT_GT(after.minor_collections + after.major_collections, 0u);

  for (ObjRef h : holders) vm.unpin(h);
  vm.collect();
  EXPECT_EQ(heap.stats().live_objects, 0u);
  EXPECT_EQ(heap.stats().total_allocations, heap.stats().swept_objects);
}

// The census partition (allocations = swept + live) must hold across an
// interleaving of minor and major collections.
TEST(VmGcGen, CensusExactAcrossMixedCollections) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  heap.set_gc_threads(2);
  std::vector<ObjRef> keep;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 500; ++i) {
      ObjRef a = heap.alloc_array(ValType::I64, 16);
      if (i % 250 == 0) {
        vm.pin(a);
        keep.push_back(a);
      }
    }
    vm.collect(round % 3 == 2 ? GcKind::Major : GcKind::Minor);
  }
  const auto s = heap.stats();
  EXPECT_EQ(s.total_allocations - s.swept_objects, s.live_objects);
  EXPECT_EQ(s.live_objects, keep.size());
  for (ObjRef a : keep) vm.unpin(a);
  vm.collect();
  EXPECT_EQ(heap.stats().live_objects, 0u);
}

// GC.PretouchArray: a large primitive array is promoted to the old
// generation immediately, so minor collections never re-mark it, and it
// survives a minor collection with no root pointing at it (the sweep only
// walks the young tail of the large-object list).
TEST(VmGcGen, PretouchPromotesLargeArrayImmediately) {
  VMFixture f;
  Heap& heap = f.vm.heap();

  const std::size_t old_before = heap.stats().old_bytes;
  ObjRef big = heap.alloc_array(ValType::F64, 10000);  // 80 KiB: large list
  ASSERT_FALSE(big->is_old());
  heap.pretouch(big);
  EXPECT_TRUE(big->is_old());
  EXPECT_GE(heap.stats().old_bytes, old_before + 10000 * sizeof(double));
  heap.pretouch(big);  // idempotent
  EXPECT_TRUE(big->is_old());

  // Unrooted but pretouched: a minor collection must not free it.
  big->f64_data()[4321] = 2.5;
  f.vm.collect(GcKind::Minor);
  EXPECT_EQ(big->f64_data()[4321], 2.5);

  // No-op cases: null, segment-resident (small), and ref-element arrays.
  heap.pretouch(nullptr);
  ObjRef small = heap.alloc_array(ValType::I32, 8);
  heap.pretouch(small);
  EXPECT_FALSE(small->is_old());
  ObjRef refs = heap.alloc_array(ValType::Ref, 10000);
  heap.pretouch(refs);
  EXPECT_FALSE(refs->is_old());

  // A major collection still reclaims it once truly dead.
  const auto live = heap.stats().live_objects;
  f.vm.collect();
  EXPECT_LT(heap.stats().live_objects, live);
}

// The intrinsic is callable from IL in every tier and does not change
// results: fill-and-sum over a pretouched array matches across engines.
TEST(VmGcGen, PretouchIntrinsicBitIdenticalAllTiers) {
  VMFixture f;
  Module& mod = f.vm.module();

  // sum(n): a = new f64[n]; GC.PretouchArray(a);
  //         for i: a[i] = i * 0.5; s += a[i]; return (i32)s
  ILBuilder b(mod, "gen_pretouch", {{ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto s = b.add_local(ValType::F64);
  b.ldarg(0).newarr(ValType::F64).stloc(a);
  b.ldloc(a).call_intr(I_GC_PRETOUCH);
  const auto head = b.new_label();
  const auto done = b.new_label();
  b.bind(head);
  b.ldloc(i).ldarg(0).bge(done);
  b.ldloc(a).ldloc(i).ldloc(i).conv_r8().ldc_r8(0.5).mul().stelem(
      ValType::F64);
  b.ldloc(s).ldloc(a).ldloc(i).ldelem(ValType::F64).add().stloc(s);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.br(head);
  b.bind(done);
  b.ldloc(s).conv_i4().ret();
  const auto m = b.finish();
  verify(mod, m);

  f.run_all(m, {Slot::from_i32(10000)});  // large list: pretouch promotes
  f.run_all(m, {Slot::from_i32(50)});     // small: pretouch is a no-op
}

}  // namespace
}  // namespace hpcnet::test
