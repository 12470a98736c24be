// Structured exception handling across all three engine tiers: catch
// matching (including subclass hierarchies), finally on both the normal
// (leave) and exceptional paths, nesting, rethrow, cross-frame propagation.
#include <gtest/gtest.h>

#include "vm_test_util.hpp"

#if defined(__SANITIZE_ADDRESS__)
// UnservableLargeMatrixThrowsOutOfMemory asks the allocator for 2^63 bytes.
// ASan aborts on such a request by default; with this option it returns
// null like the system allocator, and the heap's refusal path is what runs.
extern "C" const char* __asan_default_options() {
  return "allocator_may_return_null=1";
}
#endif

namespace hpcnet::test {
namespace {

TEST(VmExceptions, CatchByExactClass) {
  VMFixture f;
  Module& mod = f.vm.module();
  // try { throw new IndexOutOfRange; } catch (IndexOutOfRange) { return 7; }
  ILBuilder b(mod, "catch_exact", {{}, ValType::I32});
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  b.bind(t0);
  b.newobj(mod.index_range_class()).throw_();
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.index_range_class());
  b.bind(h);
  b.pop().leave(out);
  b.bind(out);
  b.ldc_i4(7).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 7);
}

TEST(VmExceptions, CatchBySuperclassMatchesDerived) {
  VMFixture f;
  Module& mod = f.vm.module();
  // DivideByZero derives from Arithmetic derives from Exception.
  ILBuilder b(mod, "catch_super", {{}, ValType::I32});
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  b.bind(t0);
  b.ldc_i4(1).ldc_i4(0).div().pop();
  b.leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.arithmetic_class());
  b.bind(h);
  b.pop().leave(out);
  b.bind(out);
  b.ldc_i4(11).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 11);
}

TEST(VmExceptions, NonMatchingCatchPropagates) {
  VMFixture f;
  Module& mod = f.vm.module();
  // try { throw NullReference } catch (DivideByZero) -> must escape.
  ILBuilder b(mod, "catch_miss", {{}, ValType::I32});
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  b.bind(t0);
  b.newobj(mod.null_reference_class()).throw_();
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.divide_by_zero_class());
  b.bind(h);
  b.pop().leave(out);
  b.bind(out);
  b.ldc_i4(1).ret();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, {});
      FAIL() << e->name();
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.class_name(), "System.NullReferenceException") << e->name();
    }
  }
}

TEST(VmExceptions, FinallyRunsOnNormalLeave) {
  VMFixture f;
  Module& mod = f.vm.module();
  // x = 1; try { x = 2; leave } finally { x = x * 10 } return x; -> 20
  ILBuilder b(mod, "finally_leave", {{}, ValType::I32});
  const auto x = b.add_local(ValType::I32);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto fin = b.new_label();
  auto out = b.new_label();
  b.ldc_i4(1).stloc(x);
  b.bind(t0);
  b.ldc_i4(2).stloc(x);
  b.leave(out);
  b.bind(t1);
  b.add_finally(t0, t1, fin);
  b.bind(fin);
  b.ldloc(x).ldc_i4(10).mul().stloc(x);
  b.endfinally();
  b.bind(out);
  b.ldloc(x).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 20);
}

TEST(VmExceptions, FinallyRunsOnExceptionPath) {
  VMFixture f;
  Module& mod = f.vm.module();
  // try { try { throw } finally { sideffect } } catch { return side }
  std::int32_t holder = mod.define_class("test.FinallyHolder", {}, -1,
                                         {{"count", ValType::I32}});
  ILBuilder b(mod, "finally_throw", {{}, ValType::I32});
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto fin = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  auto outer_end = b.new_label();
  b.ldc_i4(0).stsfld(holder, "count");
  b.bind(t0);
  b.newobj(mod.exception_class()).throw_();
  b.bind(t1);
  b.add_finally(t0, t1, fin);
  b.bind(fin);
  b.ldsfld(holder, "count").ldc_i4(100).add().stsfld(holder, "count");
  b.endfinally();
  b.bind(outer_end);
  // Outer catch covering the whole inner region (incl. the finally body).
  b.add_catch(t0, outer_end, h, mod.exception_class());
  b.bind(h);
  b.pop().leave(out);
  b.bind(out);
  b.ldsfld(holder, "count").ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 100);
}

TEST(VmExceptions, NestedFinallyOrder) {
  VMFixture f;
  Module& mod = f.vm.module();
  // Leave from the inner try runs inner then outer finally:
  // count = count*10 + 1 (inner), then *10 + 2 (outer) -> 12.
  std::int32_t holder = mod.define_class("test.NestHolder", {}, -1,
                                         {{"v", ValType::I32}});
  ILBuilder b(mod, "nested_finally", {{}, ValType::I32});
  auto o0 = b.new_label();
  auto i0 = b.new_label();
  auto i1 = b.new_label();
  auto ifin = b.new_label();
  auto o1 = b.new_label();
  auto ofin = b.new_label();
  auto out = b.new_label();
  b.ldc_i4(0).stsfld(holder, "v");
  b.bind(o0);
  b.bind(i0);
  b.leave(out);
  b.bind(i1);
  // Inner handlers first (innermost-first ordering).
  b.add_finally(i0, i1, ifin);
  b.bind(ifin);
  b.ldsfld(holder, "v").ldc_i4(10).mul().ldc_i4(1).add().stsfld(holder, "v");
  b.endfinally();
  b.bind(o1);
  b.add_finally(o0, o1, ofin);
  b.bind(ofin);
  b.ldsfld(holder, "v").ldc_i4(10).mul().ldc_i4(2).add().stsfld(holder, "v");
  b.endfinally();
  b.bind(out);
  b.ldsfld(holder, "v").ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 12);
}

TEST(VmExceptions, RethrowFromCatchReachesOuter) {
  VMFixture f;
  Module& mod = f.vm.module();
  // outer try { inner try { throw DivByZero } catch (Arithmetic) { throw
  // NullRef } } catch (Exception) { return 5 }
  ILBuilder b(mod, "rethrow", {{}, ValType::I32});
  auto i0 = b.new_label();
  auto i1 = b.new_label();
  auto ih = b.new_label();
  auto ih_end = b.new_label();
  auto oh = b.new_label();
  auto out = b.new_label();
  b.bind(i0);
  b.newobj(mod.divide_by_zero_class()).throw_();
  b.bind(i1);
  b.add_catch(i0, i1, ih, mod.arithmetic_class());
  b.bind(ih);
  b.pop();
  b.newobj(mod.null_reference_class()).throw_();
  b.bind(ih_end);
  // Outer region covers the inner try AND the inner handler body.
  b.add_catch(i0, ih_end, oh, mod.exception_class());
  b.bind(oh);
  b.pop().leave(out);
  b.bind(out);
  b.ldc_i4(5).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 5);
}

TEST(VmExceptions, PropagatesThroughCallFrames) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder inner(mod, "prop_inner", {{}, ValType::I32});
  inner.ldc_i4(1).ldc_i4(0).div().ret();
  const auto im = inner.finish();

  ILBuilder mid(mod, "prop_mid", {{}, ValType::I32});
  mid.call(im).ldc_i4(1).add().ret();
  const auto mm = mid.finish();

  ILBuilder outer(mod, "prop_outer", {{}, ValType::I32});
  auto t0 = outer.new_label();
  auto t1 = outer.new_label();
  auto h = outer.new_label();
  auto out = outer.new_label();
  outer.bind(t0);
  outer.call(mm).pop();
  outer.leave(out);
  outer.bind(t1);
  outer.add_catch(t0, t1, h, mod.divide_by_zero_class());
  outer.bind(h);
  outer.pop().leave(out);
  outer.bind(out);
  outer.ldc_i4(99).ret();
  const auto om = outer.finish();
  EXPECT_EQ(f.run_all(om).i32, 99);
}

TEST(VmExceptions, ExceptionMessageSurvivesToNative) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "msg", {{}, ValType::I32});
  const auto exc = b.add_local(ValType::Ref);
  b.newobj(mod.exception_class()).stloc(exc);
  b.ldloc(exc).ldstr("hello from managed code").stfld(mod.exception_class(), 0);
  b.ldloc(exc).throw_();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, {});
      FAIL();
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.message(), "hello from managed code") << e->name();
    }
  }
}

TEST(VmExceptions, NullChecksThrowNullReference) {
  VMFixture f;
  Module& mod = f.vm.module();
  const std::int32_t cls = mod.define_class("test.NullTarget",
                                            {{"f", ValType::I32}});
  struct Case {
    const char* name;
    std::function<void(ILBuilder&)> body;
  };
  const std::vector<Case> cases = {
      {"null_ldfld", [&](ILBuilder& b) { b.ldnull().ldfld(cls, 0); }},
      {"null_ldlen", [&](ILBuilder& b) { b.ldnull().ldlen(); }},
      {"null_ldelem",
       [&](ILBuilder& b) { b.ldnull().ldc_i4(0).ldelem(ValType::I32); }},
      {"null_unbox", [&](ILBuilder& b) { b.ldnull().unbox(ValType::I32); }},
      {"null_throw", [&](ILBuilder& b) {
         b.ldnull().throw_();
         b.ldc_i4(0);  // unreachable; keeps ret below for other cases only
       }},
  };
  for (const auto& c : cases) {
    ILBuilder b(mod, c.name, {{}, ValType::I32});
    c.body(b);
    if (std::string(c.name) != "null_throw") b.conv_i4();
    b.ret();
    const auto m = b.finish();
    verify(mod, m);
    VMContext& ctx = f.vm.main_context();
    for (auto& e : f.engines) {
      ctx.engine = e.get();
      try {
        e->invoke(ctx, m, {});
        FAIL() << c.name << " on " << e->name();
      } catch (const ManagedException& ex) {
        EXPECT_EQ(ex.class_name(), "System.NullReferenceException")
            << c.name << " on " << e->name();
      }
    }
  }
}

TEST(VmExceptions, IndexOutOfRange) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "oob", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  b.ldc_i4(4).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldarg(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    Slot ok = Slot::from_i32(3);
    EXPECT_EQ(e->invoke(ctx, m, std::span<const Slot>(&ok, 1)).i32, 0);
    for (std::int32_t bad : {-1, 4, 1 << 30}) {
      Slot arg = Slot::from_i32(bad);
      try {
        e->invoke(ctx, m, std::span<const Slot>(&arg, 1));
        FAIL() << e->name() << " idx=" << bad;
      } catch (const ManagedException& ex) {
        EXPECT_EQ(ex.class_name(), "System.IndexOutOfRangeException")
            << e->name();
      }
    }
  }
}

TEST(VmExceptions, OverflowingMatrixSizeThrowsOutOfMemory) {
  // rows * cols * 8 passes 2^64 and wraps to a 537,552-byte payload. The
  // heap must refuse the matrix, not hand out a short payload under dims
  // that every [r, c] bounds check then trusts.
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "bigmat", {{ValType::I32, ValType::I32}, ValType::I32});
  const auto mat = b.add_local(ValType::Ref);
  b.ldarg(0).ldarg(1).newmat(ValType::F64).stloc(mat);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  const Slot dims[] = {Slot::from_i32(2147437309), Slot::from_i32(1073764994)};
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, dims);
      FAIL() << e->name();
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.class_name(), "System.OutOfMemoryException") << e->name();
    }
  }
}

TEST(VmExceptions, UnservableLargeMatrixThrowsOutOfMemory) {
  // (2^31 - 1) * 2^30 * 4 bytes is just under 2^63: representable in
  // size_t, so it passes the overflow check, but no system can serve it.
  // The large-object path must refuse it like a spent budget, not let
  // std::bad_alloc escape the engine.
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "hugemat", {{ValType::I32, ValType::I32}, ValType::I32});
  const auto mat = b.add_local(ValType::Ref);
  b.ldarg(0).ldarg(1).newmat(ValType::I32).stloc(mat);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  const Slot dims[] = {Slot::from_i32(2147483647), Slot::from_i32(1 << 30)};
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, dims);
      FAIL() << e->name();
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.class_name(), "System.OutOfMemoryException") << e->name();
    }
  }
}

TEST(VmExceptions, UnboxWrongTypeThrowsInvalidCast) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "badunbox", {{}, ValType::I64});
  b.ldc_i4(5).box(ValType::I32).unbox(ValType::I64).ret();
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, {});
      FAIL() << e->name();
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.class_name(), "System.InvalidCastException") << e->name();
    }
  }
}

// A managed stack overflow is a native exception unwinding through every
// live frame of every tier on the way out. Each frame must unlink its GC
// root and release its arena block as it goes, and invoke must restore the
// caller's engine: a root left pointing at a dead frame crashes the next
// collection.
TEST(VmExceptions, ManagedStackOverflowLeavesContextUsable) {
  for (const char* profile :
       {"clr11", "clr11.vec", "mono023", "rotor10", "clr11.tiered"}) {
    SCOPED_TRACE(profile);
    VirtualMachine vm;
    Module& mod = vm.module();
    const auto deep = build_deep_recursion(mod, "deep");
    ILBuilder ok(mod, "after_overflow", {{}, ValType::I32});
    ok.ldc_i4(7).newarr(ValType::F64).ldlen().ret();
    const auto after = ok.finish();
    verify(mod, deep);
    verify(mod, after);
    auto engine = make_engine(vm, profiles::by_name(profile));
    VMContext& ctx = vm.main_context();
    ctx.engine = nullptr;
    GcFrame* const top = ctx.top_frame;
    const Slot arg = Slot::from_i32(0);
    try {
      engine->invoke(ctx, deep, {&arg, 1});
      FAIL() << "recursion returned";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "managed stack overflow");
    }
    EXPECT_EQ(ctx.top_frame, top);
    EXPECT_EQ(ctx.engine, nullptr);
    vm.collect();
    EXPECT_EQ(engine->invoke(ctx, after, {}).i32, 7);
  }
}

}  // namespace
}  // namespace hpcnet::test
