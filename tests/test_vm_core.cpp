// Core VM semantics: every opcode class exercised on all three engine tiers,
// requiring bit-identical results across tiers; plus heap primitives, module
// metadata and the CIL/register-IR disassemblers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "vm/disasm.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

TEST(VmCore, ReturnsConstant) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "const42", {{}, ValType::I32});
  b.ldc_i4(42).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, 42);
}

TEST(VmCore, AddsArguments) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "add2", {{ValType::I32, ValType::I32}, ValType::I32});
  b.ldarg(0).ldarg(1).add().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(40), Slot::from_i32(2)}).i32, 42);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(-7), Slot::from_i32(7)}).i32, 0);
}

TEST(VmCore, IntegerWraparound) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "wrap", {{}, ValType::I32});
  b.ldc_i4(std::numeric_limits<std::int32_t>::max()).ldc_i4(1).add().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, std::numeric_limits<std::int32_t>::min());
}

TEST(VmCore, LoopSum) {
  VMFixture f;
  // sum = 0; for (i = 1; i <= n; ++i) sum += i; return sum;
  ILBuilder b(f.vm.module(), "loopsum", {{ValType::I32}, ValType::I32});
  const auto sum = b.add_local(ValType::I32);
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto body = b.new_label();
  b.ldc_i4(0).stloc(sum);
  b.ldc_i4(1).stloc(i);
  b.br(cond);
  b.bind(body);
  b.ldloc(sum).ldloc(i).add().stloc(sum);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).ble(body);
  b.ldloc(sum).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(100)}).i32, 5050);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(0)}).i32, 0);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(1)}).i32, 1);
}

TEST(VmCore, IntegerDivisionTruncatesTowardZero) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "idiv", {{ValType::I32, ValType::I32}, ValType::I32});
  b.ldarg(0).ldarg(1).div().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(7), Slot::from_i32(2)}).i32, 3);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(-7), Slot::from_i32(2)}).i32, -3);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(7), Slot::from_i32(-2)}).i32, -3);
}

TEST(VmCore, DivideByZeroThrows) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "divzero", {{}, ValType::I32});
  b.ldc_i4(1).ldc_i4(0).div().ret();
  const auto m = b.finish();
  verify(f.vm.module(), m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    try {
      e->invoke(ctx, m, {});
      FAIL() << e->name() << ": expected DivideByZeroException";
    } catch (const ManagedException& ex) {
      EXPECT_EQ(ex.class_name(), "System.DivideByZeroException") << e->name();
    }
  }
}

TEST(VmCore, DivisionOverflowThrowsArithmetic) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "divovf", {{}, ValType::I32});
  b.ldc_i4(std::numeric_limits<std::int32_t>::min()).ldc_i4(-1).div().ret();
  const auto m = b.finish();
  verify(f.vm.module(), m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    EXPECT_THROW(e->invoke(ctx, m, {}), ManagedException) << e->name();
  }
}

TEST(VmCore, Int64Arithmetic) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "l64", {{ValType::I64, ValType::I64}, ValType::I64});
  // (a * b) - (a / b) + (a % b)
  b.ldarg(0).ldarg(1).mul();
  b.ldarg(0).ldarg(1).div();
  b.sub();
  b.ldarg(0).ldarg(1).rem();
  b.add().ret();
  const auto m = b.finish();
  const std::int64_t a = 123456789012LL, bb = 9876543LL;
  const std::int64_t want = a * bb - a / bb + a % bb;
  EXPECT_EQ(f.run_all(m, {Slot::from_i64(a), Slot::from_i64(bb)}).i64, want);
}

TEST(VmCore, FloatAndDoubleArithmetic) {
  VMFixture f;
  {
    ILBuilder b(f.vm.module(), "f32ops", {{ValType::F32, ValType::F32}, ValType::F32});
    b.ldarg(0).ldarg(1).mul().ldarg(0).ldarg(1).div().add().ret();
    const auto m = b.finish();
    const float x = 3.5f, y = 1.25f;
    EXPECT_FLOAT_EQ(f.run_all(m, {Slot::from_f32(x), Slot::from_f32(y)}).f32,
                    x * y + x / y);
  }
  {
    ILBuilder b(f.vm.module(), "f64ops", {{ValType::F64, ValType::F64}, ValType::F64});
    b.ldarg(0).ldarg(1).sub().ldarg(1).rem().ret();
    const auto m = b.finish();
    const double x = 10.75, y = 3.0;
    EXPECT_DOUBLE_EQ(f.run_all(m, {Slot::from_f64(x), Slot::from_f64(y)}).f64,
                     std::fmod(x - y, y));
  }
}

TEST(VmCore, BitwiseAndShifts) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "bits", {{ValType::I32}, ValType::I32});
  // ((x << 3) ^ (x >> 1)) & ~(x | 0xFF), plus an unsigned shift mix
  b.ldarg(0).ldc_i4(3).shl();
  b.ldarg(0).ldc_i4(1).shr();
  b.xor_();
  b.ldarg(0).ldc_i4(0xFF).or_().not_();
  b.and_();
  b.ldarg(0).ldc_i4(4).shr_un();
  b.xor_();
  b.ret();
  const auto m = b.finish();
  auto want = [](std::int32_t x) {
    const std::int32_t t = ((x << 3) ^ (x >> 1)) & ~(x | 0xFF);
    return t ^ static_cast<std::int32_t>(static_cast<std::uint32_t>(x) >> 4);
  };
  for (std::int32_t x : {0, 1, -1, 12345, -98765,
                         std::numeric_limits<std::int32_t>::min()}) {
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(x)}).i32, want(x)) << x;
  }
}

TEST(VmCore, Comparisons) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "cmp3", {{ValType::F64, ValType::F64}, ValType::I32});
  // clt + cgt + ceq encoded as (a<b) + 2*(a>b) + 4*(a==b)
  b.ldarg(0).ldarg(1).clt();
  b.ldarg(0).ldarg(1).cgt().ldc_i4(2).mul();
  b.add();
  b.ldarg(0).ldarg(1).ceq().ldc_i4(4).mul();
  b.add().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_f64(1), Slot::from_f64(2)}).i32, 1);
  EXPECT_EQ(f.run_all(m, {Slot::from_f64(2), Slot::from_f64(1)}).i32, 2);
  EXPECT_EQ(f.run_all(m, {Slot::from_f64(2), Slot::from_f64(2)}).i32, 4);
  // NaN: all ordered comparisons false, equality false.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(f.run_all(m, {Slot::from_f64(nan), Slot::from_f64(1)}).i32, 0);
}

TEST(VmCore, Conversions) {
  VMFixture f;
  {
    ILBuilder b(f.vm.module(), "cv1", {{ValType::F64}, ValType::I32});
    b.ldarg(0).conv_i4().ret();
    const auto m = b.finish();
    EXPECT_EQ(f.run_all(m, {Slot::from_f64(3.99)}).i32, 3);
    EXPECT_EQ(f.run_all(m, {Slot::from_f64(-3.99)}).i32, -3);
    EXPECT_EQ(f.run_all(m, {Slot::from_f64(1e20)}).i32,
              std::numeric_limits<std::int32_t>::min());
  }
  {
    ILBuilder b(f.vm.module(), "cv2", {{ValType::I32}, ValType::I32});
    b.ldarg(0).conv_u1().ret();
    const auto m = b.finish();
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(-1)}).i32, 255);
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(256)}).i32, 0);
  }
  {
    ILBuilder b(f.vm.module(), "cv3", {{ValType::I32}, ValType::I32});
    b.ldarg(0).conv_i1().ret();
    const auto m = b.finish();
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(255)}).i32, -1);
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(127)}).i32, 127);
  }
  {
    ILBuilder b(f.vm.module(), "cv4", {{ValType::I64}, ValType::F64});
    b.ldarg(0).conv_r8().ret();
    const auto m = b.finish();
    EXPECT_DOUBLE_EQ(f.run_all(m, {Slot::from_i64(1LL << 40)}).f64,
                     static_cast<double>(1LL << 40));
  }
  {
    ILBuilder b(f.vm.module(), "cv5", {{ValType::F32}, ValType::F64});
    b.ldarg(0).conv_r8().ret();
    const auto m = b.finish();
    EXPECT_DOUBLE_EQ(f.run_all(m, {Slot::from_f32(0.5f)}).f64, 0.5);
  }
}

TEST(VmCore, Calls) {
  VMFixture f;
  ILBuilder sq(f.vm.module(), "square", {{ValType::I32}, ValType::I32});
  sq.ldarg(0).ldarg(0).mul().ret();
  const auto msq = sq.finish();

  ILBuilder b(f.vm.module(), "sumsq", {{ValType::I32, ValType::I32}, ValType::I32});
  b.ldarg(0).call(msq).ldarg(1).call(msq).add().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(3), Slot::from_i32(4)}).i32, 25);
}

TEST(VmCore, RecursionFibonacci) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "fib", {{ValType::I32}, ValType::I32});
  auto rec = b.new_label();
  b.ldarg(0).ldc_i4(2).bge(rec);
  b.ldarg(0).ret();
  b.bind(rec);
  // fib(n-1) + fib(n-2): forward reference to self via the builder's id is
  // not available pre-finish, so use a driver that patches through a thunk.
  // Instead: self-call by known id = next method id.
  const auto self_id = static_cast<std::int32_t>(mod.method_count());
  b.ldarg(0).ldc_i4(1).sub().call(self_id);
  b.ldarg(0).ldc_i4(2).sub().call(self_id);
  b.add().ret();
  const auto m = b.finish();
  ASSERT_EQ(m, self_id);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(15)}).i32, 610);
}

TEST(VmCore, ArgsAndLocalsIndependent) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "argloc", {{ValType::I32}, ValType::I32});
  const auto l0 = b.add_local(ValType::I32);
  b.ldarg(0).ldc_i4(10).add().stloc(l0);
  b.ldc_i4(99).starg(0);
  b.ldloc(l0).ldarg(0).add().ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(5)}).i32, 114);
}

TEST(VmCore, DupAndPop) {
  VMFixture f;
  ILBuilder b(f.vm.module(), "duppop", {{ValType::I32}, ValType::I32});
  b.ldarg(0).dup().mul();   // x*x
  b.ldc_i4(777).pop();      // push then discard
  b.ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(9)}).i32, 81);
}

TEST(VmCore, ManyLocalsBeyondEnregistrationLimit) {
  // Exercises the CLR 64-local spill path: a method with 80 locals summed in
  // a chain must still compute correctly on the optimizing tier.
  VMFixture f;
  ILBuilder b(f.vm.module(), "manylocals", {{}, ValType::I32});
  constexpr int kLocals = 80;
  std::vector<std::int32_t> locs;
  for (int i = 0; i < kLocals; ++i) locs.push_back(b.add_local(ValType::I32));
  for (int i = 0; i < kLocals; ++i) {
    b.ldc_i4(i + 1).stloc(locs[static_cast<std::size_t>(i)]);
  }
  b.ldc_i4(0);
  for (int i = 0; i < kLocals; ++i) {
    b.ldloc(locs[static_cast<std::size_t>(i)]).add();
  }
  b.ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m).i32, kLocals * (kLocals + 1) / 2);
}

TEST(Heap, ElemSizes) {
  EXPECT_EQ(elem_size(ValType::I32), 4u);
  EXPECT_EQ(elem_size(ValType::I64), 8u);
  EXPECT_EQ(elem_size(ValType::F32), 4u);
  EXPECT_EQ(elem_size(ValType::F64), 8u);
  EXPECT_EQ(elem_size(ValType::Ref), sizeof(void*));
}

TEST(Heap, NegativeSizesRejected) {
  VirtualMachine vm;
  EXPECT_THROW(vm.heap().alloc_array(ValType::I32, -1), std::invalid_argument);
  EXPECT_THROW(vm.heap().alloc_matrix2(ValType::F64, -1, 4),
               std::invalid_argument);
}

TEST(Heap, FreshAllocationsAreZeroed) {
  VirtualMachine vm;
  ObjRef a = vm.heap().alloc_array(ValType::F64, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a->f64_data()[i], 0.0);
  ObjRef m = vm.heap().alloc_matrix2(ValType::I32, 3, 5);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(m->i32_data()[i], 0);
}

TEST(Heap, StringRoundTrip) {
  VirtualMachine vm;
  ObjRef s = vm.heap().alloc_string("managed string");
  EXPECT_EQ(string_value(s), "managed string");
  EXPECT_EQ(s->length, 14);
  EXPECT_EQ(string_value(nullptr), "");
}

TEST(Module, SubclassChains) {
  VirtualMachine vm;
  Module& m = vm.module();
  EXPECT_TRUE(m.is_subclass(m.divide_by_zero_class(), m.arithmetic_class()));
  EXPECT_TRUE(m.is_subclass(m.divide_by_zero_class(), m.exception_class()));
  EXPECT_FALSE(m.is_subclass(m.exception_class(), m.divide_by_zero_class()));
  EXPECT_TRUE(m.is_subclass(m.exception_class(), m.exception_class()));
}

TEST(Module, DerivedClassInheritsFieldLayout) {
  VirtualMachine vm;
  Module& m = vm.module();
  const auto base = m.define_class("d.Base", {{"a", ValType::I32}});
  const auto derived =
      m.define_class("d.Derived", {{"b", ValType::F64}}, base);
  EXPECT_EQ(m.klass(derived).field_index("a"), 0);
  EXPECT_EQ(m.klass(derived).field_index("b"), 1);
}

TEST(Module, StringInterning) {
  VirtualMachine vm;
  const auto a = vm.module().intern_string("hello");
  const auto b = vm.module().intern_string("hello");
  const auto c = vm.module().intern_string("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(vm.module().string_at(a), "hello");
}

TEST(Disasm, CilListingShowsStructure) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "dis_demo", {{ValType::I32}, ValType::I32});
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  b.bind(t0);
  b.ldarg(0).ldc_i4(2).div().pop();
  b.leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, vm.module().divide_by_zero_class());
  b.bind(h);
  b.pop().leave(out);
  b.bind(out);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const std::string text = disassemble_cil(vm.module(), m);
  EXPECT_NE(text.find("dis_demo"), std::string::npos);
  EXPECT_NE(text.find("div"), std::string::npos);
  EXPECT_NE(text.find(".catch"), std::string::npos);
  EXPECT_NE(text.find("DivideByZero"), std::string::npos);
}

TEST(Disasm, CodeQualityCountsShrinkWithOptimization) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "cq_demo", {{ValType::I32}, ValType::I32});
  const auto x = b.add_local(ValType::I32);
  b.ldarg(0).ldc_i4(3).mul().stloc(x);
  b.ldloc(x).ldc_i4(1).add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const auto q = code_quality(vm, m, profiles::clr11());
  EXPECT_EQ(q.cil_instructions, vm.module().method(m).code.size());
  EXPECT_LT(q.optimized_instructions, q.cil_instructions);
}

}  // namespace
}  // namespace hpcnet::test
