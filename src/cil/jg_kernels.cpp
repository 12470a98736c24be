#include "cil/common.hpp"
#include "cil/jg.hpp"

namespace hpcnet::cil {

std::int32_t build_jg_fib(vm::VirtualMachine& v) {
  return cached(v, "jg.fib.run", [&] {
    vm::Module& mod = v.module();
    ILBuilder b(mod, "jg.fib.run", {{ValType::I32}, ValType::I64});
    const auto self = static_cast<std::int32_t>(mod.method_count());
    auto recurse = b.new_label();
    b.ldarg(0).ldc_i4(2).bge(recurse);
    b.ldarg(0).conv_i8().ret();
    b.bind(recurse);
    b.ldarg(0).ldc_i4(1).sub().call(self);
    b.ldarg(0).ldc_i4(2).sub().call(self);
    b.add().ret();
    return b.finish();
  });
}

std::int32_t build_jg_sieve(vm::VirtualMachine& v) {
  return cached(v, "jg.sieve.run", [&] {
    ILBuilder b(v.module(), "jg.sieve.run", {{ValType::I32}, ValType::I32});
    const auto n = b.add_local(ValType::I32);
    const auto flags = b.add_local(ValType::Ref);
    const auto i = b.add_local(ValType::I32);
    const auto j = b.add_local(ValType::I32);
    const auto count = b.add_local(ValType::I32);
    b.ldarg(0).stloc(n);
    auto big_enough = b.new_label();
    b.ldloc(n).ldc_i4(2).bge(big_enough);
    b.ldc_i4(0).ret();
    b.bind(big_enough);
    b.ldloc(n).ldc_i4(1).add().newarr(ValType::I32).stloc(flags);
    b.ldc_i4(0).stloc(count);
    // for (i = 2; i <= n; i++)
    auto itop = b.new_label();
    auto iend = b.new_label();
    auto inext = b.new_label();
    b.ldc_i4(2).stloc(i);
    b.bind(itop);
    b.ldloc(i).ldloc(n).bgt(iend);
    b.ldloc(flags).ldloc(i).ldelem(ValType::I32).brtrue(inext);
    b.ldloc(count).ldc_i4(1).add().stloc(count);
    // mark multiples starting at i*i (i*i can overflow i32 for huge n, but
    // the benchmark sizes keep n < 46341 squared)
    {
      auto jtop = b.new_label();
      auto jend = b.new_label();
      b.ldloc(i).ldloc(i).mul().stloc(j);
      b.bind(jtop);
      b.ldloc(j).ldloc(n).bgt(jend);
      b.ldloc(j).ldc_i4(0).blt(jend);  // overflow guard
      b.ldloc(flags).ldloc(j).ldc_i4(1).stelem(ValType::I32);
      b.ldloc(j).ldloc(i).add().stloc(j);
      b.br(jtop);
      b.bind(jend);
    }
    b.bind(inext);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.br(itop);
    b.bind(iend);
    b.ldloc(count).ret();
    return b.finish();
  });
}

std::int32_t build_jg_hanoi(vm::VirtualMachine& v) {
  vm::Module& mod = v.module();
  const std::int32_t mover = cached(v, "jg.hanoi.move", [&] {
    // i64 move(i32 n, i32 from, i32 to, i32 via)
    ILBuilder b(mod, "jg.hanoi.move",
                {{ValType::I32, ValType::I32, ValType::I32, ValType::I32},
                 ValType::I64});
    const auto self = static_cast<std::int32_t>(mod.method_count());
    auto recurse = b.new_label();
    b.ldarg(0).ldc_i4(1).bgt(recurse);
    b.ldc_i8(1).ret();
    b.bind(recurse);
    b.ldarg(0).ldc_i4(1).sub().ldarg(1).ldarg(3).ldarg(2).call(self);
    b.ldc_i8(1).add();
    b.ldarg(0).ldc_i4(1).sub().ldarg(3).ldarg(2).ldarg(1).call(self);
    b.add().ret();
    return b.finish();
  });
  return cached(v, "jg.hanoi.run", [&] {
    ILBuilder b(mod, "jg.hanoi.run", {{ValType::I32}, ValType::I64});
    auto nonzero = b.new_label();
    b.ldarg(0).ldc_i4(0).bgt(nonzero);
    b.ldc_i8(0).ret();
    b.bind(nonzero);
    b.ldarg(0).ldc_i4(0).ldc_i4(2).ldc_i4(1).call(mover).ret();
    return b.finish();
  });
}

std::int32_t build_jg_heapsort(vm::VirtualMachine& v) {
  vm::Module& mod = v.module();
  // java.util.Random LCG state in a 1-element i64 array (no long fields
  // needed elsewhere; an array keeps the port compact).
  std::int32_t rnd_cls = mod.find_class("jg.Rand");
  if (rnd_cls < 0) {
    rnd_cls = mod.define_class("jg.Rand", {{"seed", ValType::I64}});
  }
  const std::int32_t rand_new = cached(v, "jg.rand.new", [&] {
    ILBuilder b(mod, "jg.rand.new", {{ValType::I64}, ValType::Ref});
    const auto st = b.add_local(ValType::Ref);
    b.newobj(rnd_cls).stloc(st);
    b.ldloc(st)
        .ldarg(0).ldc_i8(0x5DEECE66DLL).xor_()
        .ldc_i8((1LL << 48) - 1).and_()
        .stfld(rnd_cls, "seed");
    b.ldloc(st).ret();
    return b.finish();
  });
  const std::int32_t rand_next32 = cached(v, "jg.rand.next32", [&] {
    // next(32): seed = (seed * 0x5DEECE66D + 0xB) & mask; return hi 32 bits.
    ILBuilder b(mod, "jg.rand.next32", {{ValType::Ref}, ValType::I32});
    const auto s = b.add_local(ValType::I64);
    b.ldarg(0).ldfld(rnd_cls, "seed")
        .ldc_i8(0x5DEECE66DLL).mul().ldc_i8(0xBLL).add()
        .ldc_i8((1LL << 48) - 1).and_().stloc(s);
    b.ldarg(0).ldloc(s).stfld(rnd_cls, "seed");
    b.ldloc(s).ldc_i4(16).shr_un().conv_i4().ret();
    return b.finish();
  });

  return cached(v, "jg.heapsort.run", [&] {
    ILBuilder b(mod, "jg.heapsort.run", {{ValType::I32}, ValType::I64});
    const auto n = b.add_local(ValType::I32);
    const auto data = b.add_local(ValType::Ref);
    const auto rnd = b.add_local(ValType::Ref);
    const auto i = b.add_local(ValType::I32);
    const auto start = b.add_local(ValType::I32);
    const auto end = b.add_local(ValType::I32);
    const auto tmp = b.add_local(ValType::I32);
    const auto checksum = b.add_local(ValType::I64);

    b.ldarg(0).stloc(n);
    b.ldc_i8(1966).call(rand_new).stloc(rnd);
    b.ldloc(n).newarr(ValType::I32).stloc(data);
    counted_loop(b, i, n, [&] {
      b.ldloc(data).ldloc(i).ldloc(rnd).call(rand_next32)
          .stelem(ValType::I32);
    });

    // sift(start, end): inline twice would be bulky; emit as a local helper
    // method taking (ref data, i32 start, i32 end).
    const std::int32_t sift = cached(v, "jg.heapsort.sift", [&] {
      ILBuilder sb(mod, "jg.heapsort.sift",
                   {{ValType::Ref, ValType::I32, ValType::I32},
                    ValType::None});
      const auto r2 = sb.add_local(ValType::I32);
      const auto c2 = sb.add_local(ValType::I32);
      const auto t2 = sb.add_local(ValType::I32);
      auto loop = sb.new_label();
      auto done = sb.new_label();
      sb.ldarg(1).stloc(r2);
      sb.bind(loop);
      // child = root*2 + 1; if (child > end) return;
      sb.ldloc(r2).ldc_i4(2).mul().ldc_i4(1).add().stloc(c2);
      sb.ldloc(c2).ldarg(2).bgt(done);
      // if (child+1 <= end && data[child] < data[child+1]) child++;
      auto no_sibling = sb.new_label();
      sb.ldloc(c2).ldc_i4(1).add().ldarg(2).bgt(no_sibling);
      sb.ldarg(0).ldloc(c2).ldelem(ValType::I32)
          .ldarg(0).ldloc(c2).ldc_i4(1).add().ldelem(ValType::I32)
          .bge(no_sibling);
      sb.ldloc(c2).ldc_i4(1).add().stloc(c2);
      sb.bind(no_sibling);
      // if (data[root] < data[child]) swap + continue; else return.
      sb.ldarg(0).ldloc(r2).ldelem(ValType::I32)
          .ldarg(0).ldloc(c2).ldelem(ValType::I32).bge(done);
      sb.ldarg(0).ldloc(r2).ldelem(ValType::I32).stloc(t2);
      sb.ldarg(0).ldloc(r2)
          .ldarg(0).ldloc(c2).ldelem(ValType::I32).stelem(ValType::I32);
      sb.ldarg(0).ldloc(c2).ldloc(t2).stelem(ValType::I32);
      sb.ldloc(c2).stloc(r2);
      sb.br(loop);
      sb.bind(done);
      sb.ret();
      return sb.finish();
    });

    // Build the heap: for (start = (n-2)/2; start >= 0; start--).
    auto htop = b.new_label();
    auto hend = b.new_label();
    b.ldloc(n).ldc_i4(2).sub().ldc_i4(2).div().stloc(start);
    b.bind(htop);
    b.ldloc(start).ldc_i4(0).blt(hend);
    b.ldloc(data).ldloc(start).ldloc(n).ldc_i4(1).sub().call(sift);
    b.ldloc(start).ldc_i4(1).sub().stloc(start);
    b.br(htop);
    b.bind(hend);
    // Extract: for (end = n-1; end > 0; end--).
    auto etop = b.new_label();
    auto eend = b.new_label();
    b.ldloc(n).ldc_i4(1).sub().stloc(end);
    b.bind(etop);
    b.ldloc(end).ldc_i4(0).ble(eend);
    b.ldloc(data).ldc_i4(0).ldelem(ValType::I32).stloc(tmp);
    b.ldloc(data).ldc_i4(0)
        .ldloc(data).ldloc(end).ldelem(ValType::I32).stelem(ValType::I32);
    b.ldloc(data).ldloc(end).ldloc(tmp).stelem(ValType::I32);
    b.ldloc(data).ldc_i4(0).ldloc(end).ldc_i4(1).sub().call(sift);
    b.ldloc(end).ldc_i4(1).sub().stloc(end);
    b.br(etop);
    b.bind(eend);
    // checksum = (checksum << 1) ^ (checksum >> 7) ^ data[i]
    b.ldc_i8(0).stloc(checksum);
    counted_loop(b, i, n, [&] {
      b.ldloc(checksum).ldc_i4(1).shl()
          .ldloc(checksum).ldc_i4(7).shr().xor_()
          .ldloc(data).ldloc(i).ldelem(ValType::I32).conv_i8().xor_()
          .stloc(checksum);
    });
    b.ldloc(checksum).ret();
    return b.finish();
  });
}

}  // namespace hpcnet::cil
