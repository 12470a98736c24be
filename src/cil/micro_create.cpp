// Create micro-benchmark (Table 1): object and array allocation throughput.
// Allocation-heavy by design — this is also the GC stress path, since the
// engines collect at the heap threshold mid-benchmark.
#include "cil/common.hpp"
#include "cil/micro.hpp"
#include "vm/intrinsics.hpp"

namespace hpcnet::cil {

namespace {

std::int32_t create_target_class(vm::VirtualMachine& v) {
  vm::Module& mod = v.module();
  std::int32_t cls = mod.find_class("bench.CreateTarget");
  if (cls < 0) {
    cls = mod.define_class("bench.CreateTarget",
                           {{"x", ValType::I32}, {"y", ValType::F64}});
  }
  return cls;
}

}  // namespace

std::int32_t build_create_object(vm::VirtualMachine& v) {
  vm::Module& mod = v.module();
  const std::int32_t cls = create_target_class(v);
  return cached(v, "micro.create.object", [&] {
    ILBuilder b(mod, "micro.create.object", {{ValType::I32}, ValType::I32});
    const auto i = b.add_local(ValType::I32);
    const auto bound = b.add_local(ValType::I32);
    const auto last = b.add_local(ValType::Ref);
    b.ldarg(0).stloc(bound);
    counted_loop(b, i, bound, [&] {
      b.newobj(cls).stloc(last);
      b.ldloc(last).ldloc(i).stfld(cls, "x");
    });
    b.ldloc(last).ldfld(cls, "x").ret();
    return b.finish();
  });
}

std::int32_t build_create_array(vm::VirtualMachine& v, std::int32_t length) {
  const std::string name =
      "micro.create.array" + std::to_string(length);
  return cached(v, name, [&] {
    ILBuilder b(v.module(), name, {{ValType::I32}, ValType::I32});
    const auto i = b.add_local(ValType::I32);
    const auto bound = b.add_local(ValType::I32);
    const auto last = b.add_local(ValType::Ref);
    b.ldarg(0).stloc(bound);
    counted_loop(b, i, bound, [&] {
      b.ldc_i4(length).newarr(ValType::F64).stloc(last);
    });
    b.ldloc(last).ldlen().ret();
    return b.finish();
  });
}

// --- Multithreaded creation (allocation scaling) ---------------------------
//
// A minimal fork-join driver around the single-thread creation loops: each
// worker reads its iteration count from a shared object, runs the creation
// loop (all allocations go through the worker thread's own TLAB), then
// bumps a completion counter under the shared object's monitor.

namespace {

struct CreateMtClasses {
  std::int32_t shared;  // create.Shared {iters, done}
};

CreateMtClasses create_mt_classes(vm::VirtualMachine& v) {
  vm::Module& mod = v.module();
  std::int32_t shared = mod.find_class("create.Shared");
  if (shared < 0) {
    shared = mod.define_class(
        "create.Shared", {{"iters", ValType::I32}, {"done", ValType::I32}});
  }
  return {shared};
}

/// Builds the worker for one creation kind: (Ref shared) -> i32; runs
/// `iters` creations, then increments shared.done under the monitor.
std::int32_t build_create_mt_worker(
    vm::VirtualMachine& v, const std::string& kind,
    const std::function<void(ILBuilder&, std::int32_t i_local,
                             std::int32_t last_local)>& emit_create) {
  const CreateMtClasses c = create_mt_classes(v);
  const std::string name = "create.mt." + kind + ".worker";
  return cached(v, name, [&] {
    ILBuilder b(v.module(), name, {{ValType::Ref}, ValType::I32});
    const auto shared = b.add_local(ValType::Ref);
    const auto i = b.add_local(ValType::I32);
    const auto iters = b.add_local(ValType::I32);
    const auto last = b.add_local(ValType::Ref);
    b.ldarg(0).stloc(shared);
    b.ldloc(shared).ldfld(c.shared, "iters").stloc(iters);
    counted_loop(b, i, iters, [&] { emit_create(b, i, last); });
    b.ldloc(shared).call_intr(vm::I_MON_ENTER);
    b.ldloc(shared).ldloc(shared).ldfld(c.shared, "done")
        .ldc_i4(1).add().stfld(c.shared, "done");
    b.ldloc(shared).call_intr(vm::I_MON_EXIT);
    b.ldc_i4(0).ret();
    return b.finish();
  });
}

}  // namespace

std::int32_t build_create_mt(vm::VirtualMachine& v, const std::string& kind) {
  const CreateMtClasses c = create_mt_classes(v);
  const std::int32_t target = create_target_class(v);

  std::function<void(ILBuilder&, std::int32_t, std::int32_t)> emit_create;
  if (kind == "object") {
    emit_create = [target](ILBuilder& b, std::int32_t, std::int32_t last) {
      b.newobj(target).stloc(last);
    };
  } else if (kind == "array") {
    emit_create = [](ILBuilder& b, std::int32_t, std::int32_t last) {
      b.ldc_i4(16).newarr(ValType::F64).stloc(last);
    };
  } else if (kind == "matrix") {
    emit_create = [](ILBuilder& b, std::int32_t, std::int32_t last) {
      b.ldc_i4(4).ldc_i4(4).newmat(ValType::F64).stloc(last);
    };
  } else if (kind == "box") {
    emit_create = [](ILBuilder& b, std::int32_t i, std::int32_t last) {
      b.ldloc(i).box(ValType::I32).stloc(last);
    };
  } else {
    throw std::invalid_argument("build_create_mt: unknown kind " + kind);
  }
  const std::int32_t worker = build_create_mt_worker(v, kind, emit_create);

  const std::string name = "create.mt." + kind + ".run";
  return cached(v, name, [&] {
    MethodSig sig;
    sig.params = {ValType::I32, ValType::I32};
    sig.ret = ValType::I32;
    ILBuilder b(v.module(), name, sig);
    const auto t = b.add_local(ValType::I32);
    const auto n = b.add_local(ValType::I32);
    const auto shared = b.add_local(ValType::Ref);
    const auto handles = b.add_local(ValType::Ref);
    b.ldarg(0).stloc(n);
    b.newobj(c.shared).stloc(shared);
    b.ldloc(shared).ldarg(1).stfld(c.shared, "iters");
    b.ldloc(n).newarr(ValType::Ref).stloc(handles);
    counted_loop(b, t, n, [&] {
      b.ldloc(handles).ldloc(t);
      b.ldc_i4(worker).ldloc(shared).call_intr(vm::I_THREAD_START);
      b.stelem(ValType::Ref);
    });
    counted_loop(b, t, n, [&] {
      b.ldloc(handles).ldloc(t).ldelem(ValType::Ref)
          .call_intr(vm::I_THREAD_JOIN);
    });
    b.ldloc(shared).ldfld(c.shared, "done").ret();
    return b.finish();
  });
}

}  // namespace hpcnet::cil
