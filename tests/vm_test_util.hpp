// Shared helpers for VM tests: run the same IL on every engine tier and
// check the results agree — the paper's core invariant (one compiler output,
// many runtimes, identical results).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vm/execution.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::test {

using namespace hpcnet::vm;

/// The three tiers under their flagship profiles.
inline std::vector<EngineProfile> tier_profiles() {
  return {profiles::clr11(), profiles::mono023(), profiles::rotor10()};
}

/// A VM plus one engine of each tier, with a context for the calling thread.
struct VMFixture {
  VirtualMachine vm;
  std::vector<std::unique_ptr<Engine>> engines;

  VMFixture() {
    for (const auto& p : tier_profiles()) {
      engines.push_back(make_engine(vm, p));
    }
  }

  /// Invokes `method` with `args` on every engine and requires identical raw
  /// results; returns the common result.
  Slot run_all(std::int32_t method, std::vector<Slot> args = {}) {
    verify(vm.module(), method);
    VMContext& ctx = vm.main_context();
    bool first = true;
    Slot out;
    for (auto& e : engines) {
      ctx.engine = e.get();
      Slot r = e->invoke(ctx, method, args);
      if (first) {
        out = r;
        first = false;
      } else {
        EXPECT_EQ(out.raw, r.raw)
            << "engine " << e->name() << " disagrees on "
            << vm.module().method(method).name;
      }
    }
    return out;
  }

  /// Invokes on one engine by tier index (0=opt, 1=baseline, 2=interp).
  Slot run_on(std::size_t engine_idx, std::int32_t method,
              std::vector<Slot> args = {}) {
    verify(vm.module(), method);
    VMContext& ctx = vm.main_context();
    ctx.engine = engines[engine_idx].get();
    return engines[engine_idx]->invoke(ctx, method, args);
  }
};

/// deep(n) { return deep(n + 1) + 1; } with 4096 ref locals: unbounded
/// self-recursion whose frames are big enough that the 16 MiB frame arena
/// overflows (std::runtime_error "managed stack overflow") within a few
/// hundred frames on every tier, long before the native stack does.
inline std::int32_t build_deep_recursion(Module& mod, const std::string& name) {
  const auto self = static_cast<std::int32_t>(mod.method_count());
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  for (int i = 0; i < 4096; ++i) b.add_local(ValType::Ref);
  b.ldarg(0).ldc_i4(1).add().call(self).ldc_i4(1).add().ret();
  return b.finish();
}

/// Builds the expected bytes of a golden-byte test. Integers are spelled out
/// little-endian with shifts, so the expectation is the format itself, not
/// whatever the host's byte order makes of it.
struct LeBytes {
  std::vector<char> bytes;

  LeBytes& u8(std::uint8_t v) {
    bytes.push_back(static_cast<char>(v));
    return *this;
  }
  LeBytes& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  LeBytes& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  LeBytes& i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  LeBytes& text(const std::string& s) {
    bytes.insert(bytes.end(), s.begin(), s.end());
    return *this;
  }
};

}  // namespace hpcnet::test
