// jit_explorer: the paper's §5 methodology as an interactive tool — author a
// benchmark loop, then inspect what each "JIT" makes of it: the CIL
// (Table 5), the literal stack execution of the Baseline tier (Table 7), and
// the register IR of every Optimizing profile (Tables 6/8), side by side
// with measured per-iteration cost.
//
//   $ ./jit_explorer [div|add|daxpy|call|cse]
//   $ ./jit_explorer call --passes [profile]
//
// With --passes the tool compiles under one profile (default clr11) and
// prints the IR after every enabled pass, so the effect of inlining, CSE
// and bounds-check elimination can be read off as diffs between consecutive
// listings.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "cil/common.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "support/timer.hpp"
#include "vm/disasm.hpp"
#include "vm/regcompile.hpp"
#include "vm/serialize.hpp"

using namespace hpcnet;
using namespace hpcnet::cil;
using vm::Slot;
using vm::ValType;

namespace {

std::int32_t build_loop(vm::VirtualMachine& v, const std::string& which) {
  if (which == "daxpy") return build_bce_daxpy_ldlen(v);
  if (which == "call") {
    // A hot one-liner callee: the inlining pass should splice it into the
    // loop, after which no call.r remains in the clr11/ibm131 listings.
    const std::int32_t sq = cached(v, "explore.sq", [&] {
      vm::ILBuilder b(v.module(), "explore.sq",
                      {{ValType::I32}, ValType::I32});
      b.ldarg(0).ldarg(0).mul().ldc_i4(1).add().ret();
      return b.finish();
    });
    return cached(v, "explore.call", [&] {
      vm::ILBuilder b(v.module(), "explore.call",
                      {{ValType::I32}, ValType::I32});
      const auto i = b.add_local(ValType::I32);
      const auto x = b.add_local(ValType::I32);
      const auto bound = b.add_local(ValType::I32);
      b.ldarg(0).stloc(bound);
      b.ldc_i4(3).stloc(x);
      counted_loop(b, i, bound, [&] { b.ldloc(x).call(sq).stloc(x); });
      b.ldloc(x).ret();
      return b.finish();
    });
  }
  if (which == "cse") {
    return cached(v, "explore.cse", [&] {
      // x = (x*x + 3) ^ ((x*x + 3) >> 1): the repeated subtree should
      // collapse to a single mul/addi pair under profiles with CSE.
      vm::ILBuilder b(v.module(), "explore.cse",
                      {{ValType::I32}, ValType::I32});
      const auto i = b.add_local(ValType::I32);
      const auto x = b.add_local(ValType::I32);
      const auto bound = b.add_local(ValType::I32);
      b.ldarg(0).stloc(bound);
      b.ldc_i4(7).stloc(x);
      counted_loop(b, i, bound, [&] {
        b.ldloc(x).ldloc(x).mul().ldc_i4(3).add();
        b.ldloc(x).ldloc(x).mul().ldc_i4(3).add().ldc_i4(1).shr();
        b.xor_().stloc(x);
      });
      b.ldloc(x).ret();
      return b.finish();
    });
  }
  return cached(v, "explore." + which, [&] {
    vm::ILBuilder b(v.module(), "explore." + which,
                    {{ValType::I32}, ValType::I32});
    const auto i = b.add_local(ValType::I32);
    const auto x = b.add_local(ValType::I32);
    const auto y = b.add_local(ValType::I32);
    const auto bound = b.add_local(ValType::I32);
    b.ldarg(0).stloc(bound);
    b.ldc_i4(2147483647).stloc(x);
    b.ldc_i4(3).stloc(y);
    counted_loop(b, i, bound, [&] {
      if (which == "add") {
        b.ldloc(x).ldloc(y).add().stloc(x);
      } else {
        b.ldloc(x).ldc_i4(3).div().stloc(x);
      }
    });
    b.ldloc(x).ret();
    return b.finish();
  });
}

int dump_passes(vm::VirtualMachine& v, std::int32_t method,
                const std::string& profile_name) {
  // by_name also resolves derived profiles ("clr11.vec", "clr11.tiered"),
  // so the vector-lowering pass can be inspected with e.g.
  //   jit_explorer daxpy --passes clr11.vec
  vm::EngineProfile profile;
  try {
    profile = vm::profiles::by_name(profile_name);
  } catch (const std::exception&) {
    std::fprintf(stderr, "unknown optimizing profile: %s\n",
                 profile_name.c_str());
    return 1;
  }
  if (profile.tier != vm::Tier::Optimizing) {
    std::fprintf(stderr, "profile %s does not reach the optimizing tier\n",
                 profile_name.c_str());
    return 1;
  }
  std::printf("================ CIL ================\n%s\n",
              vm::disassemble_cil(v.module(), method).c_str());
  std::printf("======== %s, IR after each pass ========\n",
              profile.name.c_str());
  vm::regir::compile_traced(
      v.module(), v.module().method(method), profile.flags,
      [](const char* pass, const std::string& listing) {
        std::printf("---- after %s ----\n%s\n", pass, listing.c_str());
      });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "div";
  bool passes = false;
  std::string profile_name = "clr11";
  std::string load_snapshot;
  std::string save_snapshot;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--passes") == 0) {
      passes = true;
    } else if (std::strcmp(argv[i], "--load-snapshot") == 0 && i + 1 < argc) {
      load_snapshot = argv[++i];
    } else if (std::strcmp(argv[i], "--save-snapshot") == 0 && i + 1 < argc) {
      save_snapshot = argv[++i];
    } else {
      profile_name = argv[i];
    }
  }
  BenchContext bc;
  auto& v = bc.vm();
  std::int32_t method;
  try {
    method = build_loop(v, which);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: jit_explorer [div|add|daxpy|call|cse] "
                 "[--passes [profile]] [--load-snapshot FILE] "
                 "[--save-snapshot FILE] (%s)\n",
                 e.what());
    return 1;
  }
  vm::verify(v.module(), method);

  if (passes) return dump_passes(v, method, profile_name);

  // Warm-boot every profile's cache from an archive captured by an earlier
  // --save-snapshot run: the "warm-up" invocations below then publish
  // nothing new (the measured loop runs the archived code).
  if (!load_snapshot.empty()) {
    try {
      const vm::ArchiveStats s = vm::load_snapshot(v, load_snapshot);
      std::fprintf(stderr, "snapshot: restored %zu methods, %zu misses\n",
                   s.restored, s.missed);
    } catch (const vm::SerializeError& e) {
      std::fprintf(stderr, "snapshot load failed: %s\n", e.what());
      return 1;
    }
  }

  std::printf("================ CIL (what the 'C# compiler' emitted) "
              "================\n%s\n",
              vm::disassemble_cil(v.module(), method).c_str());

  std::printf("mono023 (Baseline tier) executes the CIL above literally:\n"
              "every stack slot is a memory round-trip — compare the paper's "
              "Mono listing in Table 7.\n");
  std::printf("rotor10 (Interp tier) additionally tag-checks each operand "
              "and polls every instruction — the Table 8 behaviour.\n\n");

  for (const auto& profile : vm::profiles::all()) {
    if (profile.tier != vm::Tier::Optimizing) continue;
    std::printf("================ %s register IR ================\n%s\n",
                profile.name.c_str(),
                vm::disassemble_compiled(v, method, profile).c_str());
  }

  std::printf("================ measured ns/iteration ================\n");
  const bool daxpy = which == "daxpy";
  for (auto& e : bc.engines()) {
    // Warm-up (triggers compilation), then one timed run.
    std::vector<Slot> warm = daxpy ? std::vector<Slot>{Slot::from_i32(64),
                                                       Slot::from_i32(2)}
                                   : std::vector<Slot>{Slot::from_i32(1024)};
    bc.invoke(*e, method, warm);
    const std::int32_t n = 1 << 20;
    const std::vector<Slot> args =
        daxpy ? std::vector<Slot>{Slot::from_i32(4096), Slot::from_i32(256)}
              : std::vector<Slot>{Slot::from_i32(n)};
    const double iters = daxpy ? 4096.0 * 256 : n;
    const auto t0 = support::now_ns();
    bc.invoke(*e, method, args);
    const double secs = support::elapsed_seconds(t0, support::now_ns());
    std::printf("  %-10s %8.2f ns/iter\n", e->name().c_str(),
                secs / iters * 1e9);
  }

  if (!save_snapshot.empty()) {
    // All invocations are done (single-threaded tool): the caches are
    // quiescent, so capture straight into a file.
    try {
      vm::save_snapshot(v, save_snapshot);
      std::fprintf(stderr, "snapshot: saved to %s\n", save_snapshot.c_str());
    } catch (const vm::SerializeError& e) {
      std::fprintf(stderr, "snapshot save failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
