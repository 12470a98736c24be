// §5 pass attribution: how much of the optimizing tier's advantage comes
// from each JIT pass. The clr11 flag set is re-run with inlining and CSE
// toggled individually (and all off / all on), plus the vector tier's
// VECLOOP lowering alone and on top of the full set, over the benchmarks
// each pass targets: the method-call micro (inlining), Fibonacci (recursive
// inlining), and the SciMark SOR / SparseMatmul / MonteCarlo kernels
// (CSE on array-heavy loops). Scores are best-of-5 work-units/sec,
// the noise-robust protocol bench_bce uses.
//
//   bench_passes [--quick]
#include <algorithm>
#include <cstring>
#include <iostream>

#include "cil/jg.hpp"
#include "cil/micro.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "kernels/jgf.hpp"
#include "support/reporter.hpp"
#include "support/timer.hpp"

namespace {

using namespace hpcnet;
using vm::Slot;

struct Variant {
  const char* name;
  vm::EngineFlags flags;
};

std::vector<Variant> variants() {
  vm::EngineFlags base = vm::profiles::clr11().flags;
  base.inline_calls = false;
  base.cse = false;
  std::vector<Variant> out;
  out.push_back({"passes off", base});
  vm::EngineFlags f = base;
  f.inline_calls = true;
  f.inline_max_il = 64;
  out.push_back({"+inline", f});
  f = base;
  f.cse = true;
  out.push_back({"+cse", f});
  f = base;
  f.vectorize = true;
  out.push_back({"+vec", f});
  out.push_back({"all on (clr11)", vm::profiles::clr11().flags});
  out.push_back(
      {"all on +vec (clr11.vec)", vm::profiles::vec(vm::profiles::clr11()).flags});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcnet::cil;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: bench_passes [--quick]\n";
      return 1;
    }
  }

  BenchContext bc;
  auto& v = bc.vm();

  struct Row {
    const char* name;
    std::int32_t method;
    std::vector<Slot> args;
    double work;
  };
  const std::int32_t call_iters = quick ? 200000 : 2000000;
  const std::int32_t fib_n = quick ? 18 : 24;
  const ScimarkSizes sz =
      quick ? ScimarkSizes::test_model() : ScimarkSizes::small_model();
  const std::vector<Row> rows = {
      {"Method static(args)", build_method_static_args(v),
       {Slot::from_i32(call_iters)}, static_cast<double>(call_iters)},
      {"Fibonacci", build_jg_fib(v), {Slot::from_i32(fib_n)},
       kernels::fib::num_calls(fib_n)},
      {"SOR", build_sm_sor(v),
       {Slot::from_i32(sz.sor_n), Slot::from_i32(sz.sor_iters)},
       6.0 * (sz.sor_n - 1) * (sz.sor_n - 1) * sz.sor_iters},
      {"SparseMatmul", build_sm_sparse(v),
       {Slot::from_i32(sz.sparse_n), Slot::from_i32(sz.sparse_nz),
        Slot::from_i32(sz.sparse_iters)},
       2.0 * sz.sparse_nz * sz.sparse_iters},
      {"MonteCarlo", build_sm_montecarlo(v),
       {Slot::from_i32(sz.mc_samples)}, 4.0 * sz.mc_samples},
  };

  support::ResultTable t(
      "JIT pass attribution, clr11 flag set [work units/sec, best of 5]");
  vm::VMContext& ctx = v.main_context();
  for (const Variant& var : variants()) {
    vm::EngineProfile p;
    p.name = var.name;
    p.tier = vm::Tier::Optimizing;
    p.flags = var.flags;
    auto engine = vm::make_engine(v, p);
    ctx.engine = engine.get();
    for (const Row& r : rows) {
      // Warm-up (compiles under this flag set), then best-of-5.
      engine->invoke(ctx, r.method,
                     std::span<const Slot>(r.args.data(), r.args.size()));
      double best = 0;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = support::now_ns();
        engine->invoke(ctx, r.method,
                       std::span<const Slot>(r.args.data(), r.args.size()));
        const double secs =
            support::elapsed_seconds(t0, support::now_ns());
        best = std::max(best, r.work / secs);
      }
      t.set(r.name, var.name, best);
    }
  }
  ctx.engine = nullptr;

  t.print(std::cout);
  std::cout << "\n";
  t.normalized_to("passes off", "Speedup over passes-off")
      .print(std::cout);
  return 0;
}
