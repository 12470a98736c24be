// The scimark phase: the five SciMark kernels through Engine::invoke on the
// optimizing (clr11), vector (clr11.vec), baseline (mono023) and interpreter
// (rotor10) tiers, plus the native src/kernels twins, at SciMark's small
// model. After one untimed pass per engine, the timed calls go in rounds: each round visits the
// engines in a seeded order and each engine's kernels in a seeded order,
// and a turn of the window picks up where the last one stopped.
// Single-threaded.
//
// Composite = arithmetic mean over the kernels of each kernel's best call
// in the window (SciMark's definition, over best-of-N calls as in
// scimark_cli; see best_min in common.hpp for why not the median).
#include <algorithm>
#include <memory>

#include "cil/micro.hpp"
#include "common.hpp"
#include "support/timer.hpp"
#include "trace.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
using hpcnet::cil::ScimarkSizes;

namespace {

/// One timed series: an engine, or the native twins.
struct Unit {
  const char* metric;  // end-to-end metric name
  const char* layer;   // per-layer metric prefix and span name stem
  const char* span;    // span name of one call
  vm::Engine* engine;  // null = native src/kernels
  /// [traced][kernel] -> seconds of each call
  std::vector<std::vector<double>> secs[2];
};

struct Fixture {
  std::unique_ptr<vm::VirtualMachine> vm;
  std::unique_ptr<vm::Engine> clr11, vec, mono, rotor;  // destroyed before vm
  std::vector<KernelCall> calls;
  std::int32_t loop_for = -1;
};

/// Builds the fixture; the untimed pass runs the kernels at test-model
/// sizes, which compiles every kernel on every engine (the arguments are
/// sizes, the methods are the same) at a fraction of the timed calls' cost.
std::unique_ptr<Fixture> make_fixture(const ScimarkSizes& sizes, Report& r) {
  auto f = std::make_unique<Fixture>();
  f->vm = std::make_unique<vm::VirtualMachine>();
  const std::vector<KernelCall> warm =
      scimark_calls(*f->vm, ScimarkSizes::test_model());
  f->calls = scimark_calls(*f->vm, sizes);
  f->loop_for = hpcnet::cil::build_loop_for(*f->vm);
  const auto engine = [&](const char* name) {
    return vm::make_engine(*f->vm, vm::profiles::by_name(name));
  };
  f->clr11 = engine("clr11");
  f->vec = engine("clr11.vec");
  f->mono = engine("mono023");
  f->rotor = engine("rotor10");
  // The untimed pass: every engine compiles and runs every kernel once.
  vm::VMContext& ctx = f->vm->main_context();
  for (vm::Engine* e : {f->clr11.get(), f->vec.get(), f->mono.get(),
                        f->rotor.get()}) {
    for (const KernelCall& k : warm) {
      const Slot res = e->invoke(ctx, k.method, k.args);
      r.attempt(true);
      if (!checksum_ok(res.f64, k.want)) {
        r.wrong(std::string(k.name) + " on " + e->name() + " (warm pass)");
      }
    }
  }
  return f;
}

/// Times one kernel call of `u`; returns its seconds, or -1 when it failed.
double time_call(Unit& u, vm::VMContext& ctx, const KernelCall& k,
                 const ScimarkSizes& sizes, Report& r) {
  Span span(u.span, k.name);
  double got = 0;
  if (u.engine == nullptr) {
    got = run_native(k, sizes);
  } else {
    try {
      got = u.engine->invoke(ctx, k.method, k.args).f64;
    } catch (const vm::ManagedException&) {
      span.end();
      r.attempt(false);
      return -1;
    }
  }
  const double secs = static_cast<double>(span.end()) * 1e-9;
  r.attempt(true);
  if (!checksum_ok(got, k.want)) {
    r.wrong(std::string(k.name) + " on " + u.metric + ": got " +
            std::to_string(got) + ", want " + std::to_string(k.want));
  }
  return secs;
}

/// Largest single-kernel working set of a size model, in MB (arrays only).
double working_set_mb(const ScimarkSizes& s) {
  const double fft = 2.0 * s.fft_n * 8;
  const double sor = 1.0 * s.sor_n * s.sor_n * 8;
  const double sparse = s.sparse_nz * 12.0 + s.sparse_n * 20.0;
  const double lu = 1.0 * s.lu_n * s.lu_n * 8;
  return std::max({fft, sor, sparse, lu}) / (1024.0 * 1024.0);
}

class ScimarkPhase final : public Phase {
 public:
  explicit ScimarkPhase(const Options& o)
      : o_(o),
        sizes_(o.tiny ? ScimarkSizes::test_model()
                      : ScimarkSizes::small_model()),
        rng_(o.seed) {}

  const char* name() const override { return "scimark"; }

  void set_up(Report& r) override {
    units_.clear();
    f_.reset();  // tear the previous fixture down before the new one
    f_ = make_fixture(sizes_, r);
    units_ = {
        {"mflops.clr11", "optimizing", "optimizing.invoke", f_->clr11.get(),
         {}},
        {"mflops.clr11_vec", "veckernels", "veckernels.invoke",
         f_->vec.get(), {}},
        {"mflops.mono023", "baseline", "baseline.invoke", f_->mono.get(), {}},
        {"mflops.rotor10", "interpreter", "interpreter.invoke",
         f_->rotor.get(), {}},
        {"native", "kernels", "kernels.native", nullptr, {}},
    };
    for (Unit& u : units_) {
      for (auto& s : u.secs) s.resize(kKernels);
    }
    round_.clear();
    next_ = 0;
    rounds_done_ = 0;
  }

  void run(double seconds, bool traced, Report& r) override {
    vm::VMContext& ctx = f_->vm->main_context();
    const double start = now_s();
    // The first turn runs at least one whole round, so that every engine
    // and kernel has a sample however short the window.
    do {
      if (next_ == round_.size()) new_round();
      const auto [ui, ki] = round_[next_++];
      if (next_ == round_.size()) ++rounds_done_;
      Unit& u = units_[ui];
      const double secs = time_call(u, ctx, f_->calls[ki], sizes_, r);
      if (secs <= 0) continue;
      u.secs[traced][ki].push_back(secs);
      if (traced && u.engine != nullptr) invoke_s_traced_ += secs;
    } while (now_s() - start < seconds || rounds_done_ == 0);
    if (traced) wall_s_traced_ += now_s() - start;
  }

  void finish(Report& r) override {
    r.info("scimark_calls", calls());
    r.info("scimark_working_set_mb", working_set_mb(sizes_));
    if (!o_.trace) {
      for (Unit& u : units_) {
        if (u.engine == nullptr) continue;
        double sum = 0;
        for (int k = 0; k < kKernels; ++k) sum += mflops(u, k);
        r.metric(u.metric, sum / kKernels, "MFlops");
      }
      return;
    }

    for (Unit& u : units_) {
      for (int k = 0; k < kKernels; ++k) {
        r.metric(std::string(u.layer) + "." + f_->calls[k].key + ".mflops",
                 mflops(u, k), "MFlops");
      }
    }
    // Span cost: how much slower the same call ran while recording, as
    // the mean over (engine, kernel) of the ratio of median call times.
    double ratio = 0;
    int pairs = 0;
    for (const Unit& u : units_) {
      for (int k = 0; k < kKernels; ++k) {
        if (u.secs[0][k].empty() || u.secs[1][k].empty()) continue;
        ratio += median(u.secs[1][k]) / median(u.secs[0][k]);
        ++pairs;
      }
    }
    r.metric("trace.overhead_pct.scimark",
             pairs == 0 ? 0 : (ratio / pairs - 1.0) * 100.0, "%");
    r.metric("trace.invoke_cover_pct",
             invoke_s_traced_ / wall_s_traced_ * 100.0, "%");

    // Per-op dispatch cost: micro.loop.for runs 7 IL instructions per
    // iteration (ldloc, ldc, add, stloc, ldloc, ldarg, blt).
    trace::set_enabled(true);
    struct Tier {
      const char* metric;
      const char* span;
      vm::Engine* engine;
      std::int32_t n;
    };
    const std::int32_t scale = o_.tiny ? 64 : 1;
    for (const Tier& t :
         {Tier{"interpreter.ns_per_il_op", "interpreter.invoke",
               f_->rotor.get(), (1 << 21) / scale},
          Tier{"baseline.ns_per_il_op", "baseline.invoke", f_->mono.get(),
               (1 << 22) / scale},
          Tier{"optimizing.ns_per_il_op", "optimizing.invoke",
               f_->clr11.get(), (1 << 24) / scale}}) {
      std::vector<double> ns;
      const Slot arg = Slot::from_i32(t.n);
      for (int rep = 0; rep < 5; ++rep) {
        Span span(t.span, "micro.loop.for");
        const Slot res = t.engine->invoke(f_->vm->main_context(), f_->loop_for,
                                          {&arg, 1});
        ns.push_back(static_cast<double>(span.end()) / (7.0 * t.n));
        r.attempt(true);
        if (res.i32 != t.n) {
          r.wrong(std::string("micro.loop.for on ") + t.span);
        }
      }
      r.metric(t.metric, best_min(ns), "ns");
    }
    trace::set_enabled(false);
  }

 private:
  /// Queues the next round: engines in a seeded order, each engine's
  /// kernels in a seeded order.
  void new_round() {
    std::vector<std::size_t> unit_order(units_.size());
    std::vector<std::size_t> kernel_order(kKernels);
    for (std::size_t i = 0; i < unit_order.size(); ++i) unit_order[i] = i;
    for (std::size_t i = 0; i < kernel_order.size(); ++i) kernel_order[i] = i;
    shuffle(unit_order, rng_);
    round_.clear();
    for (std::size_t ui : unit_order) {
      shuffle(kernel_order, rng_);
      for (std::size_t ki : kernel_order) round_.emplace_back(ui, ki);
    }
    next_ = 0;
  }

  /// Best call of kernel k on unit u over the whole window, in MFlops.
  double mflops(const Unit& u, int k) const {
    std::vector<double> all = u.secs[0][k];
    all.insert(all.end(), u.secs[1][k].begin(), u.secs[1][k].end());
    return f_->calls[k].flops / best_min(all) * 1e-6;
  }

  double calls() const {
    std::size_t n = 0;
    for (const Unit& u : units_) {
      for (const auto& s : u.secs) {
        for (const auto& k : s) n += k.size();
      }
    }
    return static_cast<double>(n);
  }

  const Options o_;
  const ScimarkSizes sizes_;
  Rng rng_;
  std::unique_ptr<Fixture> f_;
  std::vector<Unit> units_;  // point into *f_
  std::vector<std::pair<std::size_t, std::size_t>> round_;  // (unit, kernel)
  std::size_t next_ = 0;
  int rounds_done_ = 0;
  double invoke_s_traced_ = 0;  // backend invoke time in traced turns
  double wall_s_traced_ = 0;    // wall time of traced turns
};

}  // namespace

std::unique_ptr<Phase> make_scimark_phase(const Options& o) {
  return std::make_unique<ScimarkPhase>(o);
}

}  // namespace perfbench
