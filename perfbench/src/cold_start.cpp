// The boot phase: repeated fresh boots inside one process, alternating cold
// and warm. A boot is: new VirtualMachine -> the five SciMark programs built
// -> clr11.tiered engine -> the first result of each kernel (test-model
// sizes, in a seeded order). A warm boot also deserializes and attaches an HPCA blob before its first call; the
// blob is captured once during set-up from a donor VM run to steady state
// on the same profile. Every boot's five
// results must be bit-identical to the donor's.
//
// This runs the same backends as the scimark phase, but cold: the
// interpreter, baseline, OSR, the verifier and regcompile carry the time, so
// a change that trades compile time for steady-state speed shows here. It
// is also the only phase with `archive` on the timed path.
#include <memory>

#include "common.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "vm/archive.hpp"
#include "vm/regcompile.hpp"
#include "vm/serialize.hpp"
#include "vm/verifier.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
using hpcnet::cil::ScimarkSizes;

namespace {

constexpr const char* kProfile = "clr11.tiered";
constexpr int kDonorCalls = 300;  // per kernel: well past every tier-up

struct Donor {
  std::vector<KernelCall> calls;
  std::vector<std::uint64_t> want_raw;  // donor results, raw bits
  std::vector<char> blob;               // serialized HPCA archive
  std::size_t records = 0;              // archived methods
  double capture_us = 0;
  double serialize_us = 0;
};

Donor make_donor(Report& r) {
  Donor d;
  vm::VirtualMachine v;
  d.calls = scimark_calls(v, ScimarkSizes::test_model());
  auto engine = vm::make_engine(v, vm::profiles::by_name(kProfile));
  vm::VMContext& ctx = v.main_context();
  d.want_raw.resize(d.calls.size());
  for (int i = 0; i < kDonorCalls; ++i) {
    for (std::size_t k = 0; k < d.calls.size(); ++k) {
      const Slot res = engine->invoke(ctx, d.calls[k].method, d.calls[k].args);
      d.want_raw[k] = res.raw;
    }
  }
  r.attempts(static_cast<std::uint64_t>(kDonorCalls) * d.calls.size(), 0);
  for (std::size_t k = 0; k < d.calls.size(); ++k) {
    Slot s;
    s.raw = d.want_raw[k];
    if (!checksum_ok(s.f64, d.calls[k].want)) {
      r.wrong(std::string("donor ") + d.calls[k].name + " vs native");
    }
  }
  std::shared_ptr<const vm::CodeArchive> archive;
  {
    Span span("archive.capture", kProfile);
    archive = vm::capture_archive(v, kProfile);
    d.capture_us = static_cast<double>(span.end()) * 1e-3;
  }
  {
    Span span("archive.serialize", kProfile);
    d.blob = vm::serialize_archives({archive});
    d.serialize_us = static_cast<double>(span.end()) * 1e-3;
  }
  d.records = archive->records().size();
  return d;
}

struct BootLog {
  std::vector<double> boot_ms;
  std::vector<double> first_call_us[kKernels];
};

struct Layers {
  std::vector<double> vm_new_us, build_us, deserialize_us, attach_us;
  vm::ArchiveStats attach_stats;
};

/// One boot; returns false when a kernel call failed.
bool boot(bool warm, const Donor& d, const std::vector<std::size_t>& order,
          BootLog& log, Layers& layers, Report& r) {
  std::unique_ptr<vm::VirtualMachine> v;
  std::unique_ptr<vm::Engine> engine;
  bool ok = true;
  double first_us[kKernels] = {};
  {
    Span boot_span(warm ? "boot.warm" : "boot.cold");
    {
      Span span("execution.vm_new");
      v = std::make_unique<vm::VirtualMachine>();
      layers.vm_new_us.push_back(static_cast<double>(span.end()) * 1e-3);
    }
    {
      Span span("cil.build", "scimark x5");
      const std::vector<std::int32_t> ids = build_scimark(*v);
      layers.build_us.push_back(static_cast<double>(span.end()) * 1e-3);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (ids[k] != d.calls[k].method) {
          r.wrong("method ids differ from donor");
        }
      }
    }
    if (warm) {
      std::vector<std::shared_ptr<const vm::CodeArchive>> archives;
      {
        Span span("archive.deserialize", kProfile);
        archives = vm::deserialize_archives(v->module(), d.blob.data(),
                                            d.blob.size());
        layers.deserialize_us.push_back(static_cast<double>(span.end()) * 1e-3);
      }
      Span span("archive.attach", kProfile);
      layers.attach_stats = vm::attach_archive(*v, archives.at(0));
      layers.attach_us.push_back(static_cast<double>(span.end()) * 1e-3);
    }
    {
      Span span("tiered.make_engine", kProfile);
      engine = vm::make_engine(*v, vm::profiles::by_name(kProfile));
    }
    vm::VMContext& ctx = v->main_context();
    for (std::size_t k : order) {
      const KernelCall& call = d.calls[k];
      Span span(warm ? "tiered.first_call_warm" : "tiered.first_call",
                call.name);
      try {
        const Slot res = engine->invoke(ctx, call.method, call.args);
        first_us[k] = static_cast<double>(span.end()) * 1e-3;
        if (res.raw != d.want_raw[k]) {
          r.wrong(std::string(warm ? "warm" : "cold") + " boot " + call.name +
                  " differs from the donor");
        }
      } catch (const vm::ManagedException&) {
        ok = false;
      }
    }
    log.boot_ms.push_back(static_cast<double>(boot_span.end()) * 1e-6);
  }
  for (int k = 0; k < kKernels; ++k) {
    log.first_call_us[k].push_back(first_us[k]);
  }
  engine.reset();  // teardown stays outside the boot time
  v.reset();
  return ok;
}

class BootPhase final : public Phase {
 public:
  explicit BootPhase(const Options& o) : o_(o), rng_(o.seed) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  const char* name() const override { return "boot"; }

  void set_up(Report& r) override {
    d_ = make_donor(r);
    capture_us_.push_back(d_.capture_us);
    serialize_us_.push_back(d_.serialize_us);
  }

  /// Boots in cold/warm pairs, at least one pair per turn.
  void run(double seconds, bool traced, Report& r) override {
    const double start = now_s();
    do {
      for (const bool warm : {false, true}) {
        shuffle(order_, rng_);
        r.attempt(boot(warm, d_, order_, logs_[traced][warm], layers_, r));
      }
      ++pairs_;
    } while (now_s() - start < seconds);
  }

  void finish(Report& r) override;

 private:
  const Options o_;
  Rng rng_;
  std::vector<std::size_t> order_ = std::vector<std::size_t>(kKernels);
  Donor d_;
  std::vector<double> capture_us_, serialize_us_;
  BootLog logs_[2][2];  // [traced][warm]
  Layers layers_;
  int pairs_ = 0;
};

void BootPhase::finish(Report& r) {
  r.info("boots", 2.0 * pairs_);
  const auto boots = [&](bool warm) {
    std::vector<double> v = logs_[0][warm].boot_ms;
    const std::vector<double>& traced = logs_[1][warm].boot_ms;
    v.insert(v.end(), traced.begin(), traced.end());
    return v;
  };
  if (!o_.trace) {
    // The 1st percentile boot (see best_min in common.hpp): more than ten
    // boots lie below it, and it tracks the boots the host ran fast.
    r.metric("first_result_cold_ms", percentile(boots(false), 1), "ms");
    r.metric("first_result_warm_ms", percentile(boots(true), 1), "ms");
    return;
  }

  for (const bool warm : {false, true}) {
    for (int k = 0; k < kKernels; ++k) {
      std::vector<double> us = logs_[0][warm].first_call_us[k];
      us.insert(us.end(), logs_[1][warm].first_call_us[k].begin(),
                logs_[1][warm].first_call_us[k].end());
      r.metric(std::string(warm ? "tiered.first_call_warm_us."
                                : "tiered.first_call_us.") +
                   d_.calls[k].key,
               median(us), "us");
    }
  }
  r.metric("execution.vm_new_us", median(layers_.vm_new_us), "us");
  r.metric("cil.build_us", median(layers_.build_us), "us");
  r.metric("archive.capture_us", median(capture_us_), "us");
  r.metric("archive.serialize_us", median(serialize_us_), "us");
  r.metric("archive.deserialize_us", median(layers_.deserialize_us), "us");
  r.metric("archive.attach_us", median(layers_.attach_us), "us");
  r.metric("archive.bytes", static_cast<double>(d_.blob.size()), "bytes");
  r.metric("archive.records", static_cast<double>(d_.records), "count");
  r.metric("archive.restored",
           static_cast<double>(layers_.attach_stats.restored), "count");
  r.metric("archive.missed", static_cast<double>(layers_.attach_stats.missed),
           "count");
  double ratio = 0;
  for (const bool warm : {false, true}) {
    ratio += median(logs_[1][warm].boot_ms) / median(logs_[0][warm].boot_ms);
  }
  r.metric("trace.overhead_pct.boot", (ratio / 2 - 1) * 100.0, "%");

  // Compile-side layers, called directly on a private VM's kernel methods.
  trace::set_enabled(true);
  vm::VirtualMachine v;
  build_scimark(v);
  vm::Module& mod = v.module();
  std::vector<double> verify_us;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t m = 0; m < mod.method_count(); ++m) {
      mod.method(static_cast<std::int32_t>(m)).verified = false;
    }
    Span span("verifier.verify_all");
    vm::verify_all(mod);
    verify_us.push_back(static_cast<double>(span.end()) * 1e-3);
  }
  r.metric("verifier.verify_us", median(verify_us), "us");
  const vm::EngineFlags opt = vm::profiles::by_name("clr11").flags;
  const vm::EngineFlags vec = vm::profiles::by_name("clr11.vec").flags;
  std::vector<double> opt_us, vec_us;
  std::size_t instrs = 0;
  std::size_t vec_loops = 0;
  for (int rep = 0; rep < 5; ++rep) {
    instrs = 0;
    vec_loops = 0;
    {
      Span span("regcompile.compile", "clr11");
      for (std::size_t m = 0; m < mod.method_count(); ++m) {
        const auto& method = mod.method(static_cast<std::int32_t>(m));
        instrs += vm::regir::compile(mod, method, opt).code.size();
      }
      opt_us.push_back(static_cast<double>(span.end()) * 1e-3);
    }
    Span span("regcompile.compile", "clr11.vec");
    for (std::size_t m = 0; m < mod.method_count(); ++m) {
      const auto& method = mod.method(static_cast<std::int32_t>(m));
      vec_loops += vm::regir::compile(mod, method, vec).vec_loops.size();
    }
    vec_us.push_back(static_cast<double>(span.end()) * 1e-3);
  }
  trace::set_enabled(false);
  r.metric("regcompile.compile_us", median(opt_us), "us");
  r.metric("regcompile.compile_us_vec", median(vec_us), "us");
  r.metric("regcompile.rcode_instrs", static_cast<double>(instrs), "count");
  r.metric("veccompile.vec_loops", static_cast<double>(vec_loops), "count");
  r.info("module_methods", static_cast<double>(mod.method_count()));
}

}  // namespace

std::unique_ptr<Phase> make_boot_phase(const Options& o) {
  return std::make_unique<BootPhase>(o);
}

}  // namespace perfbench
