#include "vm/telemetry/summary.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "vm/module.hpp"

namespace hpcnet::vm::telemetry {

namespace {

std::string method_label(const Module* module, std::int32_t id) {
  if (module != nullptr &&
      static_cast<std::size_t>(id) < module->method_count()) {
    return module->method(id).name;
  }
  std::string label = "#";
  label += std::to_string(id);
  return label;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

void print_histogram(std::ostream& os, const support::Histogram& h,
                     const char* what) {
  if (h.count() == 0) {
    os << "  " << what << ": none\n";
    return;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "  %s: %llu, total %.3f ms, mean %.3f ms, p50 %.3f ms, "
                "p95 %.3f ms, max %.3f ms\n",
                what, static_cast<unsigned long long>(h.count()),
                ms(static_cast<std::int64_t>(h.total())),
                h.mean() * 1e-6,
                ms(static_cast<std::int64_t>(h.percentile(50))),
                ms(static_cast<std::int64_t>(h.percentile(95))),
                ms(static_cast<std::int64_t>(h.max())));
  os << line;
  // Bucket sparkline: only the occupied range, one row per non-empty bucket.
  for (std::size_t i = 0; i < support::Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    std::snprintf(line, sizeof line, "    [%9.3f ms, %9.3f ms]  %llu\n",
                  ms(static_cast<std::int64_t>(
                      support::Histogram::bucket_floor(i))),
                  ms(static_cast<std::int64_t>(
                      std::min(support::Histogram::bucket_ceil(i),
                               h.max()))),
                  static_cast<unsigned long long>(h.bucket(i)));
    os << line;
  }
}

}  // namespace

std::vector<support::ResultTable> summary_tables(const Snapshot& s,
                                                 const Module* module,
                                                 const SummaryOptions& opts) {
  std::vector<support::ResultTable> tables;

  {
    support::ResultTable t("telemetry: per-method profile");
    std::vector<const MethodProfile*> by_invocations;
    by_invocations.reserve(s.methods.size());
    for (const MethodProfile& m : s.methods) by_invocations.push_back(&m);
    std::sort(by_invocations.begin(), by_invocations.end(),
              [](const MethodProfile* a, const MethodProfile* b) {
                return a->invocations > b->invocations;
              });
    const std::size_t n =
        std::min(by_invocations.size(), opts.top_methods);
    for (std::size_t i = 0; i < n; ++i) {
      const MethodProfile& m = *by_invocations[i];
      const std::string name = method_label(module, m.method_id);
      t.set(name, "invocations", static_cast<double>(m.invocations));
      if (m.bytecodes != 0) {
        t.set(name, "bytecodes", static_cast<double>(m.bytecodes));
      }
      // Dominant execution tier (0=interp 1=baseline 2=opt) plus the split
      // across tiers, when the tiered pipeline moved the method.
      std::uint64_t tiered_total = 0;
      for (std::uint64_t v : m.tier_invocations) tiered_total += v;
      if (tiered_total != 0) {
        std::size_t dominant = 0;
        std::size_t used = 0;
        for (std::size_t tier = 0; tier < kNumTiers; ++tier) {
          if (m.tier_invocations[tier] == 0) continue;
          ++used;
          if (m.tier_invocations[tier] > m.tier_invocations[dominant]) {
            dominant = tier;
          }
        }
        t.set(name, "tier", static_cast<double>(dominant));
        if (used > 1) {
          const char* tier_cols[kNumTiers] = {"interp", "baseline", "opt"};
          for (std::size_t tier = 0; tier < kNumTiers; ++tier) {
            if (m.tier_invocations[tier] != 0) {
              t.set(name, tier_cols[tier],
                    static_cast<double>(m.tier_invocations[tier]));
            }
          }
        }
      }
      if (m.jit_ns != 0) t.set(name, "jit_ms", ms(m.jit_ns));
    }
    tables.push_back(std::move(t));
  }

  if (!s.jit.empty()) {
    support::ResultTable t("telemetry: JIT pass times (ms)");
    for (const EngineJitTimes& j : s.jit) {
      for (std::size_t p = 0; p < kNumJitPasses; ++p) {
        t.set(jit_pass_name(static_cast<JitPass>(p)), j.engine,
              ms(j.pass_ns[p]));
      }
      t.set("total (compile)", j.engine, ms(j.compile_ns));
      t.set("methods compiled", j.engine,
            static_cast<double>(j.methods_compiled));
    }
    tables.push_back(std::move(t));
  }

  return tables;
}

void print_summary(std::ostream& os, const Snapshot& s, const Module* module,
                   const SummaryOptions& opts) {
  for (const support::ResultTable& t : summary_tables(s, module, opts)) {
    if (opts.json) {
      t.print_json(os);
    } else {
      t.print(os);
      os << "\n";
    }
  }
  if (opts.json) return;  // counters below ride in the tables' JSON callers

  os << "== telemetry: GC ==\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "  collections: %llu (%llu minor, %llu major), allocated "
                "%.2f MB, freed %.2f MB, swept %llu objects\n",
                static_cast<unsigned long long>(s.gc_pause_ns.count()),
                static_cast<unsigned long long>(s.minor_pause_ns.count()),
                static_cast<unsigned long long>(s.major_pause_ns.count()),
                static_cast<double>(s.gc.bytes_allocated) / (1024.0 * 1024.0),
                static_cast<double>(s.gc.bytes_freed) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(s.gc.objects_swept));
  os << line;
  std::snprintf(line, sizeof line,
                "  phases: mark %.2f ms, sweep %.2f ms; cards scanned: "
                "%llu, promoted %.2f KB\n",
                ms(s.gc.mark_ns), ms(s.gc.sweep_ns),
                static_cast<unsigned long long>(
                    s.counter(Counter::CardsScanned)),
                static_cast<double>(s.counter(Counter::PromotedBytes)) /
                    1024.0);
  os << line;
  std::snprintf(line, sizeof line,
                "  allocations (all time): %llu objects, %.2f MB\n",
                static_cast<unsigned long long>(
                    s.counter(Counter::Allocations)),
                static_cast<double>(s.counter(Counter::BytesAllocated)) /
                    (1024.0 * 1024.0));
  os << line;
  std::snprintf(line, sizeof line,
                "  tlab refills: %llu, tlab waste %.2f KB, large allocs: "
                "%llu, segments: %llu\n",
                static_cast<unsigned long long>(
                    s.counter(Counter::TlabRefills)),
                static_cast<double>(s.counter(Counter::TlabWasteBytes)) /
                    1024.0,
                static_cast<unsigned long long>(
                    s.counter(Counter::LargeAllocs)),
                static_cast<unsigned long long>(s.gc.heap_segments));
  os << line;
  print_histogram(os, s.gc_pause_ns, "pauses");
  print_histogram(os, s.minor_pause_ns, "minor pauses");
  print_histogram(os, s.major_pause_ns, "major pauses");
  print_histogram(os, s.safepoint_stall_ns, "safepoint stalls");

  os << "\n== telemetry: monitors ==\n";
  std::snprintf(line, sizeof line,
                "  acquires: %llu, contended: %llu, waits: %llu\n",
                static_cast<unsigned long long>(
                    s.counter(Counter::MonitorAcquires)),
                static_cast<unsigned long long>(
                    s.counter(Counter::MonitorContended)),
                static_cast<unsigned long long>(
                    s.counter(Counter::MonitorWaits)));
  os << line;
  print_histogram(os, s.monitor_wait_ns, "contended-acquire waits");

  os << "\n== telemetry: tiering ==\n";
  std::snprintf(line, sizeof line,
                "  tier-ups: %llu, osr entries: %llu, deopts: %llu\n",
                static_cast<unsigned long long>(s.counter(Counter::TierUps)),
                static_cast<unsigned long long>(
                    s.counter(Counter::OsrEntries)),
                static_cast<unsigned long long>(s.counter(Counter::Deopts)));
  os << line;

  if (s.counter(Counter::SnapshotMethodsRestored) != 0 ||
      s.counter(Counter::SnapshotMisses) != 0 ||
      s.archive_load_ns.count() != 0) {
    os << "\n== telemetry: snapshot warm start ==\n";
    std::snprintf(line, sizeof line,
                  "  methods restored: %llu, misses: %llu\n",
                  static_cast<unsigned long long>(
                      s.counter(Counter::SnapshotMethodsRestored)),
                  static_cast<unsigned long long>(
                      s.counter(Counter::SnapshotMisses)));
    os << line;
    print_histogram(os, s.archive_load_ns, "archive loads");
  }

  if (!s.vec_kernels.empty()) {
    os << "\n== telemetry: vectorization ==\n";
    std::uint64_t entered = 0;
    for (const VecKernelTelemetry& v : s.vec_kernels) {
      entered += v.trips.count();
    }
    std::snprintf(line, sizeof line, "  vec loops entered: %llu\n",
                  static_cast<unsigned long long>(entered));
    os << line;
    for (const VecKernelTelemetry& v : s.vec_kernels) {
      // Trip counts are iterations, not ns, so print_histogram's ms
      // formatting does not apply here.
      std::snprintf(line, sizeof line,
                    "  %s: entries %llu, trips total %llu, mean %.1f, "
                    "min %llu, max %llu\n",
                    v.kernel.c_str(),
                    static_cast<unsigned long long>(v.trips.count()),
                    static_cast<unsigned long long>(v.trips.total()),
                    v.trips.mean(),
                    static_cast<unsigned long long>(v.trips.min()),
                    static_cast<unsigned long long>(v.trips.max()));
      os << line;
    }
  }
}

}  // namespace hpcnet::vm::telemetry
