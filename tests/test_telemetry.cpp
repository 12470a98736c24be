// Telemetry subsystem: exact single-threaded counter/histogram semantics,
// merging across managed threads, GC pause accounting against the heap's own
// collection count, monitor contention, and chrome-trace well-formedness.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <sstream>
#include <string>
#include <thread>

#include "vm/intrinsics.hpp"
#include "vm/monitor.hpp"
#include "vm/telemetry/summary.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/telemetry/trace_writer.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

namespace telemetry = hpcnet::vm::telemetry;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    if (!telemetry::enabled()) {
      GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
    }
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset();
  }
};

/// ldc, ldc, add, ret — exactly 4 IL instructions per invocation.
std::int32_t build_add4(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{}, ValType::I32});
  b.ldc_i4(2).ldc_i4(3).add().ret();
  return b.finish();
}

TEST_F(TelemetryTest, InterpreterCountsExact) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_interp");
  constexpr int kRuns = 7;
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(f.run_on(2, m).i32, 5);  // rotor10 interpreter
  }
  const telemetry::Snapshot s = telemetry::snapshot();
  const telemetry::MethodProfile* p = s.method(m);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->invocations, kRuns);
  EXPECT_EQ(p->bytecodes, kRuns * 4u);
}

TEST_F(TelemetryTest, BaselineCountsExact) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_baseline");
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(f.run_on(1, m).i32, 5);  // mono023 baseline
  }
  const telemetry::Snapshot s = telemetry::snapshot();
  const telemetry::MethodProfile* p = s.method(m);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->invocations, kRuns);
  EXPECT_EQ(p->bytecodes, kRuns * 4u);
}

TEST_F(TelemetryTest, OptimizingCountsInvocationsAndJitTime) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_opt");
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(f.run_on(0, m).i32, 5);  // clr11 optimizing
  }
  const telemetry::Snapshot s = telemetry::snapshot();
  const telemetry::MethodProfile* p = s.method(m);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->invocations, kRuns);
  EXPECT_GT(p->jit_ns, 0);  // compiled once, on first call

  const telemetry::EngineJitTimes* j = s.engine_jit("clr11");
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->methods_compiled, 1u);
  EXPECT_GT(j->compile_ns, 0);
  // Pass times were attributed to the same engine and a "jit" trace event
  // was emitted for the compile.
  EXPECT_GE(j->compile_ns, j->pass_total_ns());
  bool saw_jit_event = false;
  for (const auto& ev : s.events) {
    if (std::string(ev.cat) == "jit") saw_jit_event = true;
  }
  EXPECT_TRUE(saw_jit_event);
}

TEST_F(TelemetryTest, MergesAcrossManagedThreads) {
  VMFixture f;
  Module& mod = f.vm.module();
  // worker: (Ref) -> I32, 2 instructions.
  ILBuilder w(mod, "tel_mt_worker", {{ValType::Ref}, ValType::I32});
  w.ldc_i4(0).ret();
  const std::int32_t worker = w.finish();

  constexpr int kThreads = 3;
  ILBuilder b(mod, "tel_mt_main", {{}, ValType::I32});
  std::vector<std::int32_t> handles;
  for (int i = 0; i < kThreads; ++i) handles.push_back(b.add_local(ValType::Ref));
  for (int i = 0; i < kThreads; ++i) {
    b.ldc_i4(worker).ldnull().call_intr(vm::I_THREAD_START).stloc(handles[i]);
  }
  for (int i = 0; i < kThreads; ++i) {
    b.ldloc(handles[i]).call_intr(vm::I_THREAD_JOIN);
  }
  b.ldc_i4(1).ret();
  const std::int32_t m = b.finish();

  EXPECT_EQ(f.run_on(2, m).i32, 1);  // interpreter tier
  const telemetry::Snapshot s = telemetry::snapshot();
  const telemetry::MethodProfile* p = s.method(worker);
  ASSERT_NE(p, nullptr);
  // One invocation per spawned thread, merged from each thread's sink after
  // the joins made the counts stable.
  EXPECT_EQ(p->invocations, kThreads);
  EXPECT_EQ(p->bytecodes, kThreads * 2u);
}

TEST_F(TelemetryTest, GcPauseCountMatchesHeapCollections) {
  VirtualMachine vm;
  vm.heap().set_threshold(1 << 14);
  const std::size_t before = vm.gc_count();
  for (int i = 0; i < 2000; ++i) {
    vm.heap().alloc_array(ValType::F64, 64);
  }
  ASSERT_GT(vm.gc_count(), before);
  vm.collect();  // at least one of each kind

  const telemetry::Snapshot s = telemetry::snapshot();
  const HeapStats hs = vm.heap().stats();
  ASSERT_GT(hs.minor_collections, 0u);
  ASSERT_GT(hs.major_collections, 0u);
  EXPECT_EQ(s.gc_pause_ns.count(),
            hs.minor_collections + hs.major_collections);
  EXPECT_EQ(s.minor_pause_ns.count(), hs.minor_collections);
  EXPECT_EQ(s.major_pause_ns.count(), hs.major_collections);
  EXPECT_EQ(vm.gc_count(), hs.minor_collections + hs.major_collections);
  // The arrays are unreferenced garbage, so collections must have freed some.
  EXPECT_GT(s.gc.bytes_freed, 0u);
  EXPECT_GT(s.gc.objects_swept, 0u);
  // Allocation counters came through the heap hook.
  EXPECT_GE(s.counter(telemetry::Counter::Allocations), 2000u);
  EXPECT_GT(s.counter(telemetry::Counter::BytesAllocated), 2000u * 64 * 8);
  // Every pause landed in the trace too.
  std::uint64_t gc_events = 0;
  for (const auto& ev : s.events) {
    if (std::string(ev.cat) == "gc") ++gc_events;
  }
  EXPECT_EQ(gc_events, s.gc_pause_ns.count());
}

TEST_F(TelemetryTest, MonitorAcquiresCounted) {
  VirtualMachine vm;
  VMContext& ctx = vm.main_context();
  ObjRef obj = vm.heap().alloc_instance(vm.thread_class());
  Pinned pin(vm, obj);
  for (int i = 0; i < 5; ++i) {
    vm.monitors().enter(ctx, obj);
    vm.monitors().exit(ctx, obj);
  }
  const telemetry::Snapshot s = telemetry::snapshot();
  EXPECT_EQ(s.counter(telemetry::Counter::MonitorAcquires), 5u);
  EXPECT_EQ(s.counter(telemetry::Counter::MonitorContended), 0u);
  EXPECT_EQ(s.monitor_wait_ns.count(), 0u);
}

TEST_F(TelemetryTest, ContendedAcquireObservableWhileParked) {
  VirtualMachine vm;
  ObjRef obj = vm.heap().alloc_instance(vm.thread_class());
  Pinned pin(vm, obj);
  VMContext& main = vm.main_context();
  vm.monitors().enter(main, obj);

  std::thread t([&] {
    auto ctx = vm.attach_thread(nullptr);
    vm.monitors().enter(*ctx, obj);  // blocks until main releases
    vm.monitors().exit(*ctx, obj);
    vm.detach_thread(*ctx);
  });

  // Contention is counted *before* the park, so it is visible while the
  // waiter is still blocked.
  while (telemetry::snapshot().counter(telemetry::Counter::MonitorContended) ==
         0) {
    std::this_thread::yield();
  }
  vm.monitors().exit(main, obj);
  t.join();

  const telemetry::Snapshot s = telemetry::snapshot();
  EXPECT_GE(s.counter(telemetry::Counter::MonitorAcquires), 2u);
  EXPECT_EQ(s.counter(telemetry::Counter::MonitorContended), 1u);
  EXPECT_EQ(s.monitor_wait_ns.count(), 1u);
}

TEST_F(TelemetryTest, MonitorWaitCounted) {
  VirtualMachine vm;
  ObjRef obj = vm.heap().alloc_instance(vm.thread_class());
  Pinned pin(vm, obj);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    auto ctx = vm.attach_thread(nullptr);
    vm.monitors().enter(*ctx, obj);
    vm.monitors().wait(*ctx, obj);
    woke.store(true);
    vm.monitors().exit(*ctx, obj);
    vm.detach_thread(*ctx);
  });
  VMContext& main = vm.main_context();
  while (!woke.load()) {
    vm.monitors().enter(main, obj);
    vm.monitors().pulse_all(main, obj);
    vm.monitors().exit(main, obj);
    std::this_thread::yield();
  }
  waiter.join();
  EXPECT_GE(telemetry::snapshot().counter(telemetry::Counter::MonitorWaits),
            1u);
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON: a minimal recursive-descent parser good enough to prove
// the writer emits well-formed JSON with the expected top-level shape.

class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool parse_document() {
    ws();
    if (!value()) return false;
    ws();
    return p_ == end_;
  }

 private:
  void ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  bool lit(const char* s) {
    const char* q = p_;
    while (*s != '\0') {
      if (q == end_ || *q != *s) return false;
      ++q, ++s;
    }
    p_ = q;
    return true;
  }
  bool value() {
    ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string_();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool string_() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ == end_ ||
                !std::isxdigit(static_cast<unsigned char>(*p_))) {
              return false;
            }
          }
        }
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ < end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    return p_ > start && (start[0] != '-' || p_ > start + 1);
  }
  bool object() {
    ++p_;  // '{'
    ws();
    if (p_ < end_ && *p_ == '}') { ++p_; return true; }
    for (;;) {
      ws();
      if (!string_()) return false;
      ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      if (!value()) return false;
      ws();
      if (p_ < end_ && *p_ == ',') { ++p_; continue; }
      if (p_ < end_ && *p_ == '}') { ++p_; return true; }
      return false;
    }
  }
  bool array() {
    ++p_;  // '['
    ws();
    if (p_ < end_ && *p_ == ']') { ++p_; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (p_ < end_ && *p_ == ',') { ++p_; continue; }
      if (p_ < end_ && *p_ == ']') { ++p_; return true; }
      return false;
    }
  }

  const char* p_;
  const char* end_;
};

TEST_F(TelemetryTest, ChromeTraceIsWellFormedJson) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_trace");
  EXPECT_EQ(f.run_on(0, m).i32, 5);  // emits a "jit" event
  // Names that stress the JSON escaper.
  telemetry::record_span("kernel", "quote\" slash\\ tab\t", 100, 200);
  telemetry::record_span("kernel", "plain", 150, 400, "\"answer\":42");

  const telemetry::Snapshot s = telemetry::snapshot();
  ASSERT_GE(s.events.size(), 3u);
  std::ostringstream os;
  telemetry::write_chrome_trace(os, s);
  const std::string doc = os.str();

  EXPECT_TRUE(MiniJson(doc).parse_document()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(doc.find("\"answer\":42"), std::string::npos);
}

TEST_F(TelemetryTest, SummaryJsonTablesAreWellFormed) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_summary");
  for (int i = 0; i < 3; ++i) f.run_on(2, m);
  f.run_on(0, m);
  const telemetry::Snapshot s = telemetry::snapshot();
  for (const auto& table :
       telemetry::summary_tables(s, &f.vm.module(), {})) {
    std::ostringstream os;
    table.print_json(os);
    EXPECT_TRUE(MiniJson(os.str()).parse_document()) << os.str();
  }
}

// Deliberately not TEST_F: this must also run (and hold) when telemetry is
// compiled out entirely with HPCNET_TELEMETRY=OFF.
TEST(TelemetryDisabled, CollectsNothing) {
  telemetry::set_enabled(false);
  telemetry::reset();
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_off");
  EXPECT_EQ(f.run_on(2, m).i32, 5);
  const telemetry::Snapshot s = telemetry::snapshot();
  EXPECT_EQ(s.method(m), nullptr);
  for (std::size_t c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(s.counters[c], 0u);
  }
  EXPECT_TRUE(s.events.empty());
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  VMFixture f;
  const std::int32_t m = build_add4(f.vm.module(), "tel_reset");
  f.run_on(2, m);
  f.run_on(0, m);
  ASSERT_NE(telemetry::snapshot().method(m), nullptr);
  telemetry::reset();
  const telemetry::Snapshot s = telemetry::snapshot();
  EXPECT_EQ(s.method(m), nullptr);
  EXPECT_TRUE(s.jit.empty());
  EXPECT_TRUE(s.events.empty());
  EXPECT_EQ(s.gc_pause_ns.count(), 0u);
}

}  // namespace
}  // namespace hpcnet::test
