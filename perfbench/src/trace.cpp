#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/timer.hpp"

namespace perfbench {

namespace {

struct Rec {
  const char* name;
  const char* detail;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t req;  // request id of an async span, else 0
};

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Rec> recs;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};

// Bounds the trace's memory; spans past the cap are counted, not kept.
constexpr std::size_t kMaxSpans = 200000;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};
std::atomic<std::size_t> g_kept{0};
std::atomic<std::size_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> buf = [] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_mu);
    b->tid = static_cast<std::uint32_t>(g_buffers.size() + 1);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void keep(Buffer& b, const Rec& r) {
  if (g_kept.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.recs.push_back(r);
}

}  // namespace

namespace trace {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void record_async(const char* name, const char* detail, std::int64_t start_ns,
                  std::int64_t end_ns, std::uint64_t req) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  keep(b, {name, detail, start_ns, end_ns, ++g_next_id, 0, req});
}

std::size_t write_chrome_trace(const std::string& path,
                               const std::string& meta) {
  std::vector<std::pair<std::uint32_t, Rec>> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& b : g_buffers) {
      for (const Rec& r : b->recs) all.emplace_back(b->tid, r);
    }
  }
  std::int64_t t0 = all.empty() ? 0 : all.front().second.start_ns;
  for (const auto& [tid, r] : all) t0 = std::min(t0, r.start_ns);

  // Self time: children of one parent run on the parent's thread and never
  // overlap each other, so their durations sum to the covered interval.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& [tid, r] : all) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  struct Layer {
    std::size_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Layer> layers;

  std::ofstream out(path);
  if (!out) return 0;
  char buf[512];
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const char* text) {
    out << (first ? "\n" : ",\n") << text;
    first = false;
  };
  for (const auto& [tid, r] : all) {
    const double ts = static_cast<double>(r.start_ns - t0) * 1e-3;
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
    const auto it = child_ns.find(r.id);
    const double self =
        dur - (it == child_ns.end() ? 0.0
                                    : static_cast<double>(it->second) * 1e-3);
    Layer& l = layers[r.name];
    ++l.count;
    l.total_us += dur;
    l.self_us += self;
    const char* cat = r.detail != nullptr ? r.detail : "";
    if (r.req != 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"id\":%llu,"
                    "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                    r.name, cat, static_cast<unsigned long long>(r.req), ts,
                    tid);
      emit(buf);
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"id\":%llu,"
                    "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                    r.name, cat, static_cast<unsigned long long>(r.req),
                    ts + dur, tid);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"self_us\":%.3f}}",
                    r.name, cat, ts, dur, tid,
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent), self);
    }
    emit(buf);
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  if (!meta.empty()) out << meta << ",";
  out << "\"spans\":" << all.size() << ",\"dropped\":" << g_dropped.load()
      << ",\"layers\":{";
  first = true;
  for (const auto& [name, l] : layers) {
    std::snprintf(buf, sizeof buf,
                  "\"%s\":{\"count\":%zu,\"total_us\":%.3f,\"self_us\":%.3f}",
                  name.c_str(), l.count, l.total_us, l.self_us);
    out << (first ? "\n" : ",\n") << buf;
    first = false;
  }
  out << "}}}\n";
  return out ? all.size() : 0;
}

}  // namespace trace

Span::Span(const char* name, const char* detail)
    : name_(name), detail_(detail) {
  if (trace::enabled()) {
    Buffer& b = local_buffer();
    id_ = ++g_next_id;
    parent_ = b.open.empty() ? 0 : b.open.back();
    b.open.push_back(id_);
  }
  start_ns_ = hpcnet::support::now_ns();
}

std::int64_t Span::end() {
  if (dur_ns_ >= 0) return dur_ns_;
  const std::int64_t end_ns = hpcnet::support::now_ns();
  dur_ns_ = end_ns - start_ns_;
  if (id_ != 0) {
    Buffer& b = local_buffer();
    b.open.pop_back();
    keep(b, {name_, detail_, start_ns_, end_ns, id_, parent_, 0});
  }
  return dur_ns_;
}

}  // namespace perfbench
