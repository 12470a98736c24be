// Outside-in span tracing for hpcbench. Each span brackets one call the
// benchmark makes into a VM layer's public API (Engine::invoke,
// ExecutionService::submit, VmClient::call, attach_archive, ...). Spans are
// kept in per-thread memory and written once, at the end of the run, as a
// chrome-trace JSON file together with each layer's self time: a span's
// duration minus the part covered by its child spans.
//
// Recording is off unless enabled; a disabled Span costs one relaxed load
// plus the clock reads the benchmark needs for its own metrics anyway.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

namespace trace {

/// Turns recording on or off for spans that start from now on (any thread).
void set_enabled(bool on);
bool enabled();

/// Records a finished request span that does not nest on its thread (a
/// pipelined round trip). Written as a chrome-trace async begin/end pair
/// keyed by the request id `req`.
void record_async(const char* name, const char* detail, std::int64_t start_ns,
                  std::int64_t end_ns, std::uint64_t req);

/// Writes every recorded span plus the per-layer self-time table to `path`
/// and returns the number of spans written. `meta` is a JSON object body
/// (without braces) merged into the file's "otherData".
std::size_t write_chrome_trace(const std::string& path,
                               const std::string& meta);

}  // namespace trace

/// RAII span on the calling thread. The innermost open span of the thread
/// is the parent of any span started inside it. `name` and `detail` must be
/// string literals (or otherwise outlive the run).
class Span {
 public:
  explicit Span(const char* name, const char* detail = nullptr);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in ns.
  std::int64_t end();

 private:
  const char* name_;
  const char* detail_;
  std::uint64_t id_ = 0;  // 0 when not recording
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_;
  std::int64_t dur_ns_ = -1;
};

}  // namespace perfbench
