// Shared pieces of hpcbench: command-line options, the result
// report, sample statistics, and the programs every workload builds into
// its VMs (the five SciMark kernels plus two service probe methods).
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cil/suite.hpp"
#include "vm/execution.hpp"

namespace perfbench {

using hpcnet::vm::Slot;

struct Options {
  std::string workload;
  /// The kernel-mix workload: the serve phase runs the kernel-heavy job
  /// mix instead of the null-heavy one (serve_tcp.cpp).
  bool kernel_mix = false;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // chrome-trace path (traced runs)
  bool tiny = false;      // smoke-test sizes
};

/// What one workload run reports. Metrics are printed in insertion order;
/// a name reported twice is a benchmark bug and aborts the run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Free-form fact printed on an "info" line (sample counts, notes).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Adds one phase's set-up time to the run's setup_s and prints it as an
  /// info line.
  void setup(const std::string& phase, double seconds);
  double setup_s() const { return setup_s_; }

  /// Counts one operation (kernel call, job, boot); `completed` false when
  /// it threw, was rejected or was killed.
  void attempt(bool completed) {
    ++attempted_;
    if (!completed) ++failed_;
  }
  void attempts(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// Records a wrong result: the run will be reported as incorrect and the
  /// benchmark exits non-zero.
  void wrong(const std::string& what);

  bool correct() const { return wrong_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the metric and info lines, then the final result object as the
  /// last line of stdout.
  void print(const std::string& fingerprint_json) const;
  /// JSON object body of the metrics (for the trace file's otherData).
  std::string metrics_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> wrong_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double setup_s_ = 0;
};

// --- Statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// Smallest sample. End-to-end figures are taken from the fast part of the
/// timed window: the best call (scimark phase), the 1st-percentile boot
/// (boot phase), the 95th-percentile 0.1 s slice (serve phase). The host
/// this benchmark was tuned on switches between a fast and a ~1.5x slower
/// speed every few seconds to a minute (neighbours on shared cores), so a
/// median over the window tracks how long the host stayed slow, while the
/// fast part tracks the program (perfbench/README.md, "Noise").
double best_min(const std::vector<double>& v);

/// Set-ups per phase and run; the phase's share of setup_s is their median.
constexpr int kSetups = 5;

/// Peak resident set (VmHWM) of this process in MB.
double rss_peak_mb();
double now_s();

/// Deterministic generator for everything derived from --seed.
using Rng = std::mt19937_64;
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng() % i)]);
  }
}

// --- Programs --------------------------------------------------------------

/// One SciMark kernel call: method, arguments, SciMark flop count, and the
/// native src/kernels checksum it must reproduce.
struct KernelCall {
  const char* name;  // "FFT", "SOR", "MonteCarlo", "Sparse", "LU"
  const char* key;   // metric key: fft, sor, montecarlo, sparse, lu
  std::int32_t method;
  std::vector<Slot> args;
  double flops;
  double want;
};
constexpr int kKernels = 5;

/// Builds the five CIL SciMark kernels into `vm` (no-op when already built)
/// and returns their method ids in SciMark order.
std::vector<std::int32_t> build_scimark(hpcnet::vm::VirtualMachine& vm);

/// build_scimark plus each kernel's call at `sizes`, in SciMark order.
std::vector<KernelCall> scimark_calls(hpcnet::vm::VirtualMachine& vm,
                                      const hpcnet::cil::ScimarkSizes& sizes);

/// Runs the native twin of `k`; returns its checksum.
double run_native(const KernelCall& k, const hpcnet::cil::ScimarkSizes& s);

/// The SciMark validation rule of run_scimark_cil: 1e-9 relative.
bool checksum_ok(double got, double want);

/// Service probe methods built by the benchmark. Built in a fixed order so
/// that two VMs that both call build_probes agree on class ids (the graph
/// result crosses VMs through serialize_graph, which encodes class ids).
struct Probes {
  std::int32_t null_fn = -1;   // pb.null(i4 x) -> x
  std::int32_t graph_fn = -1;  // pb.graph(i4 n, i4 salt) -> pb.Node root
  std::int32_t node_class = -1;
};
Probes build_probes(hpcnet::vm::VirtualMachine& vm);

/// Walks a pb.graph(n, salt) result: node i (along `next`) carries payload
/// salt + 3i and its `jump` points at node i/2. Returns an empty string
/// when the graph is exactly that, else what differs.
std::string check_graph(hpcnet::vm::ObjRef root, std::int32_t n,
                        std::int32_t salt);

// --- Phases ----------------------------------------------------------------

/// One part of the suite. A workload sets every phase up, then runs them
/// interleaved: the timed window is cut into turns, and in every turn each
/// phase runs for its share of the turn (main.cpp), so that the host's slow
/// spells land on every phase alike.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual const char* name() const = 0;
  /// Builds the phase's fixture, replacing any earlier one. The caller
  /// times kSetups of them; setup_s sums the phases' medians.
  virtual void set_up(Report& r) = 0;
  /// Runs the phase's operations for about `seconds`: one turn's share.
  /// `traced` says whether spans are being recorded during it.
  virtual void run(double seconds, bool traced, Report& r) = 0;
  /// After the window: the end-to-end metrics in an untraced run, the
  /// per-layer metrics (and their own probes) in a traced one.
  virtual void finish(Report& r) = 0;
};

std::unique_ptr<Phase> make_scimark_phase(const Options& o);
std::unique_ptr<Phase> make_boot_phase(const Options& o);
std::unique_ptr<Phase> make_serve_phase(const Options& o);

}  // namespace perfbench
