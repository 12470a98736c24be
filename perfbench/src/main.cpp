// hpcbench: the repository benchmark binary. Runs one workload for a fixed
// wall-clock window and prints its metrics; perfbench/run.py builds it and
// is the entry point (see perfbench/README.md). A workload is the whole
// suite with one serve job mix: the scimark, boot and serve phases, run
// interleaved in turns across the window.
//
//   hpcbench --workload null-mix|kernel-mix --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--tiny]
//            [--revision REV]
//
// Exit status: 0 ok, 1 some output was wrong (the result line says
// "correct": false), 2 usage or benchmark error (no result line).
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

/// The timed window is cut into turns of about this length (at least two
/// turns); in every turn each phase runs for its share of it.
constexpr double kTurnSeconds = 3.0;
constexpr double kShare[] = {0.6, 0.2, 0.2};  // scimark, boot, serve

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string fingerprint(const Options& o, const std::string& revision) {
  return std::string("{") + "\"workload\": " + json_str(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + std::to_string(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") +
         ", \"tiny\": " + (o.tiny ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_str(cpu_model()) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"hpcnet_telemetry\": " +
         (HPCNET_TELEMETRY_ENABLED ? "true" : "false") +
         ", \"hpcnet_simd\": " + (PERFBENCH_SIMD ? "true" : "false") +
         ", \"compiler\": " + json_str(__VERSION__) +
         ", \"revision\": " + json_str(revision) + "}";
}

/// Confines the process, and every thread it starts, to one CPU of those it
/// may use (the last one); returns it, or -1 when the mask cannot be set.
/// On the shared 4-vCPU host this was tuned on, a hand-off between threads
/// on different vCPUs waits for the host to run the target vCPU, and that
/// wait swung serve throughput 2.5x with the neighbours' load; on one CPU a
/// hand-off is a context switch, and alternating runs agreed within 5%.
/// The scimark and boot phases are single-threaded and lose nothing.
int pin_to_one_cpu() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  return sched_setaffinity(0, sizeof mask, &mask) == 0 ? cpu : -1;
}

int usage() {
  std::cerr << "usage: hpcbench --workload null-mix|kernel-mix"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE] [--tiny]"
               " [--revision REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--revision" && has_value) {
      revision = argv[++i];
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();
  if (o.workload != "null-mix" && o.workload != "kernel-mix") return usage();
  o.kernel_mix = o.workload == "kernel-mix";

  Report report;
  report.info("pinned_cpu", pin_to_one_cpu());
  try {
    std::unique_ptr<Phase> phases[] = {
        make_scimark_phase(o), make_boot_phase(o), make_serve_phase(o)};
    for (auto& p : phases) {
      std::vector<double> secs;
      for (int rep = 0; rep < kSetups; ++rep) {
        const double t0 = now_s();
        p->set_up(report);
        secs.push_back(now_s() - t0);
      }
      report.setup(p->name(), median(secs));
    }

    // The timed window: a fixed number of turns, so that the serve phase's
    // fixed-size bursts add up to the same work on every run. Each turn runs
    // the phases in a seeded order; in a traced run every other turn
    // records spans, so each phase can compare the two halves.
    const int turns = std::max(2, static_cast<int>(o.seconds / kTurnSeconds));
    const double turn_s = o.seconds / turns;
    std::vector<std::size_t> order = {0, 1, 2};
    Rng rng(o.seed);
    const double start = now_s();
    for (int turn = 0; turn < turns; ++turn) {
      const bool traced = o.trace && turn % 2 == 1;
      trace::set_enabled(traced);
      shuffle(order, rng);
      for (std::size_t i : order) {
        phases[i]->run(turn_s * kShare[i], traced, report);
      }
    }
    trace::set_enabled(false);
    report.info("turns", turns);
    report.info("window_s", now_s() - start);
    for (auto& p : phases) p->finish(report);
    if (!o.trace) {
      report.metric("setup_s", report.setup_s(), "s");
      report.metric("rss_peak_mb", rss_peak_mb(), "MB");
    }
  } catch (const std::exception& e) {
    std::cerr << "hpcbench: " << o.workload << " aborted: " << e.what() << "\n";
    return 2;
  }
  trace::set_enabled(false);

  const std::string fp = fingerprint(o, revision);
  if (o.trace && !o.trace_out.empty()) {
    const std::size_t n = trace::write_chrome_trace(
        o.trace_out,
        "\"fingerprint\": " + fp + ", \"metrics\": {" + report.metrics_json() +
            "}");
    report.info("trace_file", o.trace_out);
    report.info("trace_spans", static_cast<double>(n));
  }
  const double failed_ratio =
      report.attempted() == 0
          ? 1.0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  report.info("failed_ratio", failed_ratio);
  report.print(fp);
  return report.correct() ? 0 : 1;
}
