// Multi-tenant execution service throughput (DESIGN.md §11). Two tables:
//
//   Table 1 — jobs/sec and p50/p99 end-to-end latency (submit -> result) for
//             a mixed SciMark job batch from 4 tenants, at 1/2/4/8 workers
//             sharing one VM.
//   Table 2 — fuel-metering overhead on an uncontended single-tenant run of
//             the same mix: unmetered vs. a fuel budget high enough that no
//             job is killed. This isolates the cost of the metering itself
//             (the back-edge pulse charge) from the cost of kills. CI asserts
//             the overhead stays under 5%.
//   Table 3 — TCP loopback vs in-process (DESIGN.md §14): the same mix
//             driven by 4 tenant threads, each keeping a pipeline of 8 jobs
//             outstanding — in-process via submit/wait handles, over TCP via
//             one VmClient connection each. Latency is client-observed
//             (submit to result seen), so the TCP rows carry the full frame
//             encode/decode + loopback + event-loop cost. The binary asserts
//             the best TCP p50 stays under 2x its in-process counterpart:
//             at pipeline depth 8 the wire cost must amortize.
//
//   bench_service [--quick] [--json FILE]
//
// Jobs run on the clr11 (optimizing) profile; all workers share the VM's
// code cache, so a one-worker warmup service compiles the kernels for every
// configuration that follows.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cil/sm.hpp"
#include "support/reporter.hpp"
#include "vm/net/client.hpp"
#include "vm/net/server.hpp"
#include "vm/service/service.hpp"

namespace {

using namespace hpcnet;
using vm::Slot;
namespace service = hpcnet::vm::service;

struct JobSpec {
  const char* name;
  std::int32_t method;
  std::vector<Slot> args;
};

struct BatchResult {
  double jobs_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Submits `total` jobs round-robin over `tenants` and the job mix, drains,
/// and reports throughput plus end-to-end (queue + run) latency percentiles.
BatchResult run_batch(service::ExecutionService& svc,
                      const std::vector<std::string>& tenants,
                      const std::vector<JobSpec>& jobs, int total) {
  std::vector<service::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(total));
  const double t0 = now_ms();
  for (int i = 0; i < total; ++i) {
    const JobSpec& j = jobs[static_cast<std::size_t>(i) % jobs.size()];
    handles.push_back(svc.submit(tenants[static_cast<std::size_t>(i) %
                                         tenants.size()],
                                 j.method, j.args));
  }
  svc.drain();
  const double wall_ms = now_ms() - t0;

  std::vector<double> latency_ms;
  latency_ms.reserve(handles.size());
  for (service::JobHandle& h : handles) {
    const service::JobResult r = h.wait();  // done: returns immediately
    if (r.outcome != service::JobOutcome::Completed) {
      std::cerr << "job failed: " << r.error << "\n";
      std::exit(1);
    }
    latency_ms.push_back(static_cast<double>(r.queue_ns + r.run_ns) * 1e-6);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  const std::size_t n = latency_ms.size();
  BatchResult out;
  out.jobs_per_sec = static_cast<double>(total) / (wall_ms * 1e-3);
  out.p50_ms = latency_ms[n / 2];
  out.p99_ms = latency_ms[std::min(n - 1, n * 99 / 100)];
  return out;
}

BatchResult summarize(double wall_ms, std::vector<double> latency_ms) {
  std::sort(latency_ms.begin(), latency_ms.end());
  const std::size_t n = latency_ms.size();
  BatchResult out;
  out.jobs_per_sec = static_cast<double>(n) / (wall_ms * 1e-3);
  out.p50_ms = latency_ms[n / 2];
  out.p99_ms = latency_ms[std::min(n - 1, n * 99 / 100)];
  return out;
}

constexpr int kPipelineDepth = 8;

/// 4 driver threads, one per tenant, each a sliding window of depth-8
/// in-flight jobs; latency is client-observed submit -> result.
BatchResult run_inprocess_drivers(service::ExecutionService& svc,
                                  const std::vector<std::string>& tenants,
                                  const std::vector<JobSpec>& jobs,
                                  int per_tenant) {
  std::mutex mu;
  std::vector<double> latency_ms;
  const double t0 = now_ms();
  std::vector<std::thread> drivers;
  for (const std::string& tenant : tenants) {
    drivers.emplace_back([&, tenant] {
      std::vector<double> local;
      std::deque<std::pair<service::JobHandle, double>> window;
      const auto reap_front = [&] {
        auto [h, sent] = std::move(window.front());
        window.pop_front();
        const service::JobResult r = h.wait();
        if (r.outcome != service::JobOutcome::Completed) {
          std::cerr << "job failed: " << r.error << "\n";
          std::exit(1);
        }
        local.push_back(now_ms() - sent);
      };
      for (int i = 0; i < per_tenant; ++i) {
        if (static_cast<int>(window.size()) == kPipelineDepth) reap_front();
        const JobSpec& j = jobs[static_cast<std::size_t>(i) % jobs.size()];
        window.emplace_back(svc.submit(tenant, j.method, j.args), now_ms());
      }
      while (!window.empty()) reap_front();
      std::lock_guard<std::mutex> lock(mu);
      latency_ms.insert(latency_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : drivers) t.join();
  return summarize(now_ms() - t0, std::move(latency_ms));
}

/// Same drivers, but through one pipelined VmClient connection per tenant.
BatchResult run_tcp_drivers(std::uint16_t port,
                            const std::vector<std::string>& tenants,
                            const std::vector<JobSpec>& jobs,
                            int per_tenant) {
  std::mutex mu;
  std::vector<double> latency_ms;
  const double t0 = now_ms();
  std::vector<std::thread> drivers;
  for (const std::string& tenant : tenants) {
    drivers.emplace_back([&, tenant] {
      vm::net::VmClient client;
      client.connect("127.0.0.1", port);
      client.hello(tenant, "");
      std::vector<double> local;
      std::map<std::uint64_t, double> sent;  // request id -> send time
      const auto reap_one = [&] {
        const vm::net::WireResult r = client.recv_result();
        if (r.outcome != 0) {
          std::cerr << "tcp job failed: " << r.error << "\n";
          std::exit(1);
        }
        local.push_back(now_ms() - sent.at(r.request_id));
        sent.erase(r.request_id);
      };
      for (int i = 0; i < per_tenant; ++i) {
        if (static_cast<int>(sent.size()) == kPipelineDepth) reap_one();
        const JobSpec& j = jobs[static_cast<std::size_t>(i) % jobs.size()];
        std::vector<vm::net::WireValue> args;
        args.reserve(j.args.size());
        for (const Slot& s : j.args) {
          args.push_back(vm::net::WireValue::from_i32(s.i32));
        }
        sent.emplace(client.send_submit(j.method, args), now_ms());
      }
      while (!sent.empty()) reap_one();
      std::lock_guard<std::mutex> lock(mu);
      latency_ms.insert(latency_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : drivers) t.join();
  return summarize(now_ms() - t0, std::move(latency_ms));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_service [--quick] [--json FILE]\n";
      return 1;
    }
  }

  vm::VirtualMachine machine;
  const std::vector<JobSpec> jobs = {
      {"fft", cil::build_sm_fft(machine),
       {Slot::from_i32(256), Slot::from_i32(quick ? 1 : 2)}},
      {"sor", cil::build_sm_sor(machine),
       {Slot::from_i32(quick ? 50 : 100), Slot::from_i32(quick ? 5 : 10)}},
      {"montecarlo", cil::build_sm_montecarlo(machine),
       {Slot::from_i32(quick ? 50000 : 200000)}},
      {"sparse", cil::build_sm_sparse(machine),
       {Slot::from_i32(quick ? 500 : 1000), Slot::from_i32(quick ? 2500 : 5000),
        Slot::from_i32(quick ? 5 : 10)}},
      {"lu", cil::build_sm_lu(machine), {Slot::from_i32(quick ? 50 : 100)}},
  };
  const vm::EngineProfile profile = vm::profiles::by_name("clr11");
  const int batch = quick ? 60 : 240;

  {
    // Warm the shared code cache so worker counts compare steady-state JIT
    // code rather than racing first-compile latency.
    service::ExecutionService warm(machine, profile,
                                   {.workers = 1, .warm_start = nullptr});
    warm.add_tenant({.name = "warmup"});
    run_batch(warm, {"warmup"}, jobs, static_cast<int>(jobs.size()) * 2);
  }

  support::ResultTable scaling(
      "Service throughput: mixed SciMark jobs, 4 tenants (per worker count)");
  for (int workers : {1, 2, 4, 8}) {
    service::ExecutionService svc(machine, profile,
                                  {.workers = workers, .warm_start = nullptr});
    std::vector<std::string> tenants;
    for (int t = 0; t < 4; ++t) {
      tenants.push_back("tenant-" + std::to_string(t));
      svc.add_tenant({.name = tenants.back()});
    }
    const BatchResult r = run_batch(svc, tenants, jobs, batch);
    const std::string row = std::to_string(workers) +
                            (workers == 1 ? " worker" : " workers");
    scaling.set(row, "jobs_per_sec", r.jobs_per_sec);
    scaling.set(row, "p50_ms", r.p50_ms);
    scaling.set(row, "p99_ms", r.p99_ms);
    std::cerr << row << ": " << support::sci(r.jobs_per_sec)
              << " jobs/sec\n";
  }

  // Fuel-metering overhead, uncontended: one tenant, one worker, same mix,
  // budget far above any job's spend so the meter runs but never fires.
  // Best-of-3 on both sides to damp scheduler noise.
  support::ResultTable overhead(
      "Service overhead: fuel metering, single tenant, 1 worker");
  double best_off = 0;
  double best_on = 0;
  for (int trial = 0; trial < 3; ++trial) {
    {
      service::ExecutionService svc(machine, profile,
                                    {.workers = 1, .warm_start = nullptr});
      svc.add_tenant({.name = "solo"});
      best_off = std::max(
          best_off, run_batch(svc, {"solo"}, jobs, batch / 2).jobs_per_sec);
    }
    {
      service::ExecutionService svc(machine, profile,
                                    {.workers = 1, .warm_start = nullptr});
      svc.add_tenant({.name = "solo", .fuel_per_job = 1ull << 40});
      best_on = std::max(
          best_on, run_batch(svc, {"solo"}, jobs, batch / 2).jobs_per_sec);
    }
  }
  const double pct = (best_off - best_on) / best_off * 100.0;
  overhead.set("unmetered jobs/sec", "clr11", best_off);
  overhead.set("fuel metered jobs/sec", "clr11", best_on);
  overhead.set("overhead %", "clr11", pct);

  // Table 3: the wire tax. Same mix, same 4 tenants, pipeline depth 8 per
  // tenant, measured from the caller's side of the seam — handle.wait() for
  // in-process, RESULT frame arrival for TCP.
  support::ResultTable loopback(
      "Service front end: TCP loopback vs in-process, 4 tenants, depth 8");
  double best_ratio = 1e9;
  for (int workers : {1, 4, 8}) {
    service::ExecutionService svc(machine, profile,
                                  {.workers = workers, .warm_start = nullptr});
    std::vector<std::string> tenants;
    for (int t = 0; t < 4; ++t) {
      tenants.push_back("tenant-" + std::to_string(t));
      svc.add_tenant({.name = tenants.back()});
    }
    vm::net::ServerOptions sopt;
    sopt.open_tenants = true;
    vm::net::VmServer server(machine, svc, sopt);
    server.start();
    const int per_tenant = batch / 4;
    const BatchResult inproc =
        run_inprocess_drivers(svc, tenants, jobs, per_tenant);
    const BatchResult tcp =
        run_tcp_drivers(server.port(), tenants, jobs, per_tenant);
    server.stop();
    const std::string row = std::to_string(workers) +
                            (workers == 1 ? " worker" : " workers");
    loopback.set(row, "inproc_jobs_per_sec", inproc.jobs_per_sec);
    loopback.set(row, "inproc_p50_ms", inproc.p50_ms);
    loopback.set(row, "inproc_p99_ms", inproc.p99_ms);
    loopback.set(row, "tcp_jobs_per_sec", tcp.jobs_per_sec);
    loopback.set(row, "tcp_p50_ms", tcp.p50_ms);
    loopback.set(row, "tcp_p99_ms", tcp.p99_ms);
    const double ratio = tcp.p50_ms / inproc.p50_ms;
    loopback.set(row, "tcp_p50_ratio", ratio);
    best_ratio = std::min(best_ratio, ratio);
    std::cerr << row << ": tcp p50 " << support::sci(tcp.p50_ms)
              << " ms vs in-process " << support::sci(inproc.p50_ms)
              << " ms (" << support::sci(ratio) << "x)\n";
  }

  scaling.print(std::cout);
  std::cout << "\n";
  overhead.print(std::cout);
  std::cout << "\n";
  loopback.print(std::cout);

  // The claim CI holds us to: with the pipeline keeping the workers fed, the
  // per-job wire cost amortizes to under 2x the in-process p50. Asserted on
  // the best row — single-core CI runners make per-row asserts flaky, and
  // the claim is about the protocol's floor, not the scheduler's noise.
  if (best_ratio >= 2.0) {
    std::cerr << "FAIL: best tcp/in-process p50 ratio "
              << support::sci(best_ratio) << " >= 2.0\n";
    return 1;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "[";
    scaling.print_json(out);
    out << ",\n";
    overhead.print_json(out);
    out << ",\n";
    loopback.print_json(out);
    out << "]\n";
    std::cout << "JSON written to " << json_path << "\n";
  }
  return 0;
}
