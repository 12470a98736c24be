// vmserve: the multi-tenant execution service over SciMark jobs.
//
//   $ ./vmserve [engine] [--workers N] [--tenants N] [--rounds N]
//               [--fuel F] [--mem MB] [--deadline MS] [--json]
//   $ ./vmserve [engine] --listen PORT [--workers N] [--tenants N] ...
//
// Builds the SciMark kernels into one VM, starts an ExecutionService with N
// workers on the chosen engine profile, registers N tenants (each with the
// given per-job fuel, wall-clock deadline and per-tenant memory budget;
// 0 = unmetered), submits `rounds` rounds of mixed-size jobs per tenant,
// then prints every job's outcome, the per-tenant table (jobs completed/
// killed, fuel spent, bytes charged, queue wait; from the service's own
// TenantStats, so it prints in every build) and the telemetry summary.
//
// With --listen the local job loop is replaced by the TCP front end
// (src/vm/net): the service binds 127.0.0.1:PORT (0 = ephemeral; the bound
// port is printed), accepts any registered tenant (HELLO token ignored —
// this is a loopback demo, not a deployment posture), and serves SUBMIT/
// STATS/SNAPSHOT frames until stdin reaches EOF.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cil/sm.hpp"
#include "support/reporter.hpp"
#include "vm/net/server.hpp"
#include "vm/serialize.hpp"
#include "vm/service/service.hpp"
#include "vm/telemetry/summary.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace {

const char* kUsage =
    "usage: vmserve [engine] [--workers N] [--tenants N] [--rounds N]\n"
    "               [--fuel F] [--mem MB] [--deadline MS] [--json]\n"
    "               [--listen PORT]\n"
    "               [--load-snapshot FILE] [--save-snapshot FILE]\n"
    "  engine     profile name (clr11, mono023, rotor10, clr11.tiered, ...)\n"
    "  --workers  worker threads sharing the VM          (default 4)\n"
    "  --tenants  tenants submitting jobs                (default 2)\n"
    "  --rounds   rounds of 5 mixed SciMark jobs each    (default 2)\n"
    "  --fuel     per-job fuel budget, backward branches (default 0 = off)\n"
    "  --mem      per-tenant allocation budget in MB     (default 0 = off)\n"
    "  --deadline per-job wall-clock budget in ms        (default 0 = off)\n"
    "  --listen   serve jobs over TCP on 127.0.0.1:PORT (0 = ephemeral)\n"
    "             instead of running the local job loop; runs until stdin\n"
    "             EOF, then prints the per-tenant table and the\n"
    "             telemetry summary\n"
    "  --load-snapshot  warm-boot the service's code cache from FILE\n"
    "  --save-snapshot  after draining, archive the warmed cache to FILE\n";

struct JobSpec {
  const char* name;
  std::int32_t method;
  std::vector<hpcnet::vm::Slot> args;
};

/// One row per tenant from ExecutionService::tenant_stats.
void print_tenant_table(const hpcnet::vm::service::ExecutionService& svc,
                        int tenants, bool json) {
  hpcnet::support::ResultTable t("execution service (per tenant)");
  for (int i = 0; i < tenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    const hpcnet::vm::service::TenantStats st = svc.tenant_stats(name);
    const std::uint64_t killed = st.jobs_killed_fuel +
                                 st.jobs_killed_memory +
                                 st.jobs_killed_deadline;
    const std::uint64_t jobs =
        st.jobs_completed + killed + st.jobs_faulted + st.jobs_rejected;
    t.set(name, "jobs", static_cast<double>(jobs));
    t.set(name, "completed", static_cast<double>(st.jobs_completed));
    t.set(name, "killed", static_cast<double>(killed));
    t.set(name, "faulted", static_cast<double>(st.jobs_faulted));
    t.set(name, "rejected", static_cast<double>(st.jobs_rejected));
    t.set(name, "fuel_spent", static_cast<double>(st.fuel_spent));
    t.set(name, "alloc_mb",
          static_cast<double>(st.bytes_charged) / (1024.0 * 1024.0));
    if (jobs != 0) {
      const double n = static_cast<double>(jobs);
      t.set(name, "avg_queue_ms", static_cast<double>(st.queue_ns) * 1e-6 / n);
      t.set(name, "avg_run_ms", static_cast<double>(st.run_ns) * 1e-6 / n);
    }
  }
  if (json) {
    t.print_json(std::cout);
  } else {
    t.print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcnet;
  using vm::Slot;
  namespace telemetry = vm::telemetry;
  namespace service = vm::service;

  std::string engine = "clr11";
  int workers = 4;
  int tenants = 2;
  int rounds = 2;
  std::uint64_t fuel = 0;
  std::uint64_t mem_mb = 0;
  std::uint64_t deadline_ms = 0;
  bool listen = false;
  int listen_port = 0;
  bool json = false;
  std::string load_snapshot;
  std::string save_snapshot;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (a == "--load-snapshot" && i + 1 < argc) {
      load_snapshot = argv[++i];
    } else if (a == "--save-snapshot" && i + 1 < argc) {
      save_snapshot = argv[++i];
    } else if (a == "--tenants" && i + 1 < argc) {
      tenants = std::atoi(argv[++i]);
    } else if (a == "--rounds" && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else if (a == "--fuel" && i + 1 < argc) {
      fuel = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--mem" && i + 1 < argc) {
      mem_mb = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--deadline" && i + 1 < argc) {
      deadline_ms = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--listen" && i + 1 < argc) {
      listen = true;
      listen_port = std::atoi(argv[++i]);
    } else if (a == "--json") {
      json = true;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      engine = a;
    }
  }

  telemetry::set_enabled(true);

  vm::VirtualMachine machine;
  const std::vector<JobSpec> jobs = {
      {"fft", cil::build_sm_fft(machine),
       {Slot::from_i32(256), Slot::from_i32(2)}},
      {"sor", cil::build_sm_sor(machine),
       {Slot::from_i32(100), Slot::from_i32(10)}},
      {"montecarlo", cil::build_sm_montecarlo(machine),
       {Slot::from_i32(200000)}},
      {"sparse", cil::build_sm_sparse(machine),
       {Slot::from_i32(1000), Slot::from_i32(5000), Slot::from_i32(10)}},
      {"lu", cil::build_sm_lu(machine), {Slot::from_i32(100)}},
  };

  vm::EngineProfile profile;
  try {
    profile = vm::profiles::by_name(engine);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), kUsage);
    return 1;
  }

  // Warm-boot the code cache before the service spins up its workers, so
  // even the first job of the run dispatches into archived optimized code.
  if (!load_snapshot.empty()) {
    try {
      const vm::ArchiveStats s = vm::load_snapshot(machine, load_snapshot);
      std::fprintf(stderr, "snapshot: restored %zu methods, %zu misses\n",
                   s.restored, s.missed);
    } catch (const vm::SerializeError& e) {
      std::fprintf(stderr, "snapshot load failed: %s\n", e.what());
      return 1;
    }
  }

  service::ExecutionService svc(machine, profile,
                                {.workers = workers, .warm_start = nullptr});
  for (int t = 0; t < tenants; ++t) {
    svc.add_tenant({.name = "tenant-" + std::to_string(t),
                    .fuel_per_job = fuel,
                    .memory_budget_bytes = mem_mb << 20,
                    .deadline_ms = deadline_ms});
  }

  if (listen) {
    vm::net::ServerOptions sopt;
    sopt.port = static_cast<std::uint16_t>(listen_port);
    sopt.open_tenants = true;  // loopback demo: any registered tenant
    vm::net::VmServer server(machine, svc, sopt);
    try {
      server.start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "listen failed: %s\n", e.what());
      return 1;
    }
    std::printf("vmserve: listening on 127.0.0.1:%u (%d workers, %d tenants)\n",
                server.port(), svc.workers(), tenants);
    std::printf("vmserve: close stdin (ctrl-d) to shut down\n");
    std::fflush(stdout);
    // Serve until the operator (or driving script) closes stdin.
    char buf[256];
    while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
    }
    server.stop();
    svc.drain();
    print_tenant_table(svc, tenants, json);
    telemetry::SummaryOptions opts;
    opts.json = json;
    telemetry::print_summary(std::cout, telemetry::snapshot(),
                             &machine.module(), opts);
    return 0;
  }

  struct Pending {
    std::string tenant;
    const char* job;
    service::JobHandle handle;
  };
  std::vector<Pending> pending;
  for (int r = 0; r < rounds; ++r) {
    for (int t = 0; t < tenants; ++t) {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (const JobSpec& j : jobs) {
        pending.push_back(
            {tenant, j.name, svc.submit(tenant, j.method, j.args)});
      }
    }
  }

  std::printf("%-10s %-11s %-13s %14s %10s %9s %9s\n", "tenant", "job",
              "outcome", "value", "fuel", "queue_ms", "run_ms");
  for (Pending& p : pending) {
    const service::JobResult r = p.handle.wait();
    std::printf("%-10s %-11s %-13s %14.6g %10llu %9.3f %9.3f\n",
                p.tenant.c_str(), p.job, service::outcome_name(r.outcome),
                r.outcome == service::JobOutcome::Completed ? r.value.f64 : 0.0,
                static_cast<unsigned long long>(r.fuel_spent),
                static_cast<double>(r.queue_ns) * 1e-6,
                static_cast<double>(r.run_ns) * 1e-6);
  }
  svc.drain();
  std::printf("\n");

  if (!save_snapshot.empty()) {
    // capture_snapshot drains first — the cache is quiescent while the
    // archive walks it. save_snapshot then archives every warmed profile.
    svc.capture_snapshot();
    try {
      vm::save_snapshot(machine, save_snapshot);
      std::fprintf(stderr, "snapshot: saved to %s\n", save_snapshot.c_str());
    } catch (const vm::SerializeError& e) {
      std::fprintf(stderr, "snapshot save failed: %s\n", e.what());
      return 1;
    }
  }

  print_tenant_table(svc, tenants, json);
  telemetry::SummaryOptions opts;
  opts.json = json;
  telemetry::print_summary(std::cout, telemetry::snapshot(), &machine.module(),
                           opts);
  return 0;
}
