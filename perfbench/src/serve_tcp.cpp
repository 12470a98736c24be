// The serve phase: a closed-loop job stream through VmServer on loopback. Two
// VmClient connections, each its own tenant ("open" is unmetered; "metered"
// arms fuel, deadline and memory budget far above any job's needs so the
// metering path runs but never fires), keep 8 jobs in flight each against
// an ExecutionService with clr11 and 2 workers. HPC job scripts keep a
// bounded number of jobs outstanding, hence a closed loop. One client
// thread drives both connections, and the whole process runs on one CPU
// (main.cpp), so a job's time is the CPU its path costs (client encode,
// frame decode, queue, run, result encode, client decode, context
// switches) rather than how fast the host wakes an idle vCPU. Each turn of
// the window is one burst of a fixed number of jobs (a nominal rate times
// the turn's share), so the work a run does, and the memory it leaves
// behind, do not depend on the host's speed.
//
// Three job kinds, mixed per workload (kNullMix, kKernelMix):
//   null  - pb.null(x) returns its i4 argument
//   tiny  - the five SciMark kernels at test_model() sizes, in rotation
//   graph - pb.graph(n, salt) returns an n-node object graph, so the
//           result crosses serialize_graph and the wire as a blob
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "vm/heap.hpp"
#include "vm/net/client.hpp"
#include "vm/net/server.hpp"
#include "vm/serialize.hpp"
#include "vm/service/service.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace net = hpcnet::vm::net;
namespace service = hpcnet::vm::service;
using hpcnet::cil::ScimarkSizes;
using hpcnet::support::now_ns;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::size_t kDepth = 8;
constexpr const char* kTenants[kClients] = {"open", "metered"};
constexpr int kFuelJobs = 1000;  // metered jobs summed for the fuel guard
constexpr double kSliceSeconds = 0.1;

/// A job mix: jobs of each kind per block of 100, and the jobs per second
/// of a burst's time share, about the rate the mix sustains on one CPU of
/// the host this was tuned on.
struct Mix {
  int null_jobs;
  int tiny_jobs;
  int graph_jobs;
  double nominal_jobs_per_s;
};
/// null-mix: per-job fixed costs (frame decode, DRR queue, verify latch,
/// result encode, serialization) dominate only while kernels stay a small
/// share of the job time.
constexpr Mix kNullMix{80, 15, 5, 20000};
/// kernel-mix: the counterpart, where kernel execution takes most of each
/// job's time and the fixed costs are diluted.
constexpr Mix kKernelMix{40, 55, 5, 6000};

enum Kind : std::uint8_t { kNull, kTiny, kGraph, kKinds };
constexpr const char* kKindName[kKinds] = {"null", "tiny", "graph"};

/// A sample stamped with its completion time (seconds, now_s() clock).
struct Timed {
  double t;
  double value;
};

/// A burst's steady part: from its first send until the first client
/// stopped sending (the drain tail after it is not steady).
struct Burst {
  double start;
  double end;
};

/// The steady parts of the bursts cut into whole slices of `slice_s`
/// seconds: a slice holds the values whose timestamp falls inside it.
std::vector<std::vector<double>> by_slice(const std::vector<Timed>& samples,
                                          const std::vector<Burst>& bursts,
                                          double slice_s) {
  std::vector<std::vector<double>> out;
  std::vector<std::pair<double, std::size_t>> starts;  // slice start, index
  for (const Burst& b : bursts) {
    for (double t = b.start; t + slice_s <= b.end; t += slice_s) {
      starts.emplace_back(t, out.size());
      out.emplace_back();
    }
  }
  for (const Timed& s : samples) {
    auto it = std::upper_bound(
        starts.begin(), starts.end(), s.t,
        [](double t, const auto& st) { return t < st.first; });
    if (it == starts.begin()) continue;
    --it;
    if (s.t < it->first + slice_s) out[it->second].push_back(s.value);
  }
  return out;
}

struct Job {
  Kind kind;
  std::int32_t arg;  // null: the value; tiny: kernel index; graph: salt
};

/// The seeded job stream: blocks of 100 jobs in the proportions of `mix`,
/// each block shuffled, each job assigned to a tenant by the seed.
std::vector<Job> make_jobs(const Mix& mix, Rng& rng, std::size_t blocks,
                           int tenant) {
  std::vector<Job> out;
  std::int32_t salts[8];
  for (std::int32_t& s : salts) s = static_cast<std::int32_t>(rng() % 1000);
  int next_kernel = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Kind> block;
    block.insert(block.end(), mix.null_jobs, kNull);
    block.insert(block.end(), mix.tiny_jobs, kTiny);
    block.insert(block.end(), mix.graph_jobs, kGraph);
    shuffle(block, rng);
    for (Kind k : block) {
      Job j{k, 0};
      if (k == kNull) j.arg = static_cast<std::int32_t>(rng());
      if (k == kTiny) j.arg = next_kernel++ % kKernels;
      if (k == kGraph) j.arg = salts[rng() % 8];
      if (static_cast<int>(rng() % kClients) == tenant) out.push_back(j);
    }
  }
  return out;
}

struct Expect {
  const Probes* probes;
  const std::vector<KernelCall>* tiny;
  std::int32_t graph_n;
};

std::pair<std::int32_t, std::vector<net::WireValue>> job_call(const Job& j,
                                                             const Expect& x) {
  switch (j.kind) {
    case kNull:
      return {x.probes->null_fn, {net::WireValue::from_i32(j.arg)}};
    case kTiny: {
      const KernelCall& k = (*x.tiny)[static_cast<std::size_t>(j.arg)];
      std::vector<net::WireValue> args;
      for (const Slot& s : k.args) {
        args.push_back(net::WireValue::from_i32(s.i32));
      }
      return {k.method, std::move(args)};
    }
    default:
      return {x.probes->graph_fn,
              {net::WireValue::from_i32(x.graph_n),
               net::WireValue::from_i32(j.arg)}};
  }
}

/// What one client thread observed.
struct ClientLog {
  std::vector<Timed> latency_ms;  // by completion time
  std::vector<double> net_us;    // latency - queue - run
  std::vector<double> queue_us;
  std::vector<double> run_us[kKinds];
  double kernel_run_s = 0;  // tiny + graph run time
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t fuel = 0;  // over the first kFuelJobs jobs sent
  std::size_t seq = 0;     // jobs sent so far, over all bursts
  std::int64_t last_send_ns = 0;  // of the current burst
  std::map<std::int32_t, std::vector<char>> graph_ref;  // salt -> first blob
  std::vector<std::pair<std::int32_t, std::vector<char>>> graph_odd;
  std::vector<std::string> wrong;
};

/// The server side plus the two connected clients. Members are declared in
/// construction order, so destruction closes clients, stops the server,
/// stops the service and only then frees the VM.
struct Fixture {
  std::unique_ptr<vm::VirtualMachine> vm;
  Probes probes;
  std::vector<KernelCall> tiny;
  std::unique_ptr<service::ExecutionService> svc;
  std::unique_ptr<net::VmServer> server;
  net::VmClient clients[kClients];
};

/// Checks a result the client can judge on its own; graph blobs are kept
/// for a walk on the benchmark VM after the run.
void check(const Job& j, const net::WireResult& res, const Expect& x,
           ClientLog& log) {
  if (j.kind == kNull && res.value.as_i32() != j.arg) {
    log.wrong.push_back("null job returned " +
                        std::to_string(res.value.as_i32()) + ", want " +
                        std::to_string(j.arg));
  } else if (j.kind == kTiny) {
    const KernelCall& k = (*x.tiny)[static_cast<std::size_t>(j.arg)];
    if (!checksum_ok(res.value.as_f64(), k.want)) {
      log.wrong.push_back(std::string("tiny ") + k.name + " returned " +
                          std::to_string(res.value.as_f64()));
    }
  } else if (j.kind == kGraph) {
    auto [it, first] = log.graph_ref.try_emplace(j.arg, res.value.blob);
    if (!first && it->second != res.value.blob) {
      log.graph_odd.emplace_back(j.arg, res.value.blob);
    }
  }
}

/// One closed-loop burst over every connection, from one thread: keeps
/// kDepth jobs in flight on each until it has sent `sends` jobs there, then
/// drains. Connections take turns at receiving one result each, so a
/// result may wait in its socket while the thread blocks on the other
/// connection; the latency counts that wait, as a single-threaded job
/// driver would see it.
void drive(net::VmClient (&clients)[kClients],
           const std::vector<Job> (&jobs)[kClients], const Expect& x,
           std::size_t sends, ClientLog (&logs)[kClients]) {
  struct Pending {
    std::int64_t sent_ns;
    std::size_t seq;
  };
  std::unordered_map<std::uint64_t, Pending> pending[kClients];
  std::size_t last[kClients];
  const auto send = [&](int c) {
    ClientLog& log = logs[c];
    const Job& j = jobs[c][log.seq % jobs[c].size()];
    auto [method, args] = job_call(j, x);
    const std::int64_t t = now_ns();
    std::uint64_t id;
    {
      Span span("net.send_submit", kKindName[j.kind]);
      id = clients[c].send_submit(method, args);
    }
    pending[c].emplace(id, Pending{t, log.seq++});
    log.last_send_ns = t;
  };
  for (int c = 0; c < kClients; ++c) {
    last[c] = logs[c].seq + sends;
    while (pending[c].size() < kDepth && logs[c].seq < last[c]) send(c);
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (int c = 0; c < kClients; ++c) {
      if (pending[c].empty()) continue;
      busy = true;
      ClientLog& log = logs[c];
      net::WireResult res;
      {
        Span span("net.recv_result");
        res = clients[c].recv_result();
      }
      const std::int64_t t = now_ns();
      const auto it = pending[c].find(res.request_id);
      if (it == pending[c].end()) {
        throw std::runtime_error("result for unknown request " +
                                 std::to_string(res.request_id));
      }
      const Pending p = it->second;
      pending[c].erase(it);
      const Job& j = jobs[c][p.seq % jobs[c].size()];
      trace::record_async(
          "net.roundtrip", kKindName[j.kind], p.sent_ns, t,
          (static_cast<std::uint64_t>(c + 1) << 40) | res.request_id);
      if (res.outcome != 0) {
        ++log.failed;
        if (log.failed <= 5) {
          std::cerr << "job " << kKindName[j.kind] << " failed: " << res.error
                    << "\n";
        }
      } else {
        ++log.completed;
        check(j, res, x, log);
        const double lat_ns = static_cast<double>(t - p.sent_ns);
        log.latency_ms.push_back(
            {static_cast<double>(t) * 1e-9, lat_ns * 1e-6});
        log.net_us.push_back(
            (lat_ns - static_cast<double>(res.queue_ns + res.run_ns)) * 1e-3);
        log.queue_us.push_back(static_cast<double>(res.queue_ns) * 1e-3);
        log.run_us[j.kind].push_back(static_cast<double>(res.run_ns) * 1e-3);
        if (j.kind != kNull) {
          log.kernel_run_s += static_cast<double>(res.run_ns) * 1e-9;
        }
        if (p.seq < kFuelJobs) log.fuel += res.fuel_spent;
      }
      if (log.seq < last[c]) send(c);
    }
  }
}

/// Starts the server side, connects the clients and runs the warm pass,
/// whose results land in `warm`.
std::unique_ptr<Fixture> make_fixture(std::int32_t graph_n, Report& r,
                                      ClientLog& warm) {
  auto f = std::make_unique<Fixture>();
  f->vm = std::make_unique<vm::VirtualMachine>();
  f->probes = build_probes(*f->vm);  // first, so class ids match (Probes)
  f->tiny = scimark_calls(*f->vm, ScimarkSizes::test_model());
  service::ServiceOptions so;
  so.workers = kWorkers;
  f->svc = std::make_unique<service::ExecutionService>(
      *f->vm, vm::profiles::by_name("clr11"), so);
  service::TenantConfig open;
  open.name = kTenants[0];
  f->svc->add_tenant(open);
  service::TenantConfig metered;
  metered.name = kTenants[1];
  metered.fuel_per_job = 1ull << 40;
  metered.memory_budget_bytes = 1ull << 34;
  metered.deadline_ms = 3600 * 1000;
  f->svc->add_tenant(metered);
  net::ServerOptions nopt;
  nopt.open_tenants = true;
  f->server = std::make_unique<net::VmServer>(*f->vm, *f->svc, nopt);
  f->server->start();
  const Expect x{&f->probes, &f->tiny, graph_n};
  for (int c = 0; c < kClients; ++c) {
    f->clients[c].connect("127.0.0.1", f->server->port());
    f->clients[c].hello(kTenants[c], "");
    // Warm pass: every job shape once per tenant, so compilation and the
    // verify latches are behind us before the window opens.
    for (int k = 0; k < kKernels + 2; ++k) {
      const Job j = k == 0   ? Job{kNull, 42}
                    : k == 1 ? Job{kGraph, 7}
                             : Job{kTiny, k - 2};
      auto [method, args] = job_call(j, x);
      const net::WireResult res = f->clients[c].call(method, args);
      r.attempt(res.outcome == 0);
      if (res.outcome == 0) check(j, res, x, warm);
    }
  }
  return f;
}

class ServePhase final : public Phase {
 public:
  explicit ServePhase(const Options& o)
      : o_(o),
        mix_(o.kernel_mix ? kKernelMix : kNullMix),
        graph_n_(o.tiny ? 100 : 1000) {
    // One seeded stream; each tenant keeps the jobs assigned to it.
    for (int t = 0; t < kClients; ++t) {
      Rng rng(o.seed);
      jobs_[t] = make_jobs(mix_, rng, 200, t);
    }
  }

  const char* name() const override { return "serve"; }

  void set_up(Report& r) override {
    f_.reset();
    f_ = make_fixture(graph_n_, r, warm_);
  }

  /// One burst of jobs: both clients together send the nominal rate times
  /// `seconds`, then drain.
  void run(double seconds, bool traced, Report&) override {
    const Expect x{&f_->probes, &f_->tiny, graph_n_};
    const auto sends = static_cast<std::size_t>(std::max(
        static_cast<double>(kDepth),
        mix_.nominal_jobs_per_s * seconds / kClients));
    std::uint64_t before = 0;
    for (const ClientLog& l : logs_) before += l.completed + l.failed;
    const std::int64_t start_ns = now_ns();
    drive(f_->clients, jobs_, x, sends, logs_);
    const std::int64_t end_ns = now_ns();
    std::int64_t steady_ns = end_ns;
    std::uint64_t after = 0;
    for (const ClientLog& l : logs_) {
      steady_ns = std::min(steady_ns, l.last_send_ns);
      after += l.completed + l.failed;
    }
    bursts_.push_back({static_cast<double>(start_ns) * 1e-9,
                       static_cast<double>(steady_ns) * 1e-9});
    burst_s_[traced] += static_cast<double>(end_ns - start_ns) * 1e-9;
    burst_jobs_[traced] += static_cast<double>(after - before);
  }

  void finish(Report& r) override;

 private:
  const Options o_;
  const Mix mix_;
  const std::int32_t graph_n_;
  std::vector<Job> jobs_[kClients];
  ClientLog warm_;
  std::unique_ptr<Fixture> f_;
  ClientLog logs_[kClients];
  std::vector<Burst> bursts_;
  double burst_s_[2] = {0, 0};     // [traced] wall time of the bursts
  double burst_jobs_[2] = {0, 0};  // [traced] jobs finished in them
};

void ServePhase::finish(Report& r) {
  // Merge, then judge the graph results on the benchmark's own VM.
  ClientLog all;
  for (const std::string& w : warm_.wrong) r.wrong("warm pass: " + w);
  for (ClientLog& l : logs_) {
    all.latency_ms.insert(all.latency_ms.end(), l.latency_ms.begin(),
                          l.latency_ms.end());
    all.net_us.insert(all.net_us.end(), l.net_us.begin(), l.net_us.end());
    all.queue_us.insert(all.queue_us.end(), l.queue_us.begin(),
                        l.queue_us.end());
    for (int k = 0; k < kKinds; ++k) {
      all.run_us[k].insert(all.run_us[k].end(), l.run_us[k].begin(),
                           l.run_us[k].end());
    }
    all.kernel_run_s += l.kernel_run_s;
    all.completed += l.completed;
    all.failed += l.failed;
    for (const std::string& w : l.wrong) r.wrong(w);
  }
  r.attempts(all.completed + all.failed, all.failed);

  vm::VirtualMachine bvm;
  build_probes(bvm);
  vm::VMContext& bctx = bvm.main_context();
  std::vector<char> sample_blob;
  std::int32_t sample_salt = 0;
  std::size_t graphs_walked = 0;
  const auto walk = [&](std::int32_t salt, const std::vector<char>& blob) {
    const vm::ObjRef root =
        vm::deserialize_graph(bvm, bctx, blob.data(), blob.size());
    vm::Pinned pin(bvm, root);
    const std::string err = check_graph(root, graph_n_, salt);
    if (!err.empty()) r.wrong(err);
    ++graphs_walked;
  };
  for (const ClientLog* l : {&warm_, &logs_[0], &logs_[1]}) {
    for (const auto& [salt, blob] : l->graph_ref) {
      walk(salt, blob);
      sample_blob = blob;
      sample_salt = salt;
    }
    for (const auto& [salt, blob] : l->graph_odd) walk(salt, blob);
  }
  r.info("latency_samples", static_cast<double>(all.latency_ms.size()));
  r.info("graph_blobs_walked", static_cast<double>(graphs_walked));

  // The fast part of the window (see best_min in common.hpp): the 95th
  // percentile slice, which unlike the single best slice does not hang on
  // one lucky 0.1 s. A slice still holds thousands of jobs, so its p99 has
  // more than ten beyond it.
  std::vector<double> jobs_per_s, p50, p99;
  for (const auto& lat : by_slice(all.latency_ms, bursts_, kSliceSeconds)) {
    if (lat.empty()) continue;
    jobs_per_s.push_back(static_cast<double>(lat.size()) / kSliceSeconds);
    p50.push_back(percentile(lat, 50));
    p99.push_back(percentile(lat, 99));
  }
  r.info("slices", static_cast<double>(p50.size()));
  const double wall_s = burst_s_[0] + burst_s_[1];
  r.info("window_jobs_per_s", static_cast<double>(all.completed) / wall_s);
  if (!o_.trace) {
    r.metric("jobs_per_s", percentile(jobs_per_s, 95), "jobs/s");
    r.metric("latency_p50_ms", percentile(p50, 5), "ms");
    return;
  }

  r.metric("latency_p99_ms", percentile(p99, 5), "ms");
  r.metric("net.overhead_us.p50", percentile(all.net_us, 50), "us");
  r.metric("net.overhead_us.p99", percentile(all.net_us, 99), "us");
  r.metric("service.queue_us.p50", percentile(all.queue_us, 50), "us");
  r.metric("service.queue_us.p99", percentile(all.queue_us, 99), "us");
  for (int k = 0; k < kKinds; ++k) {
    r.metric(std::string("service.run_us.") + kKindName[k] + ".p50",
             percentile(all.run_us[k], 50), "us");
  }
  r.metric("service.kernel_busy_pct",
           all.kernel_run_s / (kWorkers * wall_s) * 100.0, "%");
  r.metric("service.fuel_spent.metered", static_cast<double>(logs_[1].fuel),
           "count");
  r.metric("trace.overhead_pct.serve",
           (burst_jobs_[0] / burst_s_[0]) / (burst_jobs_[1] / burst_s_[1]) *
                   100.0 -
               100.0,
           "%");

  // The null-job ladder: the fixed per-job cost one layer at a time.
  trace::set_enabled(true);
  const int reps = o_.tiny ? 50 : 2000;
  const Slot null_arg = Slot::from_i32(7);
  {
    auto engine = vm::make_engine(bvm, vm::profiles::by_name("clr11"));
    const std::int32_t null_fn = bvm.module().find_method("pb.null");
    std::vector<double> us;
    for (int b = 0; b < reps / 10 + 1; ++b) {
      Span span("optimizing.invoke", "pb.null x100");
      for (int i = 0; i < 100; ++i) {
        if (engine->invoke(bctx, null_fn, {&null_arg, 1}).i32 != 7) {
          r.wrong("pb.null via Engine::invoke");
        }
      }
      us.push_back(static_cast<double>(span.end()) * 1e-3 / 100);
    }
    r.metric("optimizing.null_invoke_us", median(us), "us");
  }
  {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
      Span span("service.submit_wait", "pb.null");
      const service::JobResult res =
          f_->svc->submit(kTenants[0], f_->probes.null_fn, {null_arg}).wait();
      us.push_back(static_cast<double>(span.end()) * 1e-3);
      r.attempt(res.outcome == service::JobOutcome::Completed);
      if (res.value.i32 != 7) r.wrong("pb.null via submit/wait");
    }
    r.metric("service.null_submit_wait_us", median(us), "us");
  }
  const std::vector<net::WireValue> wire_arg = {net::WireValue::from_i32(7)};
  {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
      Span span("net.call", "pb.null");
      const net::WireResult res =
          f_->clients[0].call(f_->probes.null_fn, wire_arg);
      us.push_back(static_cast<double>(span.end()) * 1e-3);
      r.attempt(res.outcome == 0);
      if (res.value.as_i32() != 7) r.wrong("pb.null via VmClient::call");
    }
    r.metric("net.null_rtt_d1_us", median(us), "us");
  }
  {
    std::vector<double> us;
    const int batch = 400;
    for (int b = 0; b < reps / batch + 5; ++b) {
      Span span("net.pipeline_d8", "pb.null x400");
      int sent = 0;
      for (; sent < static_cast<int>(kDepth); ++sent) {
        f_->clients[0].send_submit(f_->probes.null_fn, wire_arg);
      }
      for (int got = 0; got < batch; ++got) {
        const net::WireResult res = f_->clients[0].recv_result();
        r.attempt(res.outcome == 0);
        if (res.value.as_i32() != 7) r.wrong("pb.null pipelined");
        if (sent < batch) {
          f_->clients[0].send_submit(f_->probes.null_fn, wire_arg);
          ++sent;
        }
      }
      us.push_back(static_cast<double>(span.end()) * 1e-3 / batch);
    }
    r.metric("net.null_rtt_d8_us", median(us), "us");
  }

  // Serialization of one graph result, on the benchmark's VM.
  {
    std::vector<double> de_us, ser_us;
    vm::ObjRef root = nullptr;
    for (int i = 0; i < 20; ++i) {
      Span span("serialize.deserialize", "graph");
      root = vm::deserialize_graph(bvm, bctx, sample_blob.data(),
                                   sample_blob.size());
      de_us.push_back(static_cast<double>(span.end()) * 1e-3);
    }
    vm::Pinned pin(bvm, root);
    std::size_t bytes = 0;
    for (int i = 0; i < 20; ++i) {
      Span span("serialize.graph", "graph");
      bytes = vm::serialize_graph(bvm, root).size();
      ser_us.push_back(static_cast<double>(span.end()) * 1e-3);
    }
    const std::string err = check_graph(root, graph_n_, sample_salt);
    if (!err.empty()) r.wrong(err);
    r.metric("serialize.graph_bytes", static_cast<double>(bytes), "bytes");
    r.metric("serialize.graph_us", median(ser_us), "us");
    r.metric("serialize.deserialize_us", median(de_us), "us");
  }

  // Heap counters after the server stops, then forced pauses over the live
  // set the run left behind.
  for (net::VmClient& c : f_->clients) c.close();
  f_->server->stop();
  const vm::HeapStats hs = f_->vm->heap().stats();
  r.info("heap_segments", static_cast<double>(hs.segments));
  r.info("heap_live_bytes", static_cast<double>(hs.live_bytes));
  r.metric("heap.minor_collections", static_cast<double>(hs.minor_collections),
           "count");
  r.metric("heap.major_collections", static_cast<double>(hs.major_collections),
           "count");
  r.metric("heap.promoted_bytes", static_cast<double>(hs.promoted_bytes),
           "bytes");
  // One pause of each kind: the first one meets the run's garbage.
  for (const auto& [name, kind] :
       {std::pair{"heap.forced_minor_us", vm::GcKind::Minor},
        std::pair{"heap.forced_major_us", vm::GcKind::Major}}) {
    Span span("heap.collect", kind == vm::GcKind::Minor ? "minor" : "major");
    f_->vm->collect(kind);
    r.metric(name, static_cast<double>(span.end()) * 1e-3, "us");
  }
  trace::set_enabled(false);
}

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const Options& o) {
  return std::make_unique<ServePhase>(o);
}

}  // namespace perfbench
