#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "cil/sm.hpp"
#include "kernels/scimark.hpp"
#include "support/timer.hpp"
#include "vm/heap.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/verifier.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace kernels = hpcnet::kernels;
using hpcnet::cil::ScimarkSizes;

namespace {

/// Shortest text that reads back as the same double; whole numbers (counts)
/// print in full.
std::string num(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::logic_error("metric reported twice: " + name);
    }
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, num(value));
}

void Report::setup(const std::string& phase, double seconds) {
  setup_s_ += seconds;
  info("setup_s." + phase, seconds);
}

void Report::wrong(const std::string& what) {
  if (wrong_.size() < 20) std::cerr << "WRONG RESULT: " << what << "\n";
  wrong_.push_back(what);
}

std::string Report::metrics_json() const {
  std::string out;
  for (const Metric& m : metrics_) {
    if (!out.empty()) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out;
}

void Report::print(const std::string& fingerprint_json) const {
  std::cout << "fingerprint " << fingerprint_json << "\n";
  for (const auto& [k, v] : info_) {
    std::cout << "info " << k << " " << v << "\n";
  }
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {" << metrics_json() << "}}" << std::endl;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double best_min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double rss_peak_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double now_s() { return static_cast<double>(hpcnet::support::now_ns()) * 1e-9; }

std::vector<std::int32_t> build_scimark(vm::VirtualMachine& v) {
  return {hpcnet::cil::build_sm_fft(v), hpcnet::cil::build_sm_sor(v),
          hpcnet::cil::build_sm_montecarlo(v), hpcnet::cil::build_sm_sparse(v),
          hpcnet::cil::build_sm_lu(v)};
}

std::vector<KernelCall> scimark_calls(vm::VirtualMachine& v,
                                      const ScimarkSizes& s) {
  const auto i4 = [](int x) { return Slot::from_i32(x); };
  const std::vector<std::int32_t> ids = build_scimark(v);
  std::vector<KernelCall> calls = {
      {"FFT", "fft", ids[0],
       {i4(s.fft_n), i4(s.fft_cycles)},
       2.0 * kernels::fft::num_flops(s.fft_n) * s.fft_cycles, 0},
      {"SOR", "sor", ids[1],
       {i4(s.sor_n), i4(s.sor_iters)},
       kernels::sor::num_flops(s.sor_n, s.sor_n, s.sor_iters), 0},
      {"MonteCarlo", "montecarlo", ids[2],
       {i4(s.mc_samples)}, kernels::montecarlo::num_flops(s.mc_samples), 0},
      {"Sparse", "sparse", ids[3],
       {i4(s.sparse_n), i4(s.sparse_nz), i4(s.sparse_iters)},
       kernels::sparse::num_flops(s.sparse_n, s.sparse_nz, s.sparse_iters), 0},
      {"LU", "lu", ids[4], {i4(s.lu_n)},
       kernels::lu::num_flops(s.lu_n), 0},
  };
  for (KernelCall& k : calls) k.want = run_native(k, s);
  return calls;
}

double run_native(const KernelCall& k, const ScimarkSizes& s) {
  const std::string key = k.key;
  if (key == "fft") {
    return kernels::fft::roundtrip_checksum(s.fft_n, s.fft_cycles);
  }
  if (key == "sor") return kernels::sor::checksum(s.sor_n, s.sor_iters);
  if (key == "montecarlo") return kernels::montecarlo::integrate(s.mc_samples);
  if (key == "sparse") {
    return kernels::sparse::checksum(s.sparse_n, s.sparse_nz, s.sparse_iters);
  }
  return kernels::lu::checksum(s.lu_n);
}

bool checksum_ok(double got, double want) {
  const double denom = std::max(std::fabs(want), 1e-30);
  return std::fabs(got - want) / denom <= 1e-9;
}

Probes build_probes(vm::VirtualMachine& v) {
  using vm::ValType;
  vm::Module& mod = v.module();
  Probes p;
  p.node_class = mod.define_class("pb.Node", {{"next", ValType::Ref},
                                              {"jump", ValType::Ref},
                                              {"payload", ValType::I32}});
  {
    vm::ILBuilder b(mod, "pb.null", {{ValType::I32}, ValType::I32});
    b.ldarg(0).ret();
    p.null_fn = b.finish();
    vm::verify(mod, p.null_fn);
  }
  {
    // nodes = new Node[n]; node i: payload = salt + 3i, jump = nodes[i/2],
    // nodes[i-1].next = node i; returns nodes[0].
    vm::ILBuilder b(mod, "pb.graph",
                    {{ValType::I32, ValType::I32}, ValType::Ref});
    const auto nodes = b.add_local(ValType::Ref);
    const auto prev = b.add_local(ValType::Ref);
    const auto cur = b.add_local(ValType::Ref);
    const auto i = b.add_local(ValType::I32);
    const std::int32_t c = p.node_class;
    b.ldarg(0).newarr(ValType::Ref).stloc(nodes);
    b.newobj(c).stloc(prev);
    b.ldloc(prev).ldarg(1).stfld(c, "payload");
    b.ldloc(prev).ldloc(prev).stfld(c, "jump");
    b.ldloc(nodes).ldc_i4(0).ldloc(prev).stelem(ValType::Ref);
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(1).stloc(i).br(cond);
    b.bind(top);
    b.newobj(c).stloc(cur);
    b.ldloc(cur).ldarg(1).ldloc(i).ldc_i4(3).mul().add().stfld(c, "payload");
    b.ldloc(cur)
        .ldloc(nodes)
        .ldloc(i)
        .ldc_i4(2)
        .div()
        .ldelem(ValType::Ref)
        .stfld(c, "jump");
    b.ldloc(prev).ldloc(cur).stfld(c, "next");
    b.ldloc(nodes).ldloc(i).ldloc(cur).stelem(ValType::Ref);
    b.ldloc(cur).stloc(prev);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldarg(0).blt(top);
    b.ldloc(nodes).ldc_i4(0).ldelem(ValType::Ref).ret();
    p.graph_fn = b.finish();
    vm::verify(mod, p.graph_fn);
  }
  return p;
}

std::string check_graph(vm::ObjRef root, std::int32_t n, std::int32_t salt) {
  // pb.Node fields: [0] next, [1] jump, [2] payload.
  const auto limit = static_cast<std::size_t>(n);
  std::vector<vm::ObjRef> nodes;
  for (vm::ObjRef p = root; p != nullptr && nodes.size() <= limit;
       p = p->fields()[0].ref) {
    nodes.push_back(p);
  }
  if (nodes.size() != limit) {
    return "graph has " + std::to_string(nodes.size()) + " nodes, want " +
           std::to_string(n);
  }
  std::int64_t sum = 0;
  std::int64_t want_sum = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sum += nodes[i]->fields()[2].i32;
    want_sum += salt + 3 * static_cast<std::int64_t>(i);
    if (nodes[i]->fields()[1].ref != nodes[i / 2]) {
      return "graph node " + std::to_string(i) + " has a wrong jump edge";
    }
  }
  if (sum != want_sum) {
    return "graph payload sum " + std::to_string(sum) + ", want " +
           std::to_string(want_sum);
  }
  return {};
}

}  // namespace perfbench
