#include "vm/disasm.hpp"

#include <cstdio>

#include "vm/regcompile.hpp"

namespace hpcnet::vm {

std::string disassemble_cil(const Module& module, std::int32_t method_id) {
  const MethodDef& m = module.method(method_id);
  std::string s;
  s += "; " + m.name + " (";
  for (std::size_t i = 0; i < m.sig.params.size(); ++i) {
    if (i > 0) s += ", ";
    s += to_string(m.sig.params[i]);
  }
  s += ") -> ";
  s += to_string(m.sig.ret);
  s += "\n";
  for (std::size_t i = 0; i < m.locals.size(); ++i) {
    s += ";   .local " + std::to_string(i) + " : " + to_string(m.locals[i]) +
         "\n";
  }
  char head[32];
  for (std::size_t pc = 0; pc < m.code.size(); ++pc) {
    std::snprintf(head, sizeof head, "IL_%04zu: ", pc);
    s += head;
    s += to_string(m.code[pc]);
    s += "\n";
  }
  for (const ExHandler& h : m.handlers) {
    s += h.kind == HandlerKind::Catch ? ";  .catch " : ";  .finally ";
    s += "[";
    s += std::to_string(h.try_begin) + ", " + std::to_string(h.try_end) +
         ") -> " + std::to_string(h.handler);
    if (h.kind == HandlerKind::Catch) {
      s += " (" + module.klass(h.catch_class).name + ")";
    }
    s += "\n";
  }
  return s;
}

std::string disassemble_compiled(VirtualMachine& vm, std::int32_t method_id,
                                 const EngineProfile& profile) {
  regir::RCode rc = regir::compile(vm.module(), vm.module().method(method_id),
                                   profile.flags);
  return "; profile: " + profile.name + "\n" + regir::to_string(rc);
}

CodeQuality code_quality(VirtualMachine& vm, std::int32_t method_id,
                         const EngineProfile& profile) {
  CodeQuality q;
  const MethodDef& m = vm.module().method(method_id);
  q.cil_instructions = m.code.size();
  q.interp_dispatches = m.code.size();
  q.baseline_dispatches = m.code.size();
  regir::RCode rc = regir::compile(vm.module(), m, profile.flags);
  q.optimized_instructions = rc.code.size();
  return q;
}

}  // namespace hpcnet::vm
