// The CLI-Grande micro-benchmark programs (paper Tables 1-3, Graphs 1-8 and
// 12), authored as CIL. Each builder registers (once) and returns a method
// id; the method takes an i32 iteration count and returns a value that
// depends on every iteration, so no tier can elide the measured work.
//
// Loop bodies follow the JGF sources: e.g. the arithmetic benchmarks chain
// four variables cyclically (Add), or repeatedly divide by a constant (Div —
// the exact loop of the paper's Table 5 disassembly study).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/execution.hpp"

namespace hpcnet::cil {

// --- Arith (Graphs 1-3); ops/iteration = 4 -------------------------------
std::int32_t build_arith_add_i32(vm::VirtualMachine& v);
std::int32_t build_arith_mul_i32(vm::VirtualMachine& v);
std::int32_t build_arith_div_i32(vm::VirtualMachine& v);
std::int32_t build_arith_add_i64(vm::VirtualMachine& v);
std::int32_t build_arith_mul_i64(vm::VirtualMachine& v);
std::int32_t build_arith_div_i64(vm::VirtualMachine& v);
std::int32_t build_arith_add_f32(vm::VirtualMachine& v);
std::int32_t build_arith_mul_f32(vm::VirtualMachine& v);
std::int32_t build_arith_div_f32(vm::VirtualMachine& v);
std::int32_t build_arith_add_f64(vm::VirtualMachine& v);
std::int32_t build_arith_mul_f64(vm::VirtualMachine& v);
std::int32_t build_arith_div_f64(vm::VirtualMachine& v);

// --- Loop (Graph 4); ops/iteration = 1 ------------------------------------
std::int32_t build_loop_for(vm::VirtualMachine& v);
std::int32_t build_loop_reverse_for(vm::VirtualMachine& v);
std::int32_t build_loop_while(vm::VirtualMachine& v);

// --- Exception (Graph 5); ops/iteration = 1 -------------------------------
std::int32_t build_exception_throw(vm::VirtualMachine& v);   // rethrow one object
std::int32_t build_exception_new(vm::VirtualMachine& v);     // new object each time
std::int32_t build_exception_method(vm::VirtualMachine& v);  // thrown in callee

// --- Math (Graphs 6-8); ops/iteration = 1; id = Intr enum value -----------
std::int32_t build_math_call(vm::VirtualMachine& v, std::int32_t intrinsic_id);

// --- Assign (Table 1); ops/iteration = 4 -----------------------------------
std::int32_t build_assign_local(vm::VirtualMachine& v);
std::int32_t build_assign_instance(vm::VirtualMachine& v);
std::int32_t build_assign_static(vm::VirtualMachine& v);
std::int32_t build_assign_array(vm::VirtualMachine& v);

// --- Cast (Table 1); ops/iteration = 2 (round trip) ------------------------
std::int32_t build_cast_i32_i64(vm::VirtualMachine& v);
std::int32_t build_cast_i32_f32(vm::VirtualMachine& v);
std::int32_t build_cast_i32_f64(vm::VirtualMachine& v);
std::int32_t build_cast_f32_f64(vm::VirtualMachine& v);
std::int32_t build_cast_i64_f64(vm::VirtualMachine& v);

// --- Create (Table 1); ops/iteration = 1 -----------------------------------
std::int32_t build_create_object(vm::VirtualMachine& v);        // 2-field class
std::int32_t build_create_array(vm::VirtualMachine& v, std::int32_t length);

// --- Create, multithreaded (allocation scaling) ----------------------------
/// (i32 nthreads, i32 iters) -> i32. Starts nthreads managed threads, each
/// performing `iters` creations of `kind` ("object", "array", "matrix",
/// "box") through its own TLAB; returns the number of workers that finished
/// (must equal nthreads). Total allocations per call = nthreads * iters.
std::int32_t build_create_mt(vm::VirtualMachine& v, const std::string& kind);

// --- Method (Table 1); ops/iteration = 1 -----------------------------------
std::int32_t build_method_static(vm::VirtualMachine& v);
std::int32_t build_method_static_args(vm::VirtualMachine& v);
std::int32_t build_method_instance(vm::VirtualMachine& v);     // this-pointer arg
std::int32_t build_method_synchronized(vm::VirtualMachine& v); // monitor wrap
std::int32_t build_method_intrinsic(vm::VirtualMachine& v);

// --- Serial (Table 1); ops/iteration = list length -------------------------
/// Builds+serializes+deserializes a linked list of `size` nodes per call;
/// method signature (i32 size) -> i32 (node count read back).
std::int32_t build_serial_roundtrip(vm::VirtualMachine& v);

// --- Matrix (Table 3, Graph 12); ops/iteration = n*n copies ----------------
/// (i32 reps, i32 n) -> f64/ref checksum; copies B into A element-wise.
std::int32_t build_matrix_multidim_f64(vm::VirtualMachine& v);
std::int32_t build_matrix_jagged_f64(vm::VirtualMachine& v);
std::int32_t build_matrix_multidim_ref(vm::VirtualMachine& v);
std::int32_t build_matrix_jagged_ref(vm::VirtualMachine& v);

// --- Boxing (Table 3); ops/iteration = 2 (box + unbox) ---------------------
std::int32_t build_boxing_i32(vm::VirtualMachine& v);
std::int32_t build_boxing_f64(vm::VirtualMachine& v);

// --- Lock (Table 3); ops/iteration = 1 (enter+exit pair) -------------------
std::int32_t build_lock_uncontended(vm::VirtualMachine& v);

}  // namespace hpcnet::cil
