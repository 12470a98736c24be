// Table 2 (barrier, fork-join, synchronization) and the Thread/Lock rows of
// Table 3. Barrier rows report barrier crossings/sec, ForkJoin reports
// threads created+joined/sec, Sync reports contended lock acquisitions/sec.
#include <thread>

#include "cil/micro.hpp"
#include "cil/mt.hpp"
#include "cil/sm.hpp"
#include "paper_bench.hpp"

namespace {

using namespace hpcnet;
using namespace hpcnet::bench;
using vm::Slot;

}  // namespace

int main(int argc, char** argv) {
  auto& v = ctx().vm();
  const auto forkjoin = cil::build_mt_forkjoin(v);
  const auto sync = cil::build_mt_sync(v);
  const auto simple = cil::build_mt_barrier_simple(v);
  const auto tournament = cil::build_mt_barrier_tournament(v);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> counts = hw >= 4 ? std::vector<int>{2, 4}
                                          : std::vector<int>{2};

  for (int n : counts) {
    std::string suffix = ":";
    suffix += std::to_string(n) + "t";
    register_custom(
        "ForkJoin" + suffix,
        [forkjoin, n](vm::Engine& e) {
          ctx().invoke(e, forkjoin, {Slot::from_i32(n)});
        },
        n);
    constexpr std::int32_t kSyncIters = 2000;
    register_custom(
        "Sync" + suffix,
        [sync, n](vm::Engine& e) {
          ctx().invoke(e, sync, {Slot::from_i32(n), Slot::from_i32(kSyncIters)});
        },
        static_cast<double>(n) * kSyncIters);
    constexpr std::int32_t kBarrierIters = 500;
    register_custom(
        "Barrier-Simple" + suffix,
        [simple, n](vm::Engine& e) {
          ctx().invoke(e, simple,
                       {Slot::from_i32(n), Slot::from_i32(kBarrierIters)});
        },
        kBarrierIters);
    register_custom(
        "Barrier-Tournament" + suffix,
        [tournament, n](vm::Engine& e) {
          ctx().invoke(e, tournament,
                       {Slot::from_i32(n), Slot::from_i32(kBarrierIters)});
        },
        kBarrierIters);
  }

  // Future work (paper §6): shared-memory parallel red-black SOR.
  const auto psor = cil::build_sm_psor(v);
  for (int n : counts) {
    constexpr std::int32_t kPsorN = 64;
    constexpr std::int32_t kPsorIters = 8;
    register_custom(
        "ParallelSOR:" + std::to_string(n) + "t",
        [psor, n](vm::Engine& e) {
          ctx().invoke(e, psor,
                       {Slot::from_i32(kPsorN), Slot::from_i32(kPsorIters),
                        Slot::from_i32(n)});
        },
        // grid-cell updates per invoke
        static_cast<double>(kPsorN - 2) * (kPsorN - 2) * kPsorIters);
  }

  // Table 3: thread startup (1-thread fork-join) and uncontended locking.
  register_custom(
      "Thread-Startup",
      [forkjoin](vm::Engine& e) {
        ctx().invoke(e, forkjoin, {Slot::from_i32(1)});
      },
      1);
  register_sized("Lock-Uncontended", cil::build_lock_uncontended(v), 1,
                 1 << 13);

  return run_main(argc, argv,
                  "Table 2/3: barrier, fork-join, synchronization, locks");
}
