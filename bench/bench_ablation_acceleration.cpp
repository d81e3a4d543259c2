/// \file bench_ablation_acceleration.cpp
/// Ablation for the acceleration kernel's data dependency (§IV-B): the
/// corner-force scatter races under threading, so the reference OpenMP
/// port leaves it serial; the fix the paper alludes to ("could be fixed
/// by rewriting the kernel") is the race-free nodal gather this code
/// uses. This bench shows (a) the model-level effect on the hybrid
/// column of Table II, and (b) the real gather giving identical results
/// at 1 and 2 threads.

#include <cmath>
#include <cstdio>

#include "core/driver.hpp"
#include "perfmodel/model.hpp"
#include "setup/problems.hpp"

using namespace bookleaf;
using namespace bookleaf::perfmodel;
using util::Kernel;

int main() {
    std::printf("=== Ablation: acceleration-kernel data dependency (§IV-B) ===\n\n");

    // --- model level: what Table II's hybrid column would look like with
    // the scatter parallelised (serial fraction -> 0).
    WorkTable fixed = reference_work();
    fixed.at(Kernel::getacc).hybrid_serial = 0.0;
    for (const auto& platform : {skylake(), broadwell()}) {
        const auto& work_acc = reference_work().at(Kernel::getacc);
        const double flat =
            cpu_kernel_seconds(platform, work_acc, table2_cells, table2_steps,
                               false);
        const double hybrid_serial =
            cpu_kernel_seconds(platform, work_acc, table2_cells, table2_steps,
                               true);
        const double hybrid_colored = cpu_kernel_seconds(
            platform, fixed.at(Kernel::getacc), table2_cells, table2_steps,
            true);
        std::printf("%-40s flat %6.1fs | hybrid(serial scatter) %6.1fs | "
                    "hybrid(parallel assembly) %6.1fs\n",
                    platform.name.c_str(), flat, hybrid_serial, hybrid_colored);
    }

    // --- real kernel: the gather over the node->(cell, corner) CSR at 1
    // and 2 threads. Its result does not depend on the thread count.
    std::printf("\nreal kernel check (Noh 48x48, 40 steps):\n");
    auto run = [](int threads) {
        core::Hydro h(setup::noh(48));
        par::ThreadPool pool(threads);
        par::Exec exec;
        exec.pool = &pool;
        h.set_exec(exec);
        h.run(std::nullopt, 40);
        return std::make_pair(h.state().rho,
                              h.profiler().stats(Kernel::getacc).wall_s);
    };
    const auto [rho_1, t_1] = run(1);
    const auto [rho_2, t_2] = run(2);
    double max_diff = 0;
    for (std::size_t c = 0; c < rho_1.size(); ++c)
        max_diff = std::max(max_diff, std::abs(rho_1[c] - rho_2[c]));
    std::printf("  gather, 1 thread:  getacc %.4f s\n", t_1);
    std::printf("  gather, 2 threads: getacc %.4f s  (max |drho| %.3e, "
                "must be exactly 0)\n",
                t_2, max_diff);
    return max_diff == 0.0 ? 0 : 1;
}
