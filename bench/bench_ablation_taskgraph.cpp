/// \file bench_ablation_taskgraph.cpp
/// Schedule ablation for the task-graph executor: the same decks stepped
/// under par::Schedule::forkjoin (a full pool barrier between kernels —
/// the paper's bulk-synchronous structure) and par::Schedule::taskgraph
/// (dependency-graph execution over cell/node blocks, so independent
/// subranges from adjacent kernels overlap). Reports per-step wall time
/// per thread count on three rigs:
///   * sod (lagrange)  — the Lagrangian predictor/corrector step graph;
///   * sod (eulerian)  — adds the ALE advection graph on every step;
///   * noh (lagrange)  — the compression-dominated kernel mix.
/// Every (rig, threads) pair is verified against the bitwise-identity
/// contract: the two schedules must produce byte-equal state. `--json
/// [path]` writes a bookleaf.bench/1 document.

#include <cstdio>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "obs/json.hpp"
#include "par/exec.hpp"
#include "par/thread_pool.hpp"
#include "setup/problems.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

using namespace bookleaf;

namespace {

struct Rig {
    const char* name;
    setup::Problem (*make)();
    int steps;
};

setup::Problem sod_lagrange() { return setup::sod(192, 8); }
setup::Problem sod_eulerian() {
    auto p = setup::sod(192, 8);
    p.ale.mode = ale::Mode::eulerian;
    return p;
}
setup::Problem noh_lagrange() { return setup::noh(48); }

struct Sample {
    double wall = 0.0;
    int steps = 0;
    std::vector<Real> rho, u;
    [[nodiscard]] double per_step_ms() const {
        return steps > 0 ? 1e3 * wall / steps : 0.0;
    }
};

Sample run_once(const Rig& rig, par::ThreadPool* pool,
                par::Schedule schedule) {
    core::Hydro h(rig.make());
    par::Exec ex;
    ex.pool = pool;
    ex.schedule = schedule;
    h.set_exec(ex);
    const util::Timer timer;
    const auto summary = h.run(std::nullopt, rig.steps);
    Sample s;
    s.wall = timer.elapsed();
    s.steps = summary.steps;
    s.rho.assign(h.state().rho.begin(), h.state().rho.end());
    s.u.assign(h.state().u.begin(), h.state().u.end());
    return s;
}

} // namespace

int main(int argc, char** argv) try {
    const util::Cli cli(argc, argv, {"json"});
    const Rig rigs[] = {{"sod (lagrange)", sod_lagrange, 60},
                        {"sod (eulerian)", sod_eulerian, 40},
                        {"noh (lagrange)", noh_lagrange, 40}};
    const int thread_counts[] = {1, 2, 4, 8};

    auto doc = obs::Json::object();
    doc["schema"] = obs::Json("bookleaf.bench/1");
    doc["bench"] = obs::Json("ablation_taskgraph");
    auto rows = obs::Json::array();

    bool all_bitwise = true;
    for (const auto& rig : rigs) {
        std::printf("%s, %d steps:\n", rig.name, rig.steps);
        std::printf("  %7s %18s %18s %9s %8s\n", "threads",
                    "forkjoin ms/step", "taskgraph ms/step", "speedup",
                    "bitwise");
        for (const int threads : thread_counts) {
            par::ThreadPool pool(threads);
            par::ThreadPool* p = threads > 1 ? &pool : nullptr;
            const auto fj = run_once(rig, p, par::Schedule::forkjoin);
            const auto tg = run_once(rig, p, par::Schedule::taskgraph);
            const bool bitwise = fj.steps == tg.steps && fj.rho == tg.rho &&
                                 fj.u == tg.u;
            all_bitwise = all_bitwise && bitwise;
            const double speedup =
                tg.wall > 0.0 ? fj.wall / tg.wall : 0.0;
            std::printf("  %7d %18.3f %18.3f %8.2fx %8s\n", threads,
                        fj.per_step_ms(), tg.per_step_ms(), speedup,
                        bitwise ? "yes" : "NO");
            auto row = obs::Json::object();
            row["rig"] = obs::Json(rig.name);
            row["threads"] = obs::Json(threads);
            row["steps"] = obs::Json(tg.steps);
            row["forkjoin_ms_per_step"] = obs::Json(fj.per_step_ms());
            row["taskgraph_ms_per_step"] = obs::Json(tg.per_step_ms());
            row["speedup"] = obs::Json(speedup);
            row["bitwise"] = obs::Json(bitwise);
            rows.push_back(std::move(row));
        }
        std::printf("\n");
    }
    doc["rows"] = std::move(rows);
    doc["all_bitwise"] = obs::Json(all_bitwise);

    if (cli.has("json")) {
        const auto path = cli.get("json", "BENCH_ablation_taskgraph.json");
        obs::write_json_file(path, doc);
        std::printf("wrote %s\n", path.c_str());
    }
    std::printf("schedule ablation %s\n",
                all_bitwise ? "bitwise-identical across all configurations"
                            : "BITWISE MISMATCH");
    return all_bitwise ? 0 : 1;
} catch (const util::Error& e) {
    std::fprintf(stderr, "bench_ablation_taskgraph: error: %s\n", e.what());
    return 1;
}
