#pragma once
/// \file driver.hpp
/// The single-process BookLeaf driver (the distributed variant lives in
/// dist/). It owns the state, the kernel context, the ALE workspace and
/// the per-run profiler, and steps Algorithm 1 through core::Stepper,
/// supplying the plain hydro::lagstep, ale::alestep and the history /
/// checkpoint writes that follow each committed step.

#include <memory>
#include <optional>

#include "ale/remap.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/stepper.hpp"
#include "hydro/kernels.hpp"
#include "hydro/stepgraph.hpp"
#include "io/csv.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"
#include "par/task_graph.hpp"
#include "setup/problems.hpp"

namespace bookleaf::core {

/// Outcome of a full run.
struct RunSummary {
    int steps = 0;
    Real t_final = 0.0;
    Real wall_seconds = 0.0;
    hydro::Totals initial, final_;
};

class Hydro final : private StepHooks {
public:
    /// Takes ownership of the problem (mesh, materials, IC, options).
    explicit Hydro(setup::Problem problem);

    /// Restore from a checkpoint: the problem supplies the mesh, materials
    /// and options (it must be the deck that produced the snapshot — the
    /// mesh hash is validated), the snapshot supplies the state and the
    /// clock. Continuation is bitwise: stepping the restored driver to
    /// t_end reproduces the uninterrupted run's fields and conservation
    /// totals bit for bit. An `[io] history` file is continued in place —
    /// rows past the checkpointed step are dropped, the header is kept,
    /// and new rows append (the file ends byte-identical to an
    /// uninterrupted run's history).
    Hydro(setup::Problem problem, const ckpt::Snapshot& snapshot);

    /// Optional execution policy (threading) — set before stepping. Any
    /// previously built step graph is invalidated; the next step rebuilds
    /// it if the new policy wants one.
    void set_exec(par::Exec exec) {
        ctx_.exec = exec;
        stepgraph_.reset();
        ctx_.stepgraph = nullptr;
    }

    /// One step of Algorithm 1. Returns the step record.
    StepInfo step();

    /// Run until t_end (default: the problem's t_end) or max_steps — or,
    /// with `[checkpoint] halt_after`, until a checkpoint is written.
    RunSummary run(std::optional<Real> t_end = std::nullopt,
                   int max_steps = std::numeric_limits<int>::max());

    /// Capture the current state + clock as a Snapshot (including the
    /// unclamped dt growth reference and the health-guard re-growth
    /// ceiling).
    [[nodiscard]] ckpt::Snapshot snapshot() const {
        const auto& c = stepper_.clock();
        return ckpt::capture(problem_.mesh, state_, c.t, c.dt_prev, c.steps,
                             c.regrow);
    }
    /// Write a checkpoint of the current state to `path`.
    void save(const std::string& path) const { ckpt::write(path, snapshot()); }
    /// True once a `[checkpoint] halt_after` checkpoint has been written:
    /// run() stops there, and step()-driven loops should too.
    [[nodiscard]] bool halted() const { return halt_requested_; }

    /// Build the telemetry run report from everything recorded so far
    /// (mode "serial", one rank record). Valid whenever telemetry is
    /// active — run() need not have finished.
    [[nodiscard]] obs::RunReport telemetry_report() const;
    /// Apply the problem's `[telemetry]` sinks (report/trace/summary).
    /// run() calls this at the end of every run; safe to call again after
    /// further stepping (files are overwritten whole).
    void write_telemetry() const;

    [[nodiscard]] const hydro::State& state() const { return state_; }
    [[nodiscard]] hydro::State& state() { return state_; }
    [[nodiscard]] const mesh::Mesh& mesh() const { return problem_.mesh; }
    [[nodiscard]] const setup::Problem& problem() const { return problem_; }
    [[nodiscard]] const util::Profiler& profiler() const { return profiler_; }
    [[nodiscard]] util::Profiler& profiler() { return profiler_; }
    [[nodiscard]] Real time() const { return stepper_.clock().t; }
    [[nodiscard]] int steps() const { return stepper_.clock().steps; }
    [[nodiscard]] hydro::Totals totals() const {
        return hydro::totals(problem_.mesh, state_);
    }
    /// Monitoring windows folded so far (empty unless `[telemetry]
    /// window_steps` > 0) — the serial counterpart of the distributed
    /// driver's live window stream.
    [[nodiscard]] const std::vector<obs::WindowRecord>& windows() const {
        return stepper_.windows();
    }

private:
    // StepHooks: what the single-process driver plugs into the stepper.
    void lagstep(StepDt& dt) override;
    Real reduce_min(Real value) override { return value; }
    void remap() override;
    void committed(const StepInfo& info,
                   const obs::WindowRecord* window) override;

    void write_history_row(Real dt);
    void init_context();
    void ensure_stepgraph();
    void open_history_fresh();
    void continue_history();
    void maybe_checkpoint(Real t_before);

    setup::Problem problem_;
    hydro::State state_;
    hydro::Context ctx_;
    /// Lagrangian-step task graph (Schedule::taskgraph with a pool);
    /// built lazily on the first step after set_exec.
    std::unique_ptr<hydro::StepGraph> stepgraph_;
    ale::Workspace ale_work_;
    util::Profiler profiler_;
    /// The clock, the loop policy and the telemetry step records.
    Stepper stepper_;
    /// Time-history CSV (deck `[io] history = <path>`): one row per step
    /// of t, dt, total mass, internal and kinetic energy, plus a step-0
    /// baseline row. Null when disabled.
    std::unique_ptr<io::CsvWriter> history_;
    /// Set when a checkpoint was written and `halt_after` asks the run
    /// loop to stop there (the step itself still completed normally).
    bool halt_requested_ = false;
    /// Telemetry (problem `[telemetry]`): the stepper records each step
    /// after its physics commits — the passive contract. Inactive by
    /// default, so telemetry-off runs take none of these branches.
    obs::Options telemetry_;
    /// Live monitoring (`[telemetry] live` names a file): each window the
    /// stepper folds lands on the NDJSON stream as a "window" (plus a
    /// trivial single-rank "imbalance") event. No watchdog in the serial
    /// driver: there is no peer to observe a hang from.
    std::optional<obs::LiveStream> live_stream_;
    std::vector<util::TraceEvent> trace_;
    std::chrono::steady_clock::time_point telemetry_epoch_{};
    double run_wall_s_ = 0.0;
};

} // namespace bookleaf::core
