#pragma once
/// \file stepper.hpp
/// Algorithm 1's step loop, written once for both drivers:
///   loop { if after first step: dt = GETDT(dt); LAGSTEP(dt);
///          if remap due: ALESTEP; }
/// core::Stepper owns the run clock and every policy decision of a step:
/// the getdt gate, the regrow ceiling, the t_end clamp, the health-guard
/// vote and dt-backoff retry, the remap cadence, the dt-reason precedence
/// and the telemetry step record. core::Hydro and every dist::run rank
/// plug in only what differs between them (StepHooks).

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ale/remap.hpp"
#include "ckpt/checkpoint.hpp"
#include "hydro/kernels.hpp"
#include "obs/critical_path.hpp"
#include "obs/live.hpp"
#include "obs/telemetry.hpp"

namespace bookleaf::core {

/// What a run carries from step to step — the four values a
/// ckpt::Snapshot records next to the fields.
struct Clock {
    Real t = 0.0;
    /// Unclamped controller dt, the growth reference of the next getdt: a
    /// follow-on run(t2) after run(t1) must not be growth-limited by the
    /// tiny final step the t_end clamp took.
    Real dt_prev = 0.0;
    /// Health-guard re-growth ceiling on the controller dt (0 = inactive):
    /// armed by a dt-backoff retry at `accepted dt * guard.regrow_cap`,
    /// raised by regrow_cap per step while it binds, cleared the first
    /// step the controller ducks under it. Evolves from globally agreed
    /// values only, so every rank holds the same ceiling.
    Real regrow = 0.0;
    int steps = 0;

    /// The clock a checkpoint carries.
    [[nodiscard]] static Clock of(const ckpt::Snapshot& snap) {
        return {snap.t, snap.dt, snap.regrow, static_cast<int>(snap.steps)};
    }
};

/// Per-step record (what the reference code prints as its step banner).
struct StepInfo {
    int step = 0;       ///< steps completed, this one included
    Real t_start = 0.0; ///< time at the start of the step
    Real t = 0.0;       ///< time at the end of the step
    Real dt = 0.0;      ///< the dt the step advanced by
    Index dt_cell = no_index;
    std::string_view dt_reason;
    int retries = 0;
    bool remapped = false;
};

/// The dt handed to a Lagrangian step, unsettled so a rank can overlap
/// its dt min-reduce with the pre-step halo. The step min-reduces local()
/// across ranks when reduce() is set and passes the result to settle()
/// before it first uses dt; settle() applies the regrow ceiling and the
/// t_end clamp and returns the dt to advance by. A guard retry's dt has
/// reduce() false and settle() returns it unchanged.
class StepDt {
public:
    [[nodiscard]] Real local() const { return local_; }
    [[nodiscard]] bool reduce() const { return reduce_; }
    Real settle(Real reduced);

private:
    friend class Stepper;
    Real local_ = 0.0;
    bool reduce_ = false;
    Clock* clock_ = nullptr; ///< null on a retry
    Real t_end_ = 0.0;
    Real regrow_cap_ = 0.0;
    Real used_ = 0.0;
    bool regrow_bound_ = false, clamped_ = false;
};

/// What a driver supplies to the stepper. None may allocate per step.
class StepHooks {
public:
    /// One Lagrangian step; calls dt.settle() once, before it uses dt.
    virtual void lagstep(StepDt& dt) = 0;
    /// Min of the health vote over every rank (identity for one process).
    virtual Real reduce_min(Real value) = 0;
    /// The ALE/Eulerian remap of a remap-due step.
    virtual void remap() = 0;
    /// The step committed: the clock has advanced and its record closed.
    /// `window` is the monitoring window the step closed, or null.
    virtual void committed(const StepInfo& info,
                           const obs::WindowRecord* window) = 0;

protected:
    ~StepHooks() = default;
};

class Stepper {
public:
    /// The health vote checks cells [0, owned_cells) and the nodes the
    /// mask marks (an empty mask: every node) — a rank's owned entities,
    /// whose union over the ranks is the global set.
    Stepper(Clock clock, const ale::Options& ale, Index owned_cells,
            std::span<const std::uint8_t> owned_nodes = {});

    /// Record every step from now on (start times against `epoch`), plus
    /// critical-path spans when the options trace and monitoring windows
    /// when they fold them. Returns the task-graph run log each record
    /// drains: attach it as the stepping context's graph_log.
    par::GraphRunLog* record(const obs::Options& telemetry,
                             std::chrono::steady_clock::time_point epoch,
                             int rank, const util::Profiler* profiler);

    /// True while the clock has reached neither t_end nor max_steps.
    [[nodiscard]] bool running(Real t_end, int max_steps) const {
        return clock_.t < t_end * (Real(1.0) - eps) &&
               clock_.steps < max_steps;
    }

    /// One step of Algorithm 1, clamped to end exactly at t_end.
    StepInfo step(const hydro::Context& ctx, hydro::State& s,
                  StepHooks& hooks, Real t_end);

    [[nodiscard]] const Clock& clock() const { return clock_; }
    [[nodiscard]] const std::vector<obs::WindowRecord>& windows() const {
        return windows_;
    }
    /// Copy the recorded steps, windows, attribution and critical-path
    /// spans into a rank's report record.
    void fill(obs::RankRecord& rank) const;

private:
    Clock clock_;
    ale::Options ale_;
    Index owned_cells_;
    std::span<const std::uint8_t> owned_nodes_;
    hydro::StepBackup backup_; ///< loop-top state for the guard rollback

    bool recording_ = false;
    bool want_critical_ = false;
    std::chrono::steady_clock::time_point epoch_{};
    par::GraphRunLog graph_log_;
    obs::StepRing ring_; ///< bounded by `[telemetry] max_steps`
    std::optional<obs::WindowFolder> folder_;
    std::vector<obs::WindowRecord> windows_;
    obs::RankAttribution attrib_;
    std::vector<obs::CritSpan> critical_;
};

} // namespace bookleaf::core
