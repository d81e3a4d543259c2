#include "core/stepper.hpp"

#include <string>

#include "util/error.hpp"
#include "util/log.hpp"

namespace bookleaf::core {

Real StepDt::settle(Real reduced) {
    if (clock_ == nullptr) return used_ = reduced;
    if (clock_->steps > 0)
        regrow_bound_ =
            hydro::apply_regrow_ceiling(reduced, clock_->regrow, regrow_cap_);
    clock_->dt_prev = reduced; // the unclamped growth reference
    used_ = hydro::clamp_to_t_end(clock_->t, reduced, t_end_);
    clamped_ = used_ != reduced;
    return used_;
}

Stepper::Stepper(Clock clock, const ale::Options& ale, Index owned_cells,
                 std::span<const std::uint8_t> owned_nodes)
    : clock_(clock), ale_(ale), owned_cells_(owned_cells),
      owned_nodes_(owned_nodes) {}

par::GraphRunLog* Stepper::record(const obs::Options& telemetry,
                                  std::chrono::steady_clock::time_point epoch,
                                  int rank, const util::Profiler* profiler) {
    recording_ = true;
    want_critical_ = telemetry.want_trace();
    epoch_ = epoch;
    graph_log_.epoch = epoch;
    ring_ = obs::StepRing(telemetry.max_steps);
    if (telemetry.live_active())
        folder_.emplace(rank, telemetry.window_steps, profiler);
    return &graph_log_;
}

StepInfo Stepper::step(const hydro::Context& ctx, hydro::State& s,
                       StepHooks& hooks, Real t_end) {
    const auto step_t0 = recording_ ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    const auto& guard = ctx.opts.guard;
    StepInfo info;
    info.t_start = clock_.t;

    // Algorithm 1: the very first step takes the clock's dt (dt_initial
    // on a fresh run) as it is.
    StepDt dt;
    dt.local_ = clock_.dt_prev;
    dt.reduce_ = clock_.steps > 0;
    info.dt_reason = "initial";
    if (dt.reduce_) {
        const auto controller = hydro::getdt(ctx, s, clock_.dt_prev);
        dt.local_ = controller.dt;
        info.dt_cell = controller.cell;
        info.dt_reason = controller.reason;
    }
    dt.clock_ = &clock_;
    dt.t_end_ = t_end;
    dt.regrow_cap_ = guard.regrow_cap;

    // Loop-top capture for the rollback: before the step's own ghost
    // refresh, so a retry replays it from the restored owned values.
    if (guard.enabled) hydro::capture_step(s, backup_);
    hooks.lagstep(dt);
    if (dt.regrow_bound_) {
        info.dt_cell = no_index;
        info.dt_reason = "regrow";
    }
    if (dt.clamped_) info.dt_reason = "t_end";

    Real dt_used = dt.used_;
    if (guard.enabled) {
        // Health vote + dt-backoff retry. Each rank checks the entities it
        // owns (their union is the global set and owned bytes are
        // bitwise-serial), so the min-reduced verdict is the one a single
        // process takes on the full state. A rejected step is rolled back
        // and retaken with a smaller dt; the accepted dt becomes the
        // growth reference and arms the re-growth ceiling.
        for (;;) {
            const bool healthy =
                hydro::step_healthy(s, owned_cells_, owned_nodes_);
            if (hooks.reduce_min(healthy ? Real(1.0) : Real(0.0)) >
                Real(0.5))
                break;
            util::require(info.retries < guard.max_retries,
                          "hydro: step " + std::to_string(clock_.steps + 1) +
                              " rejected by health guards after " +
                              std::to_string(info.retries) +
                              " dt-backoff retries");
            ++info.retries;
            const Real dt_try = dt_used * guard.backoff;
            util::require(dt_try >= ctx.opts.dt_min,
                          "hydro: health-guard backoff drove dt below dt_min "
                          "at step " + std::to_string(clock_.steps + 1));
            hydro::restore_step(ctx, s, backup_);
            StepDt retry;
            retry.local_ = dt_try;
            hooks.lagstep(retry);
            dt_used = dt_try;
        }
        if (info.retries > 0) {
            clock_.dt_prev = dt_used;
            clock_.regrow = dt_used * guard.regrow_cap;
            info.dt_cell = no_index;
            info.dt_reason = "health-retry";
        }
    }

    info.remapped = ale::remap_due(ale_, clock_.steps);
    if (info.remapped) hooks.remap();

    clock_.t += dt_used;
    ++clock_.steps;
    info.step = clock_.steps;
    info.t = clock_.t;
    info.dt = dt_used;

    const obs::WindowRecord* window = nullptr;
    if (recording_) {
        // Recorded after the step's physics committed: telemetry reads
        // state, never feeds back into it (the passive contract).
        obs::StepRecord rec;
        rec.step = clock_.steps - 1;
        rec.t = clock_.t;
        rec.dt = dt_used;
        rec.dt_local = dt.local_;
        rec.dt_reason = obs::dt_reason_code(info.dt_reason);
        rec.start_us =
            std::chrono::duration<double, std::micro>(step_t0 - epoch_)
                .count();
        rec.wall_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - step_t0)
                          .count();
        rec.retries = info.retries;
        rec.remapped = info.remapped;
        obs::attribute_step(graph_log_, rec, attrib_,
                            want_critical_ ? &critical_ : nullptr);
        ring_.push(rec);
        if (folder_) {
            if (auto w = folder_->add(rec)) {
                windows_.push_back(*w);
                window = &windows_.back();
            }
        }
    }
    hooks.committed(info, window);
    util::log_debug("step ", clock_.steps, " t=", clock_.t, " dt=", dt_used,
                    " (", info.dt_reason, ")");
    return info;
}

void Stepper::fill(obs::RankRecord& rank) const {
    rank.steps = ring_.take();
    rank.evicted = ring_.evicted();
    rank.windows = windows_;
    rank.attrib = attrib_;
    rank.critical = critical_;
}

} // namespace bookleaf::core
