// The one step loop (core::Stepper): both drivers step through it, so a
// single process and a 1-rank distributed run must record the same steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "obs/telemetry.hpp"
#include "setup/problems.hpp"

namespace bc = bookleaf::core;
namespace bd = bookleaf::dist;
namespace bo = bookleaf::obs;
namespace bs = bookleaf::setup;
using bookleaf::Real;

TEST(Stepper, SerialAndDistributedStepRecordsAgree) {
    // A deck that exercises every policy branch of the loop: an absurd
    // dt_initial forces a guard retry, whose steep backoff leaves the
    // accepted dt under the CFL limit so the controller grows it — and a
    // re-growth cap below the growth factor makes the armed ceiling bind.
    // An ALE remap follows every second step, and t_end falls mid-step so
    // the last step is clamped.
    auto problem = bs::sod(48, 2);
    problem.hydro.dt_initial = 0.5;
    problem.hydro.guard.enabled = true;
    problem.hydro.guard.backoff = 0.1;
    problem.hydro.guard.regrow_cap = 1.01;
    problem.ale.mode = bookleaf::ale::Mode::ale;
    problem.ale.frequency = 2;
    problem.telemetry.enabled = true;
    const Real t_end = 0.0503;

    bd::Options opts;
    opts.n_ranks = 1;
    opts.t_end = t_end;
    opts.hydro = problem.hydro;
    opts.ale = problem.ale;
    opts.telemetry.enabled = true;
    const auto dist = bd::run(problem.mesh, problem.materials, problem.rho,
                              problem.ein, problem.u, problem.v, opts);

    bc::Hydro serial(std::move(problem));
    serial.run(t_end);
    const auto report = serial.telemetry_report();

    ASSERT_EQ(report.ranks.size(), 1u);
    ASSERT_EQ(dist.telemetry.ranks.size(), 1u);
    const auto& a = report.ranks[0].steps;
    const auto& b = dist.telemetry.ranks[0].steps;
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string at = "step " + std::to_string(i);
        EXPECT_EQ(a[i].step, b[i].step) << at;
        EXPECT_EQ(a[i].t, b[i].t) << at;
        EXPECT_EQ(a[i].dt, b[i].dt) << at;
        EXPECT_EQ(a[i].dt_local, b[i].dt_local) << at;
        EXPECT_EQ(a[i].dt_reason, b[i].dt_reason) << at;
        EXPECT_EQ(a[i].retries, b[i].retries) << at;
        EXPECT_EQ(a[i].remapped, b[i].remapped) << at;
    }

    // The deck really took every branch.
    const auto reason = [](const char* name) {
        return bo::dt_reason_code(name);
    };
    EXPECT_GT(a.front().retries, 0);
    EXPECT_EQ(a.front().dt_reason, reason("health-retry"));
    EXPECT_TRUE(std::any_of(a.begin(), a.end(), [&](const auto& s) {
        return s.dt_reason == reason("regrow");
    }));
    EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                            [](const auto& s) { return s.remapped; }));
    EXPECT_EQ(a.back().dt_reason, reason("t_end"));
    EXPECT_EQ(a.back().t, t_end);
    // dt_local is the pre-reduce controller candidate, not the dt taken:
    // under the ceiling the two differ.
    EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const auto& s) {
        return s.dt_local != s.dt;
    }));
}
