// Property-style sweeps across the whole system: run invariants for every
// problem, mesh-numbering invariance of the kernels, grid convergence,
// ALE-mode operation, distributed rank sweeps, failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <ostream>

#include "analytic/norms.hpp"
#include "analytic/riemann.hpp"
#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "setup/deck.hpp"
#include "setup/problems.hpp"
#include "util/random.hpp"

namespace bc = bookleaf::core;
namespace bs = bookleaf::setup;
namespace bh = bookleaf::hydro;
namespace bm = bookleaf::mesh;
namespace ba = bookleaf::analytic;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

// ---------------------------------------------------------------------------
// Run invariants for every shipped problem (parameterized sweep).
// ---------------------------------------------------------------------------

struct ProblemCase {
    const char* name;
    int resolution;
    Real t_end;       ///< shortened for test speed
    bool conserves_energy; ///< false when a piston does work on the gas
};

/// gtest prints a parameter without a printer as its raw bytes, so the
/// test names would carry the address of the name literal. Print the
/// problem name instead, which keeps the names stable across builds.
void PrintTo(const ProblemCase& c, std::ostream* os) { *os << c.name; }

class ProblemInvariants : public ::testing::TestWithParam<ProblemCase> {};

TEST_P(ProblemInvariants, StateStaysPhysicalAndConservative) {
    const auto& param = GetParam();
    auto problem = bs::by_name(param.name, param.resolution);
    problem.t_end = param.t_end;
    bc::Hydro h(std::move(problem));
    const auto summary = h.run();

    EXPECT_GT(summary.steps, 0);
    EXPECT_NEAR(summary.t_final, param.t_end, 1e-12);

    // Physicality: positive density and volume everywhere; finite state.
    for (Index c = 0; c < h.state().n_cells(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        EXPECT_GT(h.state().rho[ci], 0.0) << param.name << " cell " << c;
        EXPECT_GT(h.state().volume[ci], 0.0);
        EXPECT_TRUE(std::isfinite(h.state().ein[ci]));
        EXPECT_TRUE(std::isfinite(h.state().pre[ci]));
    }
    for (Index n = 0; n < h.state().n_nodes(); ++n) {
        EXPECT_TRUE(std::isfinite(h.state().u[static_cast<std::size_t>(n)]));
        EXPECT_TRUE(std::isfinite(h.state().v[static_cast<std::size_t>(n)]));
    }

    // Mass is always conserved (Lagrangian masses are constant).
    EXPECT_NEAR(summary.final_.mass, summary.initial.mass,
                1e-12 * summary.initial.mass);
    if (param.conserves_energy) {
        EXPECT_NEAR(summary.final_.total_energy(),
                    summary.initial.total_energy(),
                    1e-9 * std::abs(summary.initial.total_energy()));
    } else {
        // The piston does positive work on the gas.
        EXPECT_GT(summary.final_.total_energy(),
                  summary.initial.total_energy());
    }

    // Kinematic BCs held to the end.
    for (Index n = 0; n < h.mesh().n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        const auto mask = h.mesh().node_bc[ni];
        if (mask & bm::bc::piston) {
            EXPECT_DOUBLE_EQ(h.state().u[ni], h.problem().hydro.piston_u);
        } else {
            if (mask & bm::bc::fix_u) EXPECT_DOUBLE_EQ(h.state().u[ni], 0.0);
            if (mask & bm::bc::fix_v) EXPECT_DOUBLE_EQ(h.state().v[ni], 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProblems, ProblemInvariants,
    ::testing::Values(ProblemCase{"sod", 64, 0.1, true},
                      ProblemCase{"noh", 24, 0.15, true},
                      ProblemCase{"sedov", 20, 0.05, true},
                      ProblemCase{"saltzmann", 40, 0.2, false}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Mesh-numbering invariance: the kernels must not depend on cell/node
// ordering (the mesh is genuinely unstructured).
// ---------------------------------------------------------------------------

class NumberingInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumberingInvariance, LagrangianStepIsOrderIndependent) {
    // Build the same physical problem on the original and on a randomly
    // renumbered mesh; after N steps the states must agree cell-by-cell
    // (matched through the permutation) to round-off-accumulation level.
    bu::SplitMix64 rng(GetParam());
    auto problem = bs::sod(24, 3);

    // Renumber.
    bm::Mesh permuted = bm::permute(problem.mesh, rng);
    // Locate each permuted cell's original id via centroid matching.
    auto centroid_key = [](const bm::Mesh& m, Index c) {
        Real cx = 0, cy = 0;
        for (int k = 0; k < 4; ++k) {
            const auto n = static_cast<std::size_t>(m.cn(c, k));
            cx += m.x[n] / 4;
            cy += m.y[n] / 4;
        }
        return std::make_pair(std::lround(cx * 1e6), std::lround(cy * 1e6));
    };
    std::map<std::pair<long, long>, Index> original_by_centroid;
    for (Index c = 0; c < problem.mesh.n_cells(); ++c)
        original_by_centroid[centroid_key(problem.mesh, c)] = c;

    bs::Problem problem_perm;
    problem_perm.name = "sod-permuted";
    problem_perm.mesh = permuted;
    problem_perm.materials = problem.materials;
    problem_perm.hydro = problem.hydro;
    problem_perm.t_end = problem.t_end;
    problem_perm.rho.resize(static_cast<std::size_t>(permuted.n_cells()));
    problem_perm.ein.resize(problem_perm.rho.size());
    problem_perm.u.assign(static_cast<std::size_t>(permuted.n_nodes()), 0.0);
    problem_perm.v = problem_perm.u;
    // Regions were permuted with the mesh; rebuild the IC from them.
    for (Index c = 0; c < permuted.n_cells(); ++c) {
        const bool left = permuted.cell_region[static_cast<std::size_t>(c)] == 0;
        problem_perm.rho[static_cast<std::size_t>(c)] = left ? 1.0 : 0.125;
        problem_perm.ein[static_cast<std::size_t>(c)] = left ? 2.5 : 2.0;
    }

    bc::Hydro reference(std::move(problem));
    bc::Hydro renumbered(std::move(problem_perm));
    reference.run(0.03);
    renumbered.run(0.03);

    for (Index c = 0; c < renumbered.mesh().n_cells(); ++c) {
        const Index orig =
            original_by_centroid.at(centroid_key(renumbered.mesh(), c));
        EXPECT_NEAR(renumbered.state().rho[static_cast<std::size_t>(c)],
                    reference.state().rho[static_cast<std::size_t>(orig)],
                    1e-9)
            << "cell " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumberingInvariance,
                         ::testing::Values(7, 21, 1234));

// ---------------------------------------------------------------------------
// Grid convergence on Sod.
// ---------------------------------------------------------------------------

TEST(Convergence, SodL1ErrorDecreasesWithResolution) {
    const ba::Riemann exact({1.0, 0.0, 1.0}, {0.125, 0.0, 0.1}, 1.4);
    auto l1_at = [&](Index nx) {
        bc::Hydro h(bs::sod(nx, 2));
        h.run();
        return ba::cell_error_norms(
                   h.mesh(), h.state().x, h.state().y, h.state().volume,
                   h.state().rho,
                   [&](Real cx, Real) {
                       return exact.sample((cx - 0.5) / 0.2).rho;
                   })
            .l1;
    };
    const Real coarse = l1_at(50);
    const Real medium = l1_at(100);
    const Real fine = l1_at(200);
    EXPECT_LT(medium, coarse);
    EXPECT_LT(fine, medium);
    // At least ~first-order convergence across the two doublings.
    EXPECT_LT(fine, 0.6 * coarse);
}

// ---------------------------------------------------------------------------
// ALE mode (smoothed target) end to end.
// ---------------------------------------------------------------------------

TEST(AleMode, SmoothedRemapKeepsSaltzmannValidAndAccurate) {
    auto problem = bs::saltzmann(60, 6);
    problem.t_end = 0.35;
    problem.ale.mode = bookleaf::ale::Mode::ale;
    problem.ale.frequency = 5;
    bc::Hydro h(std::move(problem));
    const auto summary = h.run();
    EXPECT_NEAR(summary.t_final, 0.35, 1e-12);
    for (const Real v : h.state().volume) EXPECT_GT(v, 0.0);
    // Shock must still be in the right place: outermost rho > 2 near
    // x = 4/3 * t = 0.467.
    Real shock_x = 0;
    for (Index c = 0; c < h.mesh().n_cells(); ++c) {
        Real cx = 0;
        for (int k = 0; k < 4; ++k)
            cx += h.state().x[static_cast<std::size_t>(h.mesh().cn(c, k))] / 4;
        if (h.state().rho[static_cast<std::size_t>(c)] > 2.0)
            shock_x = std::max(shock_x, cx);
    }
    EXPECT_NEAR(shock_x, 4.0 / 3.0 * 0.35, 0.07);
    // Mass conserved through the remaps.
    EXPECT_NEAR(summary.final_.mass, summary.initial.mass,
                1e-10 * summary.initial.mass);
}

TEST(AleMode, PeriodicRemapFrequencyIsHonoured) {
    auto problem = bs::sod(32, 2);
    problem.ale.mode = bookleaf::ale::Mode::ale;
    problem.ale.frequency = 3;
    bc::Hydro h(std::move(problem));
    int remaps = 0;
    for (int i = 0; i < 9; ++i)
        if (h.step().remapped) ++remaps;
    EXPECT_EQ(remaps, 3);
}

// ---------------------------------------------------------------------------
// Distributed rank sweep on a second problem (Noh) with both partitioners.
// ---------------------------------------------------------------------------

TEST(DistributedSweep, NohInvariantAcrossRanksAndPartitioners) {
    const auto problem = bs::noh(20);
    bookleaf::dist::Options opts;
    opts.t_end = 0.05;
    opts.hydro = problem.hydro;

    opts.n_ranks = 1;
    const auto ref = bookleaf::dist::run(problem.mesh, problem.materials,
                                         problem.rho, problem.ein, problem.u,
                                         problem.v, opts);
    for (const int ranks : {2, 4}) {
        for (const bool multilevel : {false, true}) {
            opts.n_ranks = ranks;
            if (multilevel)
                opts.partitioner = [](const bm::Mesh& m, int n) {
                    return bookleaf::part::multilevel(m, n);
                };
            else
                opts.partitioner = nullptr;
            const auto got = bookleaf::dist::run(problem.mesh, problem.materials,
                                                 problem.rho, problem.ein,
                                                 problem.u, problem.v, opts);
            ASSERT_EQ(got.steps, ref.steps);
            Real max_err = 0;
            for (std::size_t c = 0; c < ref.rho.size(); ++c)
                max_err = std::max(max_err, std::abs(got.rho[c] - ref.rho[c]));
            EXPECT_LT(max_err, 1e-9)
                << ranks << " ranks, multilevel=" << multilevel;
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection.
// ---------------------------------------------------------------------------

TEST(FailureInjection, TimestepCollapseIsReported) {
    auto problem = bs::noh(16);
    problem.hydro.dt_min = 1.0; // impossible
    problem.hydro.dt_max = 0.5;
    bc::Hydro h(std::move(problem));
    h.step(); // first step uses dt_initial
    EXPECT_THROW(h.step(), bu::Error);
}

TEST(FailureInjection, TangledMeshAbortsTheRun) {
    // A wildly too-large fixed timestep tangles the Noh mesh; the driver
    // must fail loudly rather than continue on negative volumes.
    auto problem = bs::noh(16);
    problem.hydro.dt_initial = 0.5;   // ~1000x the stable dt
    problem.hydro.dt_max = 0.5;
    bc::Hydro h(std::move(problem));
    EXPECT_THROW(
        {
            for (int i = 0; i < 50; ++i) h.step();
        },
        bu::Error);
}

TEST(FailureInjection, MissingDeckFileThrows) {
    EXPECT_THROW(bs::Deck::parse_file("/nonexistent/deck.in"), bu::Error);
}

// ---------------------------------------------------------------------------
// Deck files shipped in data/ actually parse and build.
// ---------------------------------------------------------------------------

TEST(DataDecks, AllShippedDecksBuildProblems) {
    // Locate data/ whether the test runs from the repository root or from
    // somewhere inside the build tree.
    std::string prefix;
    for (const auto* candidate : {"data/", "../data/", "../../data/"}) {
        if (std::ifstream(std::string(candidate) + "sod.in")) {
            prefix = candidate;
            break;
        }
    }
    ASSERT_FALSE(prefix.empty()) << "data/ directory not found";
    for (const auto* deck : {"sod", "noh", "sedov", "saltzmann",
                             "sod_eulerian"}) {
        const auto path = prefix + deck + ".in";
        const auto problem = bs::make_problem(bs::Deck::parse_file(path));
        EXPECT_GT(problem.mesh.n_cells(), 0) << path;
        EXPECT_GT(problem.t_end, 0.0) << path;
    }
}
