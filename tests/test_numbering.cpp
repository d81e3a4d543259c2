// Subdomain numbering: part::decompose numbers each rank's owned cells
// breadth-first and its nodes in first-touch order, so the distributed
// driver must stay bitwise equal to the serial core::Hydro run on inputs
// whose global numbering carries no locality (a permuted mesh) or whose
// geometry is irregular (a jittered mesh), in every remap mode, and the
// local numbering must actually be local.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/driver.hpp"
#include "dist/distributed.hpp"
#include "mesh/generator.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/problems.hpp"
#include "util/random.hpp"

namespace ba = bookleaf::ale;
namespace bd = bookleaf::dist;
namespace bm = bookleaf::mesh;
namespace bp = bookleaf::part;
namespace bs = bookleaf::setup;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

/// The unit square as an nx x ny quad mesh with its numbering scrambled.
bm::Mesh permuted_square(Index nx, Index ny, std::uint64_t seed) {
    bm::RectSpec spec;
    spec.nx = nx;
    spec.ny = ny;
    bu::SplitMix64 rng(seed);
    return bm::permute(bm::generate_rect(spec), rng);
}

/// Noh on an n x n mesh whose cell and node numbering is scrambled by
/// mesh::permute; the initial condition is rebuilt from the permuted node
/// positions the way setup::noh builds it.
bs::Problem permuted_noh(Index n, std::uint64_t seed) {
    bs::Problem p = bs::noh(n);
    bu::SplitMix64 rng(seed);
    p.mesh = bm::permute(p.mesh, rng);
    p.rho.assign(static_cast<std::size_t>(p.mesh.n_cells()), 1.0);
    p.ein.assign(p.rho.size(), p.ein.front());
    p.u.assign(static_cast<std::size_t>(p.mesh.n_nodes()), 0.0);
    p.v.assign(p.u.size(), 0.0);
    for (std::size_t n_i = 0; n_i < p.u.size(); ++n_i) {
        const Real x = p.mesh.x[n_i];
        const Real y = p.mesh.y[n_i];
        const Real r = std::hypot(x, y);
        if (r > 0.0) {
            p.u[n_i] = -x / r;
            p.v[n_i] = -y / r;
        }
        if (p.mesh.node_bc[n_i] & bm::bc::fix_u) p.u[n_i] = 0.0;
        if (p.mesh.node_bc[n_i] & bm::bc::fix_v) p.v[n_i] = 0.0;
    }
    return p;
}

/// Sod on an nx x ny strip with every interior node moved by a random
/// offset of up to a fifth of the cell size in each direction.
bs::Problem jittered_sod(Index nx, Index ny, std::uint64_t seed) {
    bs::Problem p = bs::sod(nx, ny);
    bu::SplitMix64 rng(seed);
    const Real hx = Real(1) / static_cast<Real>(nx);
    const Real hy = Real(0.1) / static_cast<Real>(ny);
    for (std::size_t n = 0; n < p.mesh.x.size(); ++n) {
        if (p.mesh.node_bc[n] != bm::bc::none) continue;
        p.mesh.x[n] += Real(0.2) * hx * rng.uniform(-1, 1);
        p.mesh.y[n] += Real(0.2) * hy * rng.uniform(-1, 1);
    }
    return p;
}

bs::Problem with_mode(bs::Problem p, ba::Mode mode) {
    p.ale.mode = mode;
    p.ale.frequency = 1;
    return p;
}

const char* mode_name(ba::Mode mode) {
    switch (mode) {
    case ba::Mode::lagrange: return "lagrange";
    case ba::Mode::ale: return "ale";
    case ba::Mode::eulerian: return "eulerian";
    }
    return "?";
}

/// dist::run at every (ranks, threads) in {1..4} x {1, 2}, each held
/// bitwise to one serial core::Hydro run of the same problem.
void expect_dist_bitwise_serial(const bs::Problem& problem, Real t_end,
                                const std::string& label) {
    bookleaf::core::Hydro serial{bs::Problem(problem)};
    const auto summary = serial.run(t_end);
    ASSERT_GT(summary.steps, 5) << label;
    const auto& ref = serial.state();
    if (problem.ale.mode == ba::Mode::ale) {
        // Non-vacuous: the smoothing moved the mesh off the Lagrangian one.
        bookleaf::core::Hydro lagrange(with_mode(problem, ba::Mode::lagrange));
        (void)lagrange.run(t_end);
        EXPECT_NE(std::vector<Real>(ref.x.begin(), ref.x.end()),
                  std::vector<Real>(lagrange.state().x.begin(),
                                    lagrange.state().x.end()))
            << label;
    }

    for (const int n_ranks : {1, 2, 3, 4})
        for (const int n_threads : {1, 2}) {
            const auto where = label + " " + std::to_string(n_ranks) +
                               " ranks x " + std::to_string(n_threads) +
                               " threads";
            bd::Options opts;
            opts.n_ranks = n_ranks;
            opts.n_threads = n_threads;
            opts.t_end = t_end;
            opts.hydro = problem.hydro;
            opts.ale = problem.ale;
            const auto r = bd::run(problem.mesh, problem.materials, problem.rho,
                                   problem.ein, problem.u, problem.v, opts);
            ASSERT_EQ(r.steps, summary.steps) << where;
            ASSERT_EQ(r.rho.size(), ref.rho.size()) << where;
            std::size_t bad = 0;
            for (std::size_t c = 0; c < ref.rho.size(); ++c)
                bad += r.rho[c] != ref.rho[c] || r.ein[c] != ref.ein[c];
            for (std::size_t n = 0; n < ref.u.size(); ++n)
                bad += r.u[n] != ref.u[n] || r.v[n] != ref.v[n] ||
                       r.x[n] != ref.x[n] || r.y[n] != ref.y[n];
            EXPECT_EQ(bad, 0u) << where << ": entities differing from serial";
        }
}

/// Mean over owned cells of (max - min) of the cell's local node ids, and
/// mean over owned face-neighbour pairs of |local id - neighbour local id|,
/// when owned cells are numbered by `cell_id` and nodes by `node_id`
/// (both: global id -> local id).
struct Spread {
    double node_span = 0, neighbour_gap = 0;
};

template <class CellOf, class NodeOf>
Spread spread(const bp::Subdomain& sub, const bm::Mesh& global,
              CellOf&& cell_id, NodeOf&& node_id) {
    Spread s;
    std::size_t pairs = 0;
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
        const Index gc = sub.local_cells[static_cast<std::size_t>(lc)];
        Index lo = std::numeric_limits<Index>::max(), hi = 0;
        for (int k = 0; k < bookleaf::corners_per_cell; ++k) {
            const Index id = node_id(global.cn(gc, k));
            lo = std::min(lo, id);
            hi = std::max(hi, id);
        }
        s.node_span += static_cast<double>(hi - lo);
        for (int k = 0; k < bookleaf::corners_per_cell; ++k) {
            const Index nb = sub.local.neighbor(lc, k);
            if (nb == bookleaf::no_index || nb >= sub.n_owned_cells) continue;
            s.neighbour_gap += std::abs(static_cast<double>(
                cell_id(gc) -
                cell_id(sub.local_cells[static_cast<std::size_t>(nb)])));
            ++pairs;
        }
    }
    s.node_span /= static_cast<double>(sub.n_owned_cells);
    s.neighbour_gap /= static_cast<double>(pairs);
    return s;
}

} // namespace

TEST(DistNumbering, PermutedNohBitwiseMatchesSerialInEveryMode) {
    for (const auto mode : {ba::Mode::lagrange, ba::Mode::ale,
                            ba::Mode::eulerian})
        expect_dist_bitwise_serial(with_mode(permuted_noh(16, 7), mode), 0.03,
                                   std::string("permuted noh ") +
                                       mode_name(mode));
}

TEST(DistNumbering, JitteredSodBitwiseMatchesSerialInEveryMode) {
    for (const auto mode : {ba::Mode::lagrange, ba::Mode::ale,
                            ba::Mode::eulerian})
        expect_dist_bitwise_serial(with_mode(jittered_sod(32, 6, 11), mode),
                                   0.02,
                                   std::string("jittered sod ") +
                                       mode_name(mode));
}

TEST(DistNumbering, PermutedSubdomainsAreNumberedLocally) {
    // On a scrambled 64 x 64 mesh at 4 ranks, compare the decomposition's
    // numbering with the ascending-global-id numbering of the same owned
    // cells and local nodes. The breadth-first/first-touch numbering keeps
    // a cell's nodes and its face neighbours close in local id; the
    // global-sorted one scatters them across the whole subdomain.
    const auto mesh = permuted_square(64, 64, 3);
    const auto part = bp::rcb(mesh, 4);
    const auto subs = bp::decompose(mesh, part, 4);

    for (const auto& sub : subs) {
        std::vector<Index> cell_pos(static_cast<std::size_t>(mesh.n_cells()),
                                    bookleaf::no_index);
        std::vector<Index> node_pos(static_cast<std::size_t>(mesh.n_nodes()),
                                    bookleaf::no_index);
        for (std::size_t i = 0; i < sub.local_cells.size(); ++i)
            cell_pos[static_cast<std::size_t>(sub.local_cells[i])] =
                static_cast<Index>(i);
        for (std::size_t i = 0; i < sub.local_nodes.size(); ++i)
            node_pos[static_cast<std::size_t>(sub.local_nodes[i])] =
                static_cast<Index>(i);
        const auto local = spread(
            sub, mesh,
            [&](Index g) { return cell_pos[static_cast<std::size_t>(g)]; },
            [&](Index g) { return node_pos[static_cast<std::size_t>(g)]; });

        // The ascending-global-id numbering of the same entities.
        std::vector<Index> sorted_cells(
            sub.local_cells.begin(),
            sub.local_cells.begin() + sub.n_owned_cells);
        std::vector<Index> sorted_nodes(sub.local_nodes);
        std::sort(sorted_cells.begin(), sorted_cells.end());
        std::sort(sorted_nodes.begin(), sorted_nodes.end());
        const auto rank_of = [](const std::vector<Index>& sorted, Index g) {
            return static_cast<Index>(
                std::lower_bound(sorted.begin(), sorted.end(), g) -
                sorted.begin());
        };
        const auto global_sorted = spread(
            sub, mesh, [&](Index g) { return rank_of(sorted_cells, g); },
            [&](Index g) { return rank_of(sorted_nodes, g); });

        const auto label = "rank " + std::to_string(sub.rank);
        EXPECT_LT(local.node_span * 5, global_sorted.node_span)
            << label << ": local " << local.node_span << " vs global-sorted "
            << global_sorted.node_span;
        EXPECT_LT(local.neighbour_gap * 5, global_sorted.neighbour_gap)
            << label << ": local " << local.neighbour_gap
            << " vs global-sorted " << global_sorted.neighbour_gap;
    }
}

TEST(DistNumbering, SchedulesPairTheSameEntitiesInGlobalOrder) {
    // The wire format does not depend on the local numbering: every
    // receive list of every schedule names, item for item, the same global
    // entities as the owner's send list, in ascending global id.
    const auto mesh = permuted_square(24, 20, 5);
    const auto part = bp::rcb(mesh, 4);
    const auto subs = bp::decompose(mesh, part, 4);

    using Peer = bookleaf::typhon::ExchangeSchedule::Peer;
    using Schedule = bookleaf::typhon::ExchangeSchedule;
    const auto cell_of = [](const bp::Subdomain& s, Index item) {
        return s.local_cells[static_cast<std::size_t>(item)];
    };
    const auto corner_of = [](const bp::Subdomain& s, Index item) {
        return s.local_cells[static_cast<std::size_t>(
                   item / bookleaf::corners_per_cell)] *
                   bookleaf::corners_per_cell +
               item % bookleaf::corners_per_cell;
    };
    const auto node_of = [](const bp::Subdomain& s, Index item) {
        return s.local_nodes[static_cast<std::size_t>(item)];
    };
    const auto check = [&](Schedule bp::Subdomain::*schedule,
                           auto&& global_of, const char* name) {
        std::size_t items = 0;
        for (const auto& sub : subs)
            for (const Peer& peer : (sub.*schedule).peers) {
                if (peer.recv_items.empty()) continue;
                const auto& owner = subs[static_cast<std::size_t>(peer.rank)];
                const Peer* send = nullptr;
                for (const Peer& p : (owner.*schedule).peers)
                    if (p.rank == sub.rank && !p.send_items.empty()) send = &p;
                ASSERT_NE(send, nullptr) << name;
                ASSERT_EQ(send->send_items.size(), peer.recv_items.size())
                    << name;
                for (std::size_t i = 0; i < peer.recv_items.size(); ++i) {
                    const Index g = global_of(sub, peer.recv_items[i]);
                    EXPECT_EQ(g, global_of(owner, send->send_items[i])) << name;
                    if (i > 0) {
                        EXPECT_LT(global_of(sub, peer.recv_items[i - 1]), g)
                            << name;
                    }
                }
                items += peer.recv_items.size();
            }
        EXPECT_GT(items, 0u) << name;
    };
    check(&bp::Subdomain::cell_schedule, cell_of, "cell");
    check(&bp::Subdomain::corner_schedule, corner_of, "corner");
    check(&bp::Subdomain::node_schedule, node_of, "node");
    check(&bp::Subdomain::remap_cell_schedule, cell_of, "remap cell");
}
