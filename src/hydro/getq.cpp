/// \file getq.cpp
/// Edge-centred monotonic artificial viscosity following Caramana,
/// Shashkov & Whalen [28]. For every cell edge in compression a
/// quadratic+linear viscosity is applied as an equal-and-opposite force
/// pair on the edge's nodes; a van-Leer-style limiter built from the
/// *continuation* edges (through each endpoint, into the face-neighbour
/// cells) switches the viscosity off in smooth / uniform-strain flow.
/// The continuation edges are topology, so the kernel does not search
/// for them: the mesh's `cell_cont` table (built once per mesh by
/// mesh::build_connectivity) names each one's far node as a local corner
/// of the neighbour, and the limiter reads that node directly.
///
/// This is the kernel that needs ghost data in distributed runs (the
/// halo exchange immediately before GETQ in the paper's Algorithm 1).

#include <array>
#include <cmath>

#include "hydro/kernels.hpp"

namespace bookleaf::hydro {

namespace {

/// Velocity difference along a continuation edge (valid == false when the
/// cell has no such edge: boundary face, or a ghost-layer edge cell).
struct Continuation {
    Real du = 0.0, dv = 0.0;
    bool valid = false;
};

/// The per-cell viscosity computation. Writes only cell c's corner forces
/// and q scalar, so any disjoint cover of the cell range (full sweep or
/// the distributed driver's boundary/interior split) produces bitwise
/// identical results in any order.
inline void q_cell(const mesh::Mesh& mesh, const Options& opts, State& s,
                   Index c) {
    const Real cq = opts.cq;
    const Real cl = opts.cl;
    const auto ci = static_cast<std::size_t>(c);
    const Real rho = s.rho[ci];
    const Real cs = std::sqrt(std::max(s.csqrd[ci], Real(0.0)));
    // Accumulated in locals and stored once: stores through State's
    // fields would otherwise force reloads of the velocity arrays.
    std::array<Real, 4> qfx{}, qfy{};
    Real q_max = 0.0;

    for (int k = 0; k < corners_per_cell; ++k) {
        const int k1 = (k + 1) % corners_per_cell;
        const Index a = mesh.cn(c, k);
        const Index b = mesh.cn(c, k1);
        const auto ai = static_cast<std::size_t>(a);
        const auto bi = static_cast<std::size_t>(b);

        const Real du = s.u[bi] - s.u[ai];
        const Real dv = s.v[bi] - s.v[ai];
        const Real du2 = du * du + dv * dv;
        if (du2 < tiny) continue;

        // Compression switch: nodes approaching along the edge. Edge
        // vectors come from the gathered-geometry cache (contiguous),
        // not from indirect node loads.
        const std::size_t base = State::cidx(c, 0);
        const auto kk = static_cast<std::size_t>(k);
        const auto kk1 = static_cast<std::size_t>(k1);
        const Real ex = s.cnx[base + kk1] - s.cnx[base + kk];
        const Real ey = s.cny[base + kk1] - s.cny[base + kk];
        if (du * ex + dv * ey >= 0.0) continue;

        // Monotonicity limiter from the continuation edges. The
        // "previous" one passes through node a (end 1 of face k-1, inside
        // the neighbour across it) and is differenced from its far node
        // into a; the "next" one through node b (end 0 of face k+1) and
        // is differenced from b out to its far node.
        Continuation prev, next;
        const int fp = (k + 3) % corners_per_cell;
        if (const int m = mesh.cont(c, fp, 1); m >= 0) {
            const auto oi =
                static_cast<std::size_t>(mesh.cn(mesh.neighbor(c, fp), m));
            prev = {s.u[ai] - s.u[oi], s.v[ai] - s.v[oi], true};
        }
        if (const int m = mesh.cont(c, k1, 0); m >= 0) {
            const auto oi =
                static_cast<std::size_t>(mesh.cn(mesh.neighbor(c, k1), m));
            next = {s.u[oi] - s.u[bi], s.v[oi] - s.v[bi], true};
        }

        Real psi = 0.0;
        const bool any = prev.valid || next.valid;
        if (any) {
            const Real rp = prev.valid
                                ? (prev.du * du + prev.dv * dv) / du2
                                : (next.du * du + next.dv * dv) / du2;
            const Real rn = next.valid
                                ? (next.du * du + next.dv * dv) / du2
                                : rp;
            psi = std::min({Real(1.0), Real(0.5) * (rp + rn),
                            Real(2.0) * rp, Real(2.0) * rn});
            psi = std::max(psi, Real(0.0));
        }

        const Real dunorm = std::sqrt(du2);
        const Real q_edge =
            (Real(1.0) - psi) * rho * (cq * du2 + cl * cs * dunorm);

        const Real edge_len = std::hypot(ex, ey);
        const Real mu = q_edge * edge_len / std::max(dunorm, tiny);

        // Equal-and-opposite dissipative pair force along du.
        qfx[kk] += mu * du;
        qfy[kk] += mu * dv;
        qfx[kk1] -= mu * du;
        qfy[kk1] -= mu * dv;

        q_max = std::max(q_max, q_edge);
    }
    for (int k = 0; k < corners_per_cell; ++k) {
        s.qfx[State::cidx(c, k)] = qfx[static_cast<std::size_t>(k)];
        s.qfy[State::cidx(c, k)] = qfy[static_cast<std::size_t>(k)];
    }
    s.q[ci] = q_max;
}

} // namespace

void getq(const Context& ctx, State& s) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  ctx.mesh->n_cells());
    const auto& mesh = *ctx.mesh;
    par::for_each(ctx.exec, mesh.n_cells(),
                  [&](Index c) { q_cell(mesh, ctx.opts, s, c); });
}

void getq(const Context& ctx, State& s, std::span<const Index> cells) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  static_cast<long long>(cells.size()));
    const auto& mesh = *ctx.mesh;
    par::for_each(ctx.exec, static_cast<Index>(cells.size()), [&](Index i) {
        q_cell(mesh, ctx.opts, s, cells[static_cast<std::size_t>(i)]);
    });
}

void getq(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getq,
                                  end - begin);
    const auto& mesh = *ctx.mesh;
    for (Index c = begin; c < end; ++c) q_cell(mesh, ctx.opts, s, c);
}

} // namespace bookleaf::hydro
