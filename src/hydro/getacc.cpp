/// \file getacc.cpp
/// Acceleration kernel. Assembles nodal masses and forces from corner
/// data, applies kinematic boundary conditions, advances velocities by dt,
/// and forms the time-centred velocities used by the corrector's geometry
/// and energy updates.
///
/// The corner->node assembly is the data dependency the paper highlights
/// (§IV-B): written as a scatter (cells deposit into shared nodes) it
/// races under threading, so the reference OpenMP port leaves the loop
/// unparallelised. Here it is a gather over nodes using the mesh's
/// node->(cell, corner) CSR: each node sums its incident corner
/// contributions independently — embarrassingly parallel, and bitwise
/// identical to the serial scatter at any thread count because CSR rows
/// list corners in exactly the scatter's deposition order (the test suite
/// keeps the scatter as its oracle). The gather also fuses the zeroing of
/// node_mass/nfx/nfy into the assembly loop.

#include "hydro/kernels.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

namespace {

/// Gather one node's corner masses and forces (fused zero+accumulate).
inline void gather_node(const util::Csr& nc, State& s, Index n) {
    Real m = 0.0, fx = 0.0, fy = 0.0;
    for (const Index ck : nc.row(n)) {
        const auto ki = static_cast<std::size_t>(ck);
        m += s.cnmass[ki];
        fx += s.fx[ki];
        fy += s.fy[ki];
    }
    const auto ni = static_cast<std::size_t>(n);
    s.node_mass[ni] = m;
    s.nfx[ni] = fx;
    s.nfy[ni] = fy;
}

} // namespace

void getacc_assemble(const Context& ctx, State& s,
                     std::span<const Index> nodes) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  static_cast<long long>(nodes.size()));
    const auto& nc = ctx.corner_gather();
    par::for_each(ctx.exec, static_cast<Index>(nodes.size()), [&](Index i) {
        gather_node(nc, s, nodes[static_cast<std::size_t>(i)]);
    });
}

void getacc_assemble(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    const auto& nc = ctx.corner_gather();
    for (Index n = begin; n < end; ++n) gather_node(nc, s, n);
}

void getacc_advance_velocity(const Context& ctx, State& s, Real dt,
                             Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        const Real m = s.node_mass[ni];
        Real un, vn;
        if (m > tiny) {
            un = s.u0[ni] + dt * s.nfx[ni] / m;
            vn = s.v0[ni] + dt * s.nfy[ni] / m;
        } else {
            un = s.u0[ni];
            vn = s.v0[ni];
        }
        s.u[ni] = un;
        s.v[ni] = vn;
    }
}

void getacc_centered(const Context& ctx, State& s, Index begin, Index end) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  end - begin);
    for (Index n = begin; n < end; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        s.ubar[ni] = Real(0.5) * (s.u0[ni] + s.u[ni]);
        s.vbar[ni] = Real(0.5) * (s.v0[ni] + s.v[ni]);
    }
}

namespace {

/// Velocity advance + BCs + time-centred velocities (untimed core shared
/// by getacc and getacc_advance so the full kernel charges one profiler
/// call, not two).
void advance_nodes(const Context& ctx, State& s, Real dt) {
    const auto& mesh = *ctx.mesh;
    const Index n_nodes = mesh.n_nodes();

    // Advance velocities; form time-centred velocities.
    par::for_each(ctx.exec, n_nodes, [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        const Real m = s.node_mass[ni];
        Real un, vn;
        if (m > tiny) {
            un = s.u0[ni] + dt * s.nfx[ni] / m;
            vn = s.v0[ni] + dt * s.nfy[ni] / m;
        } else {
            un = s.u0[ni];
            vn = s.v0[ni];
        }
        s.u[ni] = un;
        s.v[ni] = vn;
    });

    apply_velocity_bc(mesh, ctx.opts, s.u, s.v);

    par::for_each(ctx.exec, n_nodes, [&](Index n) {
        const auto ni = static_cast<std::size_t>(n);
        s.ubar[ni] = Real(0.5) * (s.u0[ni] + s.u[ni]);
        s.vbar[ni] = Real(0.5) * (s.v0[ni] + s.v[ni]);
    });
    apply_velocity_bc(mesh, ctx.opts, s.ubar, s.vbar);
}

} // namespace

void getacc_advance(const Context& ctx, State& s, Real dt) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  ctx.mesh->n_nodes());
    advance_nodes(ctx, s, dt);
}

void getacc(const Context& ctx, State& s, Real dt) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::getacc,
                                  ctx.mesh->n_nodes());
    // Rows come from ctx.corner_gather(): the mesh CSR in serial runs, the
    // subdomain's globally-ordered permutation in distributed runs (same
    // sums, serial deposition order — bitwise identical to the serial run).
    const auto& nc = ctx.corner_gather();
    par::for_each(ctx.exec, ctx.mesh->n_nodes(),
                  [&](Index n) { gather_node(nc, s, n); });
    advance_nodes(ctx, s, dt);
}

} // namespace bookleaf::hydro
