/// \file getmesh.cpp
/// ALEGETMESH: choose the target mesh for the remap. Eulerian mode
/// returns the generation-time mesh; ALE mode runs weighted Jacobi
/// smoothing toward the average of edge-connected neighbours, with
/// boundary nodes restricted to slide along their wall and every move
/// clamped to a fraction of the shortest incident edge (so the swept
/// volumes stay small and the donor-cell advection stays in its stable
/// regime).
///
/// The smoothing is a per-node *gather* over a node adjacency whose rows
/// are ascending by *global* node id: the distributed driver hands in
/// part::Subdomain::smoothing_neighbours (ctx.smoothing_neighbours), the
/// serial driver uses the adjacency cached from the global mesh's faces.
/// Each pass reads only the previous pass's positions, so nodes are
/// independent, and the neighbour sum order is the global-id order on
/// every rank — the property the distributed remap's bitwise contract
/// rests on. The ghost-aware overload calls the TargetSync hook after
/// each pass (and after the clamp) to overwrite non-owned entries with
/// their owners' values, since a fringe node's local adjacency row is
/// incomplete.

#include <algorithm>
#include <cmath>

#include "ale/remap.hpp"

namespace bookleaf::ale {

namespace {

/// The smoothing adjacency: ctx.smoothing_neighbours when the driver
/// provides it, else the node -> edge-neighbour adjacency of the mesh,
/// rows ascending by node id (built lazily).
const util::Csr& node_adjacency(const hydro::Context& ctx, Workspace& w) {
    if (ctx.smoothing_neighbours != nullptr) return *ctx.smoothing_neighbours;
    const auto& mesh = *ctx.mesh;
    if (w.node_adj.n_rows() != mesh.n_nodes()) {
        std::vector<std::pair<Index, Index>> pairs;
        pairs.reserve(mesh.faces.size() * 2);
        for (const auto& f : mesh.faces) {
            pairs.emplace_back(f.a, f.b);
            pairs.emplace_back(f.b, f.a);
        }
        std::sort(pairs.begin(), pairs.end());
        w.node_adj = util::Csr::from_pairs(mesh.n_nodes(), pairs);
    }
    return w.node_adj;
}

} // namespace

void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w) {
    alegetmesh(ctx, s, opts, w, TargetSync());
}

void alegetmesh(const hydro::Context& ctx, const hydro::State& s,
                const Options& opts, Workspace& w, const TargetSync& sync) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::alegetmesh,
                                  ctx.mesh->n_nodes());
    const auto& mesh = *ctx.mesh;
    const auto nn = static_cast<std::size_t>(mesh.n_nodes());

    w.xt.assign(s.x.begin(), s.x.end());
    w.yt.assign(s.y.begin(), s.y.end());
    if (opts.mode == Mode::lagrange) return;

    if (opts.mode == Mode::eulerian) {
        // The generation-time mesh: exact on every rank without any
        // communication (subdomains carry verbatim copies of the global
        // coordinates), so the sync hook is never needed here.
        w.xt.assign(mesh.x.begin(), mesh.x.end());
        w.yt.assign(mesh.y.begin(), mesh.y.end());
        return;
    }

    // --- ALE: Jacobi smoothing toward the neighbour average -----------------
    const auto& adj = node_adjacency(ctx, w);
    for (int pass = 0; pass < opts.smoothing_passes; ++pass) {
        w.next_x.assign(w.xt.begin(), w.xt.end());
        w.next_y.assign(w.yt.begin(), w.yt.end());
        for (std::size_t n = 0; n < nn; ++n) {
            const auto row = adj.row(static_cast<Index>(n));
            if (row.empty()) continue;
            const auto mask = mesh.node_bc[n];
            if (mask & mesh::bc::piston) continue;
            const bool can_x = !(mask & mesh::bc::fix_u);
            const bool can_y = !(mask & mesh::bc::fix_v);
            Real ax = 0.0, ay = 0.0;
            for (const Index nb : row) {
                ax += w.xt[static_cast<std::size_t>(nb)];
                ay += w.yt[static_cast<std::size_t>(nb)];
            }
            const auto deg = static_cast<Real>(row.size());
            const Real mx = ax / deg;
            const Real my = ay / deg;
            if (can_x)
                w.next_x[n] = (Real(1) - opts.smoothing_weight) * w.xt[n] +
                              opts.smoothing_weight * mx;
            if (can_y)
                w.next_y[n] = (Real(1) - opts.smoothing_weight) * w.yt[n] +
                              opts.smoothing_weight * my;
        }
        w.xt.swap(w.next_x);
        w.yt.swap(w.next_y);
        if (sync) sync(w.xt, w.yt);
    }

    // --- clamp the total displacement --------------------------------------
    // Shortest incident edge per node; hypot is sign-symmetric, so the
    // per-node gather sees the same edge lengths the owning rank does.
    for (std::size_t n = 0; n < nn; ++n) {
        const auto row = adj.row(static_cast<Index>(n));
        Real min_edge = std::numeric_limits<Real>::max();
        for (const Index nb : row) {
            const auto bi = static_cast<std::size_t>(nb);
            min_edge = std::min(min_edge,
                                std::hypot(s.x[n] - s.x[bi], s.y[n] - s.y[bi]));
        }
        const Real dx = w.xt[n] - s.x[n];
        const Real dy = w.yt[n] - s.y[n];
        const Real d = std::hypot(dx, dy);
        const Real dmax = opts.max_move_frac * min_edge;
        if (d > dmax && d > tiny) {
            const Real f = dmax / d;
            w.xt[n] = s.x[n] + f * dx;
            w.yt[n] = s.y[n] + f * dy;
        }
    }
    if (sync) sync(w.xt, w.yt);
}

} // namespace bookleaf::ale
