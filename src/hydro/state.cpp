#include "hydro/state.hpp"

#include <algorithm>
#include <array>

#include "geom/geometry.hpp"
#include "util/error.hpp"

namespace bookleaf::hydro {

State allocate(const mesh::Mesh& mesh) { return allocate(mesh, par::Exec{}); }

State allocate(const mesh::Mesh& mesh, const par::Exec& exec) {
    State s;
    const auto nn = static_cast<std::size_t>(mesh.n_nodes());
    const auto nc = static_cast<std::size_t>(mesh.n_cells());
    const auto nk = nc * corners_per_cell;

    // Size every field without touching its pages (Field default-inits),
    // then zero-fill in static per-worker blocks: with a pool, the first
    // write to each page happens on the worker whose block it belongs to,
    // so the OS places it on that worker's NUMA node (first-touch). The
    // bytes are identical to a serial zero-fill.
    const std::array<Field*, 28> zeroed = {
        &s.u,     &s.v,     &s.node_mass, &s.nfx,   &s.nfy,
        &s.u0,    &s.v0,    &s.ubar,      &s.vbar,  // nodes
        &s.rho,   &s.ein,   &s.pre,       &s.csqrd, &s.q,
        &s.volume, &s.cell_mass, &s.char_len, &s.ein0, // cells
        &s.fx,    &s.fy,    &s.qfx,       &s.qfy,   &s.cnmass,
        &s.cnvol, &s.cnx,   &s.cny,       &s.cngx,  &s.cngy}; // corners
    for (std::size_t i = 0; i < zeroed.size(); ++i)
        zeroed[i]->resize(i < 9 ? nn : (i < 18 ? nc : nk));

    auto fill_block = [&](int tid, int parts) {
        for (Field* f : zeroed) {
            const auto [begin, end] =
                par::detail::block(static_cast<Index>(f->size()), parts, tid);
            std::fill(f->begin() + begin, f->begin() + end, Real(0.0));
        }
    };
    if (exec.threaded())
        exec.pool->run([&](int tid) { fill_block(tid, exec.width()); });
    else
        fill_block(0, 1);

    s.x.assign(mesh.x.begin(), mesh.x.end());
    s.y.assign(mesh.y.begin(), mesh.y.end());
    s.x0 = s.x;
    s.y0 = s.y;
    return s;
}

void initialise(const mesh::Mesh& mesh, const eos::MaterialTable& materials,
                State& s) {
    const Index n_cells = mesh.n_cells();
    util::require(s.n_cells() == n_cells, "initialise: state/mesh size mismatch");

    for (Index c = 0; c < n_cells; ++c) {
        const auto q = geom::gather(mesh, s.x, s.y, c);
        s.cache_geometry(c, q);
        const Real vol = geom::quad_area(q);
        util::require(vol > 0.0, "initialise: non-positive cell volume");
        s.volume[static_cast<std::size_t>(c)] = vol;
        s.char_len[static_cast<std::size_t>(c)] = geom::char_length(q);
        s.cell_mass[static_cast<std::size_t>(c)] =
            s.rho[static_cast<std::size_t>(c)] * vol;

        const auto cv = geom::corner_volumes(q);
        for (int k = 0; k < corners_per_cell; ++k) {
            s.cnvol[State::cidx(c, k)] = cv[static_cast<std::size_t>(k)];
            s.cnmass[State::cidx(c, k)] =
                s.rho[static_cast<std::size_t>(c)] * cv[static_cast<std::size_t>(k)];
        }

        const Index r = mesh.cell_region[static_cast<std::size_t>(c)];
        s.pre[static_cast<std::size_t>(c)] =
            materials.pressure(r, s.rho[static_cast<std::size_t>(c)],
                               s.ein[static_cast<std::size_t>(c)]);
        s.csqrd[static_cast<std::size_t>(c)] =
            materials.sound_speed2(r, s.rho[static_cast<std::size_t>(c)],
                                   s.ein[static_cast<std::size_t>(c)]);
    }

    // Nodal masses: gather the corner masses of incident cells.
    for (Index n = 0; n < mesh.n_nodes(); ++n) {
        Real m = 0.0;
        for (const Index c : mesh.node_cells.row(n))
            for (int k = 0; k < corners_per_cell; ++k)
                if (mesh.cn(c, k) == n) m += s.cnmass[State::cidx(c, k)];
        s.node_mass[static_cast<std::size_t>(n)] = m;
    }

    s.snapshot_step_start();
}

Totals totals(const mesh::Mesh& mesh, const State& s) {
    Totals t;
    for (Index c = 0; c < s.n_cells(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        t.mass += s.cell_mass[ci];
        t.internal_energy += s.cell_mass[ci] * s.ein[ci];
    }
    for (Index n = 0; n < s.n_nodes(); ++n) {
        const auto ni = static_cast<std::size_t>(n);
        t.momentum_x += s.node_mass[ni] * s.u[ni];
        t.momentum_y += s.node_mass[ni] * s.v[ni];
        t.kinetic_energy += Real(0.5) * s.node_mass[ni] *
                            (s.u[ni] * s.u[ni] + s.v[ni] * s.v[ni]);
    }
    (void)mesh;
    return t;
}

} // namespace bookleaf::hydro
