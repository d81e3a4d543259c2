/// \file distributed.cpp
/// Distributed (flat-MPI analogue) driver. Each typhon rank owns a
/// subdomain and runs the Lagrangian predictor-corrector locally; ghost
/// data is refreshed with the paper's two halo exchanges per step:
///   1. before GETQ: node positions/velocities + ghost internal energy as
///      one fused wire exchange (the dependent thermodynamic state is
///      rebuilt locally);
///   2. before GETACC: ghost corner forces, so the nodal assembly at every
///      node of an owned cell is complete and exact.
/// The timestep is the global min-reduction of the owned-cell dt. On
/// remap-due steps of ALE/Eulerian decks, remap() below runs the
/// ghost-aware ALE step after the corrector.
///
/// Two schedules implement the step. The *blocking* schedule is the
/// paper's: reduce, exchange, compute, exchange, compute. The *overlap*
/// schedule (default, Options::overlap) posts each exchange through
/// typhon's request layer and runs the interior work — cells whose
/// stencils see no halo-refreshed data, nodes whose assembly reads no
/// ghost corner — while the messages are in flight; only the boundary
/// finish waits. The dt min-reduction is likewise posted nonblocking
/// before the pre-step halo and finished just before the predictor
/// consumes dt. Because every kernel piece involved is per-item
/// independent, the exchanged bytes are identical and the reduction is
/// rank-order deterministic, the two schedules are bitwise identical at
/// every rank count. Every exchange ships one coalesced message per peer
/// (typhon's only wire format).

#include "dist/distributed.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "geom/geometry.hpp"
#include "obs/critical_path.hpp"
#include "par/task_graph.hpp"
#include "perfmodel/calibrate.hpp"
#include "part/subdomain.hpp"
#include "typhon/fault.hpp"
#include "typhon/typhon.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace bookleaf::dist {

namespace {

/// Copy the step-start snapshot the predictor/corrector rewind to.
void snapshot(const hydro::Context& ctx, hydro::State& s) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

/// Rebuild the dependent state (geometry cache, volumes, density, EoS) *of
/// the ghost cells only* after their x/y/ein were refreshed — owned cells
/// ended the previous step exact (every node of an owned cell has its full
/// assembly locally), so recomputing them would be pure waste and would
/// skew the per-kernel profile against the serial driver. Ghost cells are
/// contiguous after the owned block.
void rebuild_ghost_state(const hydro::Context& ctx, hydro::State& s,
                         const part::Subdomain& sub) {
    const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
    // Strict (throwing) on a non-positive ghost volume — except under the
    // health guards, where a tangled geometry must propagate quietly to
    // the post-corrector vote so every rank reaches the collective retry
    // decision instead of one rank dying mid-step.
    hydro::rebuild_cells(*ctx.mesh, *ctx.materials, s, sub.n_owned_cells,
                         ctx.mesh->n_cells(), /*with_rho=*/true,
                         /*strict=*/!ctx.opts.guard.enabled, "dist ghost");
}

// ---------------------------------------------------------------------------
// Blocking schedule (ablation baseline, Options::overlap = false)
// ---------------------------------------------------------------------------

/// The fused pre-step state halo: node kinematics {x, y, u, v} and ghost
/// internal energy {ein} as ONE wire exchange — where a peer appears in
/// both schedules (the common case: a rank owning our ghost cells
/// usually owns nodes of ours too) the exchange ships a single message
/// carrying both groups' slices, collapsing the per-step
/// pre-exchange from two messages per peer to one.
[[nodiscard]] typhon::PendingExchange
start_state_halo(hydro::State& s, typhon::Comm& comm,
                 const part::Subdomain& sub) {
    const std::array<typhon::FieldGroup, 2> groups{
        typhon::FieldGroup{&sub.node_schedule, {std::span<Real>(s.x),
                                                std::span<Real>(s.y),
                                                std::span<Real>(s.u),
                                                std::span<Real>(s.v)}},
        typhon::FieldGroup{&sub.cell_schedule, {std::span<Real>(s.ein)}}};
    return typhon::exchange_start(comm, groups, 100);
}

/// Pre-step halo: refresh ghost node kinematics and ghost internal energy,
/// then rebuild the ghost dependent state.
void refresh_ghosts(const hydro::Context& ctx, hydro::State& s,
                    typhon::Comm& comm, const part::Subdomain& sub) {
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        typhon::PendingExchange halo;
        {
            const util::ScopedTimer pack(*ctx.profiler,
                                         util::Kernel::halo_pack);
            halo = start_state_halo(s, comm, sub);
        }
        halo.finish(ctx.profiler);
    }
    rebuild_ghost_state(ctx, s, sub);
}

/// One rank's Lagrangian step with the mid-step corner-force exchange.
/// Mirrors hydro::lagstep exactly, with typhon traffic inserted where the
/// paper's Algorithm 1 places it.
void dist_lagstep(const hydro::Context& ctx, hydro::State& s, Real dt,
                  typhon::Comm& comm, const part::Subdomain& sub) {
    snapshot(ctx, s);
    const Real half_dt = Real(0.5) * dt;

    // --- predictor ---------------------------------------------------------
    hydro::getq(ctx, s);
    hydro::getforce(ctx, s);
    hydro::getgeom(ctx, s, s.u0, s.v0, half_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.u0, s.v0, half_dt);
    hydro::getpc(ctx, s);

    // --- corrector ----------------------------------------------------------
    hydro::getq(ctx, s);
    hydro::getforce(ctx, s);
    {
        // Pre-acceleration halo: ghost corner forces from their owners.
        // After this, the gather at any node of an owned cell sees exactly
        // the corner forces a serial run would.
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        typhon::PendingExchange corners;
        {
            const util::ScopedTimer pack(*ctx.profiler,
                                         util::Kernel::halo_pack);
            corners = typhon::exchange_start(comm, sub.corner_schedule,
                                             {s.fx, s.fy}, 200);
        }
        corners.finish(ctx.profiler);
    }
    hydro::getacc(ctx, s, dt);
    hydro::getgeom(ctx, s, s.ubar, s.vbar, dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.ubar, s.vbar, dt);
    hydro::getpc(ctx, s);
}

// ---------------------------------------------------------------------------
// Overlap schedule (default): halo exchanges hide behind interior work
// ---------------------------------------------------------------------------

/// One step with both exchanges overlapped, plus the dt reduction. Covers
/// getdt's reduce + refresh + lagstep: the global min-reduce of
/// `dt_local` is posted nonblocking *before* the pre-step state exchange
/// (the exchanged bytes do not depend on dt) and finished only when the
/// predictor is about to consume dt; the state exchange spans into the
/// predictor and the corner-force exchange spans the corrector's interior
/// viscosity/force/assembly work.
/// Note on profiles: each subrange piece charges the profiler separately,
/// so per-kernel *call counts* differ from the blocking schedule (e.g.
/// two getq calls per sweep instead of one, halo split into post and
/// finish scopes, reduce split into post and wait); the wall-second
/// buckets remain comparable and are what the overlap ablation reports.
hydro::ClampedDt overlap_step(const hydro::Context& ctx, hydro::State& s,
                              Real dt_local, bool reduce, Real t, Real t_end,
                              typhon::Comm& comm, const part::Subdomain& sub,
                              Real& regrow_limit) {
    const std::span<const Index> interior(sub.interior_cells);
    const std::span<const Index> boundary(sub.boundary_cells);

    // --- dt reduce + pre-step state halo, overlapped with the interior
    // predictor. The reduce is posted first: every rank's contribution is
    // this step's local controller value, the result is the deterministic
    // rank-ordered min (bitwise what the blocking allreduce returns), and
    // nothing before the first half_dt use reads dt — so the collective
    // rides for free under the state exchange. Sends pack owned values,
    // so they post immediately; interior cells read no halo node, no
    // ghost state and no snapshot array, so running their predictor
    // viscosity/forces here computes bit-for-bit what the blocking
    // schedule computes after the exchange.
    typhon::CollRequest dt_reduce;
    if (reduce) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        dt_reduce = comm.iallreduce_min(dt_local);
    }
    typhon::PendingExchange state_halo;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        state_halo = start_state_halo(s, comm, sub);
    }
    hydro::getq(ctx, s, interior);
    hydro::getforce(ctx, s, interior);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        state_halo.finish(ctx.profiler);
    }
    rebuild_ghost_state(ctx, s, sub);
    snapshot(ctx, s);

    // The predictor consumes dt from here on: finish the reduce, then
    // apply the t_end clamp to the *used* dt only (the unclamped value
    // stays the growth reference for the next step).
    Real dt_global = dt_local;
    if (reduce) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        const util::ScopedTimer wait(*ctx.profiler, util::Kernel::reduce_wait);
        dt_global = dt_reduce.wait();
    }
    // Health-guard re-growth ceiling, applied to the *reduced* controller
    // value (globally agreed, so every rank evaluates it identically).
    if (reduce)
        hydro::apply_regrow_ceiling(dt_global, regrow_limit,
                                    ctx.opts.guard.regrow_cap);
    const auto step_dt = hydro::clamp_to_t_end(t, dt_global, t_end);

    const Real dt = step_dt.used;
    const Real half_dt = Real(0.5) * dt;

    // --- predictor boundary finish + whole-range remainder ------------------
    hydro::getq(ctx, s, boundary);
    hydro::getforce(ctx, s, boundary);
    hydro::getgeom(ctx, s, s.u0, s.v0, half_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.u0, s.v0, half_dt);
    hydro::getpc(ctx, s);

    // --- corrector: corner-force halo behind interior work ------------------
    // Boundary cells first (they contain every corner the peers need),
    // post the sends, then interior cells and the interior nodal assembly
    // proceed while the messages fly; only the boundary assembly waits.
    hydro::getq(ctx, s, boundary);
    hydro::getforce(ctx, s, boundary);
    typhon::PendingExchange corner_halo;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        corner_halo = typhon::exchange_start(comm, sub.corner_schedule,
                                             {s.fx, s.fy}, 200);
    }
    hydro::getq(ctx, s, interior);
    hydro::getforce(ctx, s, interior);
    hydro::getacc_assemble(ctx, s, sub.interior_nodes);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        corner_halo.finish(ctx.profiler);
    }
    hydro::getacc_assemble(ctx, s, sub.boundary_nodes);
    hydro::getacc_advance(ctx, s, dt);
    hydro::getgeom(ctx, s, s.ubar, s.vbar, dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.ubar, s.vbar, dt);
    hydro::getpc(ctx, s);
    return step_dt;
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: owned-slice gather to a writer rank, global restore
// through part::decompose
// ---------------------------------------------------------------------------

/// Tag of the checkpoint gather (the step halos use 100/200, the remap
/// 300..340; repeated checkpoints reuse the channel FIFO in step order).
constexpr int ckpt_tag = 500;

/// Tag of the end-of-run telemetry gather (same every-rank-sends-to-0
/// pattern as the checkpoint gather, once per run).
constexpr int telemetry_tag = 501;

/// Tag of the in-run live-window stream: every rank sends one compact
/// WindowRecord to rank 0 each time a monitoring window closes, rank 0
/// drains the channel opportunistically (posted irecvs polled at the top
/// of its step loop) and blocks the channel dry after its step loop ends
/// — the blocking drain promotes fault-held messages, so delay plans
/// cannot strand the stream past Hub::drained().
constexpr int live_tag = 502;

/// Pack this rank's owned entities for the checkpoint gather: the
/// snapshot's node fields (x, y, u, v, node_mass), cell fields (rho, ein,
/// q, cell_mass) and corner field (cnmass), field-major, each field's
/// owned items in ascending local order (unpack_owned scatters them back
/// through the subdomain's local -> global maps).
std::vector<Real> pack_owned(const part::Subdomain& sub,
                             const hydro::State& s) {
    std::vector<Real> out;
    const auto owned_nodes = static_cast<std::size_t>(sub.n_owned_nodes());
    const auto owned_cells = static_cast<std::size_t>(sub.n_owned_cells);
    out.reserve(5 * owned_nodes + (4 + corners_per_cell) * owned_cells);
    const auto nodes = [&](std::span<const Real> f) {
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
            if (sub.node_owned[ln]) out.push_back(f[ln]);
    };
    nodes(s.x);
    nodes(s.y);
    nodes(s.u);
    nodes(s.v);
    nodes(s.node_mass);
    const auto cells = [&](std::span<const Real> f) {
        for (std::size_t lc = 0; lc < owned_cells; ++lc) out.push_back(f[lc]);
    };
    cells(s.rho);
    cells(s.ein);
    cells(s.q);
    cells(s.cell_mass);
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
        for (int k = 0; k < corners_per_cell; ++k)
            out.push_back(s.cnmass[hydro::State::cidx(lc, k)]);
    return out;
}

/// Scatter one rank's packed owned slice into the global snapshot arrays
/// (the exact inverse of pack_owned, routed through the subdomain's
/// local->global maps).
void unpack_owned(const part::Subdomain& sub, std::span<const Real> payload,
                  ckpt::Snapshot& snap) {
    std::size_t pos = 0;
    const auto nodes = [&](std::vector<Real>& f) {
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
            if (sub.node_owned[ln])
                f[static_cast<std::size_t>(sub.local_nodes[ln])] =
                    payload[pos++];
    };
    nodes(snap.x);
    nodes(snap.y);
    nodes(snap.u);
    nodes(snap.v);
    nodes(snap.node_mass);
    const auto cells = [&](std::vector<Real>& f) {
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            f[static_cast<std::size_t>(
                sub.local_cells[static_cast<std::size_t>(lc)])] =
                payload[pos++];
    };
    cells(snap.rho);
    cells(snap.ein);
    cells(snap.q);
    cells(snap.cell_mass);
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
        const Index gc = sub.local_cells[static_cast<std::size_t>(lc)];
        for (int k = 0; k < corners_per_cell; ++k)
            snap.cnmass[hydro::State::cidx(gc, k)] = payload[pos++];
    }
    util::require(pos == payload.size(),
                  "dist: checkpoint gather payload size mismatch");
}

/// Assemble one global snapshot: every rank ships its owned slice to
/// rank 0 through the typhon point-to-point layer; rank 0 assembles the
/// global arrays (ascending entity order, the serial layout) and returns
/// the snapshot — other ranks return nullopt. Because owned fields are
/// bitwise-serial, the assembled snapshot is identical to the one a
/// serial run would capture at the same step — at any rank count. One
/// gather serves both consumers: the on-disk checkpoint cadence and the
/// supervisor's in-memory rollback ring.
std::optional<ckpt::Snapshot> gather_snapshot(
    typhon::Comm& comm, const std::vector<part::Subdomain>& subs,
    const mesh::Mesh& global, std::uint64_t mesh_hash, const hydro::State& s,
    const part::Subdomain& sub, Real t, Real dt_ref, Real regrow,
    std::int64_t steps, util::Profiler& profiler) {
    const util::ScopedTimer timer(profiler, util::Kernel::other);
    comm.send(0, ckpt_tag, pack_owned(sub, s));
    if (comm.rank() != 0) return std::nullopt;

    ckpt::Snapshot snap;
    snap.mesh_hash = mesh_hash;
    snap.steps = steps;
    snap.t = t;
    snap.dt = dt_ref;
    snap.regrow = regrow;
    const auto nn = static_cast<std::size_t>(global.n_nodes());
    const auto nc = static_cast<std::size_t>(global.n_cells());
    snap.x.resize(nn);
    snap.y.resize(nn);
    snap.u.resize(nn);
    snap.v.resize(nn);
    snap.node_mass.resize(nn);
    snap.rho.resize(nc);
    snap.ein.resize(nc);
    snap.q.resize(nc);
    snap.cell_mass.resize(nc);
    snap.cnmass.resize(nc * corners_per_cell);
    for (int r = 0; r < comm.size(); ++r) {
        const auto payload = comm.recv(r, ckpt_tag);
        unpack_owned(subs[static_cast<std::size_t>(r)], payload, snap);
    }
    return snap;
}

/// Restore one rank's subdomain state from the global snapshot: owned and
/// ghost entities alike take the global (bitwise-serial) values — exactly
/// the bytes a pre-step ghost refresh would land — then the derived state
/// is rebuilt with the same per-cell sequence the serial restore uses.
void restore_rank_state(const part::Subdomain& sub,
                        const eos::MaterialTable& materials,
                        const ckpt::Snapshot& snap, hydro::State& s) {
    for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
        const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
        s.x[ln] = snap.x[gn];
        s.y[ln] = snap.y[gn];
        s.u[ln] = snap.u[gn];
        s.v[ln] = snap.v[gn];
        s.node_mass[ln] = snap.node_mass[gn];
    }
    for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
        const auto gc = static_cast<std::size_t>(sub.local_cells[lc]);
        s.rho[lc] = snap.rho[gc];
        s.ein[lc] = snap.ein[gc];
        s.q[lc] = snap.q[gc];
        s.cell_mass[lc] = snap.cell_mass[gc];
        for (int k = 0; k < corners_per_cell; ++k)
            s.cnmass[hydro::State::cidx(static_cast<Index>(lc), k)] =
                snap.cnmass[hydro::State::cidx(static_cast<Index>(gc), k)];
    }
    ckpt::rebuild_derived(sub.local, materials, s);
    s.x0 = s.x;
    s.y0 = s.y;
    s.u0 = s.u;
    s.v0 = s.v;
    s.ein0 = s.ein;
}

/// Remap phases 3b-4 as a task graph (per-rank pool + taskgraph schedule):
/// the ghost-gradient exchange finish becomes a main-thread graph node, so
/// *interior* face fluxes — both sides owned, gradients locally exact —
/// compute while the exchange is in flight, and only the *frontier* face
/// blocks (those reading a ghost gradient) are released by the finish.
/// Cell and dual sweeps join per-block as soon as their own four faces'
/// flux blocks are done. Bitwise identical to the blocking sequence: the
/// interior/frontier split only reorders per-face-independent work, the
/// prelude zero-fill is the same bytes the blocking overloads assign, and
/// every task writes disjoint slots.
void remap_flux_graph(const hydro::Context& ctx, hydro::State& s,
                      const ale::Options& ale, ale::Workspace& w,
                      typhon::Comm& comm, const part::Subdomain& sub) {
    const auto& mesh = *ctx.mesh;
    const Index n_owned = sub.n_owned_cells;

    // Task bodies run the serial kernel paths (no nested pool dispatch).
    hydro::Context body = ctx;
    body.exec.pool = nullptr;

    // Split the remap faces: a frontier face touches a ghost cell, so its
    // donor reconstruction may read an exchanged gradient; interior faces
    // read locally-computed gradients only. Boundary faces have no right
    // cell and classify by their left cell alone.
    std::vector<Index> interior, frontier;
    interior.reserve(sub.remap_faces.size());
    for (const Index f : sub.remap_faces) {
        const auto& face = mesh.faces[static_cast<std::size_t>(f)];
        const bool ghost = face.left >= n_owned ||
                           (face.right != no_index && face.right >= n_owned);
        (ghost ? frontier : interior).push_back(f);
    }

    // Prelude: the exact zero state the blocking overloads assign (ghost
    // dflux slots the result exchange does not cover must read zero, as
    // they do on the blocking schedule).
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect);
        w.mflux.assign(mesh.faces.size(), 0.0);
        w.eflux.assign(mesh.faces.size(), 0.0);
        w.dflux.assign(
            static_cast<std::size_t>(mesh.n_cells()) * corners_per_cell, 0.0);
    }

    // Post the ghost-gradient exchange; its finish is a graph node below.
    typhon::PendingExchange grads;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        grads = typhon::exchange_start(comm, sub.remap_cell_schedule,
                                       {w.grad_rho_x, w.grad_rho_y,
                                        w.grad_e_x, w.grad_e_y},
                                       320);
    }

    par::TaskGraph graph;
    const par::TaskId t_finish = graph.add(
        [&] {
            const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
            grads.finish(ctx.profiler);
        },
        /*main_thread=*/true, // comm endpoints are per-rank-thread
        util::Kernel::halo);

    // Flux tasks over chunks of the face lists; face -> task for the
    // cell/dual dependencies.
    std::vector<par::TaskId> task_of_face(mesh.faces.size(), par::TaskId{-1});
    const Index n_faces = static_cast<Index>(sub.remap_faces.size());
    const Index fchunk = par::detail::resolve_task_block(ctx.exec, n_faces);
    auto add_flux_chunks = [&](const std::vector<Index>& faces,
                               bool needs_ghosts) {
        for (std::size_t at = 0; at < faces.size();
             at += static_cast<std::size_t>(fchunk)) {
            const auto len = std::min(static_cast<std::size_t>(fchunk),
                                      faces.size() - at);
            const std::span<const Index> chunk(faces.data() + at, len);
            const par::TaskId t = graph.add(
                [&, chunk] {
                    ale::aleadvect_fluxes_chunk(body, s, ale, w, chunk);
                },
                false, util::Kernel::ale_fluxes);
            if (needs_ghosts) graph.depend(t, t_finish);
            for (const Index f : chunk)
                task_of_face[static_cast<std::size_t>(f)] = t;
        }
    };
    add_flux_chunks(interior, /*needs_ghosts=*/false);
    add_flux_chunks(frontier, /*needs_ghosts=*/true);

    // Cell and dual sweeps over owned-cell blocks, each gated only on the
    // flux tasks of its cells' own faces (unlisted faces keep the prelude
    // zero and gate nothing).
    std::atomic<long> floored{0};
    const Index cblock = par::detail::resolve_task_block(ctx.exec, n_owned);
    std::vector<par::TaskId> deps;
    for (Index begin = 0; begin < n_owned; begin += cblock) {
        const Index end = std::min(n_owned, begin + cblock);
        deps.clear();
        for (Index c = begin; c < end; ++c)
            for (int k = 0; k < corners_per_cell; ++k) {
                const par::TaskId t =
                    task_of_face[static_cast<std::size_t>(mesh.face_of(c, k))];
                if (t >= 0) deps.push_back(t);
            }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        const par::TaskId t_cells = graph.add(
            [&, begin, end] { ale::aleadvect_cells(body, s, w, begin, end); },
            false, util::Kernel::ale_cells);
        const par::TaskId t_dual = graph.add(
            [&, begin, end] {
                ale::aleadvect_dual(body, s, w, begin, end, floored);
            },
            false, util::Kernel::ale_dual);
        for (const par::TaskId d : deps) {
            graph.depend(t_cells, d);
            graph.depend(t_dual, d);
        }
    }

    graph.run(ctx.exec, ctx.profiler, ctx.graph_log);
    if (floored.load() > 0)
        util::log_warn("aleadvect: floored ", floored.load(),
                       " negative corner masses");
}

} // namespace

void remap(const hydro::Context& ctx, hydro::State& s, const ale::Options& ale,
           ale::Workspace& w, typhon::Comm& comm, const part::Subdomain& sub) {
    // 1. Pre-remap state refresh: the corrector left ghost kinematics and
    // energy stale (fringe assemblies are incomplete); the remap reads
    // them everywhere, so run the same fused halo + ghost rebuild the
    // next step would.
    refresh_ghosts(ctx, s, comm, sub);

    // 2. Target mesh. ALE smoothing needs one node-position halo per
    // Jacobi pass (and one after the clamp): a fringe node's local
    // adjacency is incomplete, so its owner's value overwrites it before
    // the next pass reads it. Eulerian targets are exact locally.
    if (ale.mode == ale::Mode::ale) {
        ale::alegetmesh(ctx, s, ale, w,
                        [&](std::vector<Real>& xt, std::vector<Real>& yt) {
                            const util::ScopedTimer timer(*ctx.profiler,
                                                          util::Kernel::halo);
                            typhon::PendingExchange mesh_halo;
                            {
                                const util::ScopedTimer pack(
                                    *ctx.profiler, util::Kernel::halo_pack);
                                mesh_halo = typhon::exchange_start(
                                    comm, sub.node_schedule, {xt, yt}, 300);
                            }
                            mesh_halo.finish(ctx.profiler);
                        });
    } else {
        ale::alegetmesh(ctx, s, ale, w);
    }

    // 3. Swept volumes on the faces this rank remaps (owned-incident; a
    // ghost cell's far face is phantom here and is never evaluated), then
    // gradients for owned cells and the ghost-gradient exchange: limited
    // reconstruction at a boundary cell reads its face-adjacent ghosts'
    // gradients, which only their owner can compute with a full stencil.
    ale::alegetfvol(ctx, s, w, sub.remap_faces);
    ale::aleadvect_centroids(ctx, s, w);
    ale::aleadvect_gradients(ctx, s, ale, w, sub.n_owned_cells);

    if (ctx.exec.threaded() &&
        ctx.exec.schedule == par::Schedule::taskgraph) {
        // 4. (graph) The exchange finish releases only the ghost-touching
        // face blocks; interior fluxes and per-block cell/dual sweeps
        // overlap the in-flight messages. Bitwise == the blocking branch.
        remap_flux_graph(ctx, s, ale, w, comm, sub);
    } else {
        {
            const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
            typhon::PendingExchange grads;
            {
                const util::ScopedTimer pack(*ctx.profiler,
                                             util::Kernel::halo_pack);
                grads = typhon::exchange_start(comm, sub.remap_cell_schedule,
                                               {w.grad_rho_x, w.grad_rho_y,
                                                w.grad_e_x, w.grad_e_y},
                                               320);
            }
            grads.finish(ctx.profiler);
        }

        // 4. Fluxes on the remap faces; cell and dual sweeps over owned
        // cells.
        ale::aleadvect_fluxes(ctx, s, ale, w, sub.remap_faces);
        ale::aleadvect_cells(ctx, s, w, sub.n_owned_cells);
        ale::aleadvect_dual(ctx, s, w, sub.n_owned_cells);
    }

    // 5. Fused result exchange: ghost cell results {cell_mass, ein} (the
    // next steps' ghost rebuild divides cell_mass by volume) and ghost
    // dual-mesh results {cnmass, dflux} — the acceleration assembly reads
    // ghost corner masses every step, and the nodal remap below needs the
    // dual fluxes of ghost cells, which their far faces make impossible
    // to compute here.
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const std::array<typhon::FieldGroup, 2> groups{
            typhon::FieldGroup{&sub.cell_schedule,
                               {std::span<Real>(s.cell_mass),
                                std::span<Real>(s.ein)}},
            typhon::FieldGroup{&sub.remap_dual_schedule,
                               {std::span<Real>(s.cnmass),
                                std::span<Real>(w.dflux)}}};
        typhon::PendingExchange results;
        {
            const util::ScopedTimer pack(*ctx.profiler,
                                         util::Kernel::halo_pack);
            results = typhon::exchange_start(comm, groups, 340);
        }
        results.finish(ctx.profiler);
    }

    // 6. Nodal (dual-mesh) remap over the stencil-complete nodes, then
    // move everything onto the target mesh and rebuild the dependent
    // state — all inputs are exact on every local entity by now, so the
    // full-range update is bitwise-serial even on ghosts.
    ale::aleadvect_nodes(ctx, s, w, sub.remap_nodes);
    ale::aleupdate(ctx, s, w);
}

namespace {

/// The shared driver body. Exactly one of `snap` (restart) or the four
/// initial-condition fields (fresh run) is non-null.
///
/// Supervised mode (opts.supervise) wraps the whole run in an attempt
/// loop: a typhon::RankFailure — an injected kill or any real rank error —
/// rolls the run back to the newest ring snapshot (or the restart
/// snapshot, or the initial conditions), drops the failed rank, and
/// re-runs partition/decompose/typhon::run on the survivors. Because
/// snapshots are rank-count invariant and the owned-entity contract is
/// bitwise at any rank count, the recovered result is bitwise identical
/// to an uninterrupted run. Failed attempts leave no residue: every
/// global entity is owned by some rank at every rank count, so the
/// successful attempt's gather overwrites the result arrays completely,
/// and thread-join ordering makes the cross-attempt reuse race-free.
Result run_impl(const mesh::Mesh& global, const eos::MaterialTable& materials,
                const Options& opts, const ckpt::Snapshot* snap,
                const std::vector<Real>* rho_ic,
                const std::vector<Real>* ein_ic, const std::vector<Real>* u_ic,
                const std::vector<Real>* v_ic) {
    const bool supervised = opts.supervise.enabled;
    const bool telemetry = opts.telemetry.active();
    const bool live = opts.telemetry.live_active();
    // Live monitoring host state. The NDJSON stream spans every attempt —
    // the crash trail must include failed ones — and is appended to by
    // the rank-0 driver thread and the watchdog supervisor thread
    // (LiveStream locks internally). stall_count is bumped on the
    // supervisor thread and read after the joins.
    obs::LiveStream live_stream(telemetry ? opts.telemetry.live
                                          : std::string{});
    std::atomic<long> stall_count{0};
    if (live_stream.open()) {
        obs::Json ev;
        ev["event"] = "run_start";
        ev["schema"] = "bookleaf.live/1";
        ev["label"] = opts.telemetry.label;
        ev["n_ranks"] = opts.n_ranks;
        ev["window_steps"] = static_cast<long long>(
            opts.telemetry.window_steps);
        ev["watchdog_factor"] = opts.telemetry.watchdog_factor;
        live_stream.emit(std::move(ev));
    }
    // One epoch for the whole run: recovery attempts land on the same
    // trace timeline, and the run wall clock spans every attempt.
    const auto telemetry_epoch = std::chrono::steady_clock::now();
    const util::Timer run_timer;

    // The writer rank needs the global mesh identity; hash it once here
    // rather than per checkpoint/ring snapshot.
    const std::uint64_t global_hash =
        (opts.checkpoint.enabled() || supervised) ? ckpt::mesh_hash(global)
                                                  : 0;

    Result result;
    result.rho.resize(static_cast<std::size_t>(global.n_cells()));
    result.ein.resize(result.rho.size());
    result.u.resize(static_cast<std::size_t>(global.n_nodes()));
    result.v.resize(result.u.size());
    result.x.resize(result.u.size());
    result.y.resize(result.u.size());

    // Rollback ring: the newest supervised snapshots, oldest evicted.
    // Only the rank-0 thread touches it inside typhon::run; the
    // supervisor reads it after the join (thread-join ordering, no lock).
    std::deque<ckpt::Snapshot> ring;
    const auto ring_capacity =
        static_cast<std::size_t>(std::max(1, opts.supervise.ring_capacity));

    int ranks_now = opts.n_ranks;
    const ckpt::Snapshot* start_snap = snap;
    ckpt::Snapshot rollback; // owns the ring snapshot a recovery resumes from

    for (int attempt = 0;; ++attempt) {
        const std::vector<Index> part =
            opts.partitioner ? opts.partitioner(global, ranks_now)
                             : part::rcb(global, ranks_now);
        const auto subs = part::decompose(global, part, ranks_now);

        std::vector<util::Profiler> profilers(
            static_cast<std::size_t>(ranks_now));
        std::vector<int> steps_per_rank(static_cast<std::size_t>(ranks_now),
                                        0);
        std::vector<Real> t_per_rank(static_cast<std::size_t>(ranks_now), 0.0);

        // Telemetry sinks of this attempt. Trace and critical-path span
        // vectors are host-allocated here; each rank thread attaches its
        // own slot (disjoint writes) and stamps spans against its OWN run
        // epoch — the per-rank epoch offsets travel with the tag-501
        // gather and rank 0 aligns everything onto its timeline below.
        // rank_records and gather_events are written by the rank-0 thread
        // only and read after the join (thread-join ordering, no lock).
        std::vector<std::vector<util::TraceEvent>> traces;
        std::vector<std::vector<obs::CritSpan>> crits;
        if (telemetry && opts.telemetry.want_trace()) {
            traces.resize(static_cast<std::size_t>(ranks_now));
            crits.resize(static_cast<std::size_t>(ranks_now));
        }
        std::vector<obs::RankRecord> rank_records;
        long long gather_events = 0;

        // Live-window state of this attempt. live_windows and the
        // assembler are touched by the rank-0 thread only (read after the
        // join); the watchdog is shared — rank threads bump its step
        // epochs (relaxed atomics), the rank-0 thread stamps window
        // arrivals, and the supervisor thread runs check().
        std::vector<obs::LiveWindow> live_windows;
        std::optional<obs::LiveAssembler> assembler;
        std::optional<obs::Watchdog> watchdog;
        if (live) {
            assembler.emplace(ranks_now);
            if (opts.telemetry.watchdog_factor > 0.0 && ranks_now > 1)
                watchdog.emplace(
                    ranks_now, opts.telemetry.watchdog_factor,
                    static_cast<double>(opts.telemetry.watchdog_grace_ms),
                    opts.telemetry.watchdog_escalate);
        }

        // The fault plan is scripted per attempt: a kill recorded for
        // attempt 0 stays quiet during recovery re-runs. An empty plan
        // never touches the transport hot path (nullptr injector).
        typhon::FaultInjector injector(opts.faults, ranks_now, attempt);
        typhon::FaultInjector* fault =
            opts.faults.empty() ? nullptr : &injector;

        try {
            result.traffic =
                typhon::run(ranks_now, [&](typhon::Comm& comm) {
        const auto& sub = subs[static_cast<std::size_t>(comm.rank())];
        auto& profiler = profilers[static_cast<std::size_t>(comm.rank())];

        // Per-rank run epoch: rank threads start (and stamp their clocks)
        // at slightly different instants, so every sink this rank writes
        // — trace spans, step start times, graph-run spans — is measured
        // against its own origin, and the offset to the shared run epoch
        // ships with the tag-501 gather so rank 0 can align all records
        // onto its own timeline (what a real MPI run must do, since node
        // clocks share no origin).
        const auto rank_epoch = telemetry ? std::chrono::steady_clock::now()
                                          : telemetry_epoch;
        if (telemetry && opts.telemetry.want_trace())
            profiler.set_trace(&traces[static_cast<std::size_t>(comm.rank())],
                               rank_epoch);

        // Per-rank worker pool (the hybrid MPI+OpenMP analogue). Built
        // before the state so the first-touch allocation places pages in
        // the same blocks the threaded kernels sweep.
        std::unique_ptr<par::ThreadPool> pool;
        par::Exec exec;
        exec.schedule = opts.schedule;
        if (opts.n_threads > 1) {
            pool = std::make_unique<par::ThreadPool>(opts.n_threads);
            exec.pool = pool.get();
        }

        hydro::State s = hydro::allocate(sub.local, exec);
        if (start_snap != nullptr) {
            restore_rank_state(sub, materials, *start_snap, s);
        } else {
            for (std::size_t lc = 0; lc < sub.local_cells.size(); ++lc) {
                const auto gc = static_cast<std::size_t>(sub.local_cells[lc]);
                s.rho[lc] = (*rho_ic)[gc];
                s.ein[lc] = (*ein_ic)[gc];
            }
            for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
                const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
                s.u[ln] = (*u_ic)[gn];
                s.v[ln] = (*v_ic)[gn];
            }
            hydro::initialise(sub.local, materials, s);
        }

        hydro::Context ctx;
        ctx.mesh = &sub.local;
        ctx.materials = &materials;
        ctx.opts = opts.hydro;
        ctx.exec = exec;
        ctx.profiler = &profiler;
        ctx.dt_cells = sub.n_owned_cells; // dt over owned cells only
        // Corner gathers and the ALE smoothing average in serial order
        // (bitwise == serial).
        ctx.assembly_corners = &sub.assembly_corners;
        ctx.smoothing_neighbours = &sub.smoothing_neighbours;

        // Task-graph attribution sinks (telemetry only): the remap flux
        // graph appends per-task spans into graph_log; attribute_step
        // drains them into the step record after the physics commits.
        // Null when telemetry is off — graph.run takes the zero-cost path.
        par::GraphRunLog graph_log;
        obs::RankAttribution attrib;
        if (telemetry) {
            graph_log.epoch = rank_epoch;
            ctx.graph_log = &graph_log;
        }

        ale::Workspace ale_work;
        const auto& guard = opts.hydro.guard;
        hydro::StepBackup backup;

        // Clock: fresh runs start at zero; restarts continue the
        // snapshot's clock (so the remap cadence, the `steps > 0` getdt
        // gate and max_steps all behave as in the serial restore).
        Real t = start_snap != nullptr ? start_snap->t : 0.0;
        // Growth reference for getdt: always the *unclamped* controller
        // value. Feeding a t_end-clamped dt back would growth-limit the
        // next step from an arbitrarily tiny final step (the continuation
        // bug fixed in core::Hydro::step_clamped — same pattern here).
        Real dt_prev =
            start_snap != nullptr ? start_snap->dt : opts.hydro.dt_initial;
        Real regrow_limit = start_snap != nullptr ? start_snap->regrow : 0.0;
        int steps = start_snap != nullptr ? static_cast<int>(start_snap->steps)
                                          : 0;
        // Bounded step retention: [telemetry] max_steps caps the records
        // kept in memory; evicted ones fold into an exact aggregate.
        obs::StepRing my_steps(opts.telemetry.max_steps);

        // Live monitoring rank state. Every rank folds its own windows
        // and streams each one to rank 0 on tag 502 the moment it closes
        // (rank 0 sends to itself through the same channel — one
        // discipline, no special case). Rank 0 additionally keeps one
        // posted irecv per peer, drained opportunistically at the top of
        // every step, and hosts the watchdog supervisor thread.
        std::optional<obs::WindowFolder> folder;
        std::vector<obs::WindowRecord> my_windows;
        std::vector<typhon::Request> live_pending;
        std::vector<long> live_received;
        if (live)
            folder.emplace(comm.rank(), opts.telemetry.window_steps,
                           &profiler);
        const auto harvest_window = [&](const std::vector<Real>& payload,
                                        int src) {
            auto w = obs::unpack_window(payload);
            ++live_received[static_cast<std::size_t>(src)];
            if (watchdog) watchdog->note_window(w.rank);
            obs::Json ev;
            ev["event"] = "window";
            ev["attempt"] = attempt;
            ev["record"] = obs::window_json(w);
            live_stream.emit(std::move(ev));
            for (auto& lw : assembler->add(std::move(w))) {
                obs::Json iev;
                iev["event"] = "imbalance";
                iev["attempt"] = attempt;
                iev["window"] = static_cast<long long>(lw.index);
                iev["max_over_mean"] = lw.imbalance.max_over_mean;
                iev["mean_rank_s"] = lw.imbalance.mean_rank_s;
                iev["max_rank_s"] = lw.imbalance.max_rank_s;
                iev["slowest_rank"] = lw.imbalance.slowest_rank;
                live_stream.emit(std::move(iev));
                if (opts.on_window) opts.on_window(lw);
                live_windows.push_back(std::move(lw));
            }
        };
        // Nonblocking drain: harvest whatever has arrived, repost. A
        // posted irecv is a local handle (test() polls the transport), so
        // a request left pending at run end strands nothing.
        const auto drain_live = [&] {
            for (int r = 0; r < comm.size(); ++r) {
                auto& req = live_pending[static_cast<std::size_t>(r)];
                while (req.test()) {
                    harvest_window(req.data(), r);
                    req = comm.irecv(r, live_tag);
                }
            }
        };
        std::optional<obs::WatchdogSession> watch_session;
        if (live && comm.rank() == 0) {
            live_pending.resize(static_cast<std::size_t>(comm.size()));
            live_received.assign(static_cast<std::size_t>(comm.size()), 0);
            for (int r = 0; r < comm.size(); ++r)
                live_pending[static_cast<std::size_t>(r)] =
                    comm.irecv(r, live_tag);
            if (watchdog) {
                const double poll_ms = std::max(
                    static_cast<double>(opts.telemetry.watchdog_grace_ms) /
                        8.0,
                    1.0);
                watch_session.emplace(*watchdog, poll_ms,
                                      [&](const obs::Watchdog::Stall& st) {
                    ++stall_count;
                    obs::Json ev;
                    ev["event"] = "stall";
                    ev["attempt"] = attempt;
                    ev["rank"] = st.rank;
                    ev["last_step"] = static_cast<long long>(st.last_step);
                    ev["windows"] = static_cast<long long>(st.windows);
                    ev["silent_ms"] = st.silent_ms;
                    ev["threshold_ms"] = st.threshold_ms;
                    ev["escalated"] = st.escalated;
                    // The hang diagnostic: every rank's last completed
                    // step plus the transport channels still holding
                    // undelivered (pending or fault-held) messages.
                    obs::Json last = obs::Json::array();
                    for (int r = 0; r < watchdog->n_ranks(); ++r)
                        last.push_back(
                            static_cast<long long>(watchdog->last_step(r)));
                    ev["last_steps"] = std::move(last);
                    obs::Json channels = obs::Json::array();
                    for (const auto& c : comm.backlog()) {
                        obs::Json cj;
                        cj["src"] = c.src;
                        cj["dst"] = c.dst;
                        cj["tag"] = c.tag;
                        cj["pending"] = static_cast<long long>(c.pending);
                        cj["held"] = static_cast<long long>(c.held);
                        channels.push_back(std::move(cj));
                    }
                    ev["backlog"] = std::move(channels);
                    live_stream.emit(std::move(ev));
                    util::log_warn("watchdog: rank ", st.rank,
                                   " silent for ", st.silent_ms,
                                   " ms (threshold ", st.threshold_ms,
                                   " ms), last step ", st.last_step,
                                   st.escalated ? " - escalating" : "");
                });
            }
        }
        while (t < opts.t_end * (Real(1.0) - eps) && steps < opts.max_steps) {
            // Record the step for failure reports and tick the fault
            // plan's kill-at-step trigger.
            comm.set_step(steps);
            // Watchdog progress tick (one relaxed store + one relaxed
            // load) and, on rank 0, the opportunistic tag-502 drain. A
            // poisoned rank — flagged as stalled with escalation enabled —
            // turns its silent hang into an ordinary recoverable failure.
            if (watchdog && watchdog->note_step(comm.rank(), steps))
                throw obs::StallEscalated(comm.rank());
            if (live && comm.rank() == 0) drain_live();
            const auto step_t0 = telemetry
                                     ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point{};
            const Real t_before = t;
            std::string_view dt_reason = "initial";
            Real dt_local = opts.hydro.dt_initial;
            if (steps > 0) {
                const auto dtr = hydro::getdt(ctx, s, dt_prev);
                dt_local = dtr.dt;
                dt_reason = dtr.reason;
            }
            const Real regrow_before = regrow_limit;

            // Loop-top capture for the health-guard rollback — before the
            // ghost refresh, so a retry replays the refresh from restored
            // owned values (the same bytes the first attempt exchanged).
            if (guard.enabled) hydro::capture_step(s, backup);

            Real dt_used;
            bool t_end_clamped = false;
            int retries = 0;
            if (opts.overlap) {
                // The reduce is posted inside the step, concurrent with
                // the pre-step state halo.
                const auto step_dt =
                    overlap_step(ctx, s, dt_local, steps > 0, t, opts.t_end,
                                 comm, sub, regrow_limit);
                dt_prev = step_dt.unclamped;
                dt_used = step_dt.used;
                t_end_clamped = step_dt.used != step_dt.unclamped;
            } else {
                Real dt_global = dt_local;
                if (steps > 0) {
                    const util::ScopedTimer timer(profiler,
                                                  util::Kernel::reduce);
                    const util::ScopedTimer wait(profiler,
                                                 util::Kernel::reduce_wait);
                    dt_global = comm.allreduce_min(dt_local);
                }
                // Re-growth ceiling on the reduced controller value.
                if (steps > 0)
                    hydro::apply_regrow_ceiling(dt_global, regrow_limit,
                                                guard.regrow_cap);
                const auto step_dt =
                    hydro::clamp_to_t_end(t, dt_global, opts.t_end);
                dt_prev = step_dt.unclamped;
                refresh_ghosts(ctx, s, comm, sub);
                dist_lagstep(ctx, s, step_dt.used, comm, sub);
                dt_used = step_dt.used;
                t_end_clamped = step_dt.used != step_dt.unclamped;
            }

            if (guard.enabled) {
                // Collective health vote + dt-backoff retry. Every rank
                // checks its owned entities (their union is the global
                // set and owned bytes are bitwise-serial), so the
                // min-reduced verdict equals the serial driver's
                // step_healthy on the full state — the retry decision is
                // agreed bitwise on all ranks. Retries replay the step on
                // the blocking schedule (bitwise == overlap by contract);
                // the reduce is a collective, so the per-step
                // point-to-point message count of a healthy run is
                // untouched.
                bool healthy = hydro::step_healthy(s, sub.n_owned_cells,
                                                   sub.node_owned);
                for (;;) {
                    Real all_ok;
                    {
                        const util::ScopedTimer timer(profiler,
                                                      util::Kernel::reduce);
                        const util::ScopedTimer wait(
                            profiler, util::Kernel::reduce_wait);
                        all_ok = comm.allreduce_min(healthy ? Real(1.0)
                                                            : Real(0.0));
                    }
                    if (all_ok > Real(0.5)) break;
                    util::require(
                        retries < guard.max_retries,
                        "hydro: step " + std::to_string(steps + 1) +
                            " rejected by health guards after " +
                            std::to_string(retries) + " dt-backoff retries");
                    ++retries;
                    const Real dt_try = dt_used * guard.backoff;
                    util::require(dt_try >= opts.hydro.dt_min,
                                  "hydro: health-guard backoff drove dt below "
                                  "dt_min at step " +
                                      std::to_string(steps + 1));
                    hydro::restore_step(ctx, s, backup);
                    refresh_ghosts(ctx, s, comm, sub);
                    dist_lagstep(ctx, s, dt_try, comm, sub);
                    dt_used = dt_try;
                    healthy = hydro::step_healthy(s, sub.n_owned_cells,
                                                  sub.node_owned);
                }
                if (retries > 0) {
                    // Accepted retried step: the used dt becomes the
                    // growth reference and arms the re-growth ceiling
                    // (serial semantics, collectively-agreed values only).
                    dt_prev = dt_used;
                    regrow_limit = dt_used * guard.regrow_cap;
                }
            }
            t += dt_used;

            const bool remapped = ale::remap_due(opts.ale, steps);
            if (remapped) remap(ctx, s, opts.ale, ale_work, comm, sub);
            if (telemetry) {
                // Recorded after the step's physics committed (passive —
                // telemetry reads state, never feeds back into it). The
                // constraint resolution mirrors the serial driver's
                // precedence: retry > t_end clamp > regrow ceiling >
                // getdt's own reason.
                if (retries > 0)
                    dt_reason = "health-retry";
                else if (t_end_clamped)
                    dt_reason = "t_end";
                else if (steps > 0 && regrow_before > 0.0 &&
                         regrow_limit > 0.0)
                    dt_reason = "regrow";
                obs::StepRecord rec;
                rec.step = steps;
                rec.t = t;
                rec.dt = dt_used;
                rec.dt_local = dt_local;
                rec.dt_reason = obs::dt_reason_code(dt_reason);
                rec.start_us = std::chrono::duration<double, std::micro>(
                                   step_t0 - rank_epoch)
                                   .count();
                rec.wall_us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - step_t0)
                        .count();
                rec.retries = retries;
                rec.remapped = remapped;
                obs::attribute_step(
                    graph_log, rec, attrib,
                    opts.telemetry.want_trace()
                        ? &crits[static_cast<std::size_t>(comm.rank())]
                        : nullptr);
                my_steps.push(rec);
                if (folder) {
                    if (auto w = folder->add(rec)) {
                        my_windows.push_back(*w);
                        comm.send(0, live_tag, obs::pack_window(*w));
                    }
                }
            }
            ++steps;
            // Snapshot cadences: every rank evaluates the same triggers
            // (t and steps are globally identical), so the gather below
            // is collective. Both cadences only ever fire after completed
            // natural steps — a checkpointing/supervised run is bitwise
            // the run without either. One gather feeds the on-disk
            // checkpoint, the supervisor's rollback ring and an optional
            // ring spill to disk.
            const bool disk_due = opts.checkpoint.enabled() &&
                                  opts.checkpoint.due(steps, t_before, t);
            const bool ring_due = supervised &&
                                  opts.supervise.snapshot_every > 0 &&
                                  steps % opts.supervise.snapshot_every == 0;
            if (disk_due || ring_due) {
                if (comm.rank() == 0) ++gather_events;
                auto gathered = gather_snapshot(comm, subs, global,
                                                global_hash, s, sub, t,
                                                dt_prev, regrow_limit, steps,
                                                profiler);
                if (gathered.has_value()) { // rank 0 only
                    if (disk_due) {
                        const auto path = opts.checkpoint.path_for(steps);
                        ckpt::write(path, *gathered);
                        // A recovery replays steps, so a path may come up
                        // twice; the rewrite is byte-identical (bitwise
                        // contract) — record it once.
                        if (std::find(result.checkpoints.begin(),
                                      result.checkpoints.end(),
                                      path) == result.checkpoints.end())
                            result.checkpoints.push_back(path);
                    }
                    if (supervised) {
                        if (!opts.supervise.spill_prefix.empty())
                            ckpt::write(opts.supervise.spill_prefix + "_" +
                                            std::to_string(steps) + ".ckpt",
                                        *gathered);
                        ring.push_back(std::move(*gathered));
                        if (ring.size() > ring_capacity) ring.pop_front();
                    }
                }
                if (disk_due && opts.checkpoint.halt_after) break;
            }
        }

        // Step loop done: stop the stall supervisor (no more progress
        // ticks are coming, so anything it would flag now is a false
        // positive), then drain the tag-502 stream dry. Lockstep stepping
        // means every rank produced exactly this rank-0 folder's window
        // count; the blocking wait() promotes fault-held messages, so a
        // delay plan cannot strand the channel past Hub::drained().
        if (live && comm.rank() == 0) {
            watch_session.reset();
            const long expect = folder->produced();
            for (int r = 0; r < comm.size(); ++r) {
                auto& req = live_pending[static_cast<std::size_t>(r)];
                while (live_received[static_cast<std::size_t>(r)] < expect) {
                    req.wait();
                    harvest_window(req.data(), r);
                    req = comm.irecv(r, live_tag);
                }
            }
        }

        // Gather owned fields into the global result. Each global cell has
        // exactly one owner and each global node one owning rank, so the
        // writes are disjoint across rank threads.
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
            const auto gc =
                static_cast<std::size_t>(sub.local_cells[static_cast<std::size_t>(lc)]);
            result.rho[gc] = s.rho[static_cast<std::size_t>(lc)];
            result.ein[gc] = s.ein[static_cast<std::size_t>(lc)];
        }
        for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln) {
            if (!sub.node_owned[ln]) continue;
            const auto gn = static_cast<std::size_t>(sub.local_nodes[ln]);
            result.u[gn] = s.u[ln];
            result.v[gn] = s.v[ln];
            result.x[gn] = s.x[ln];
            result.y[gn] = s.y[ln];
        }
        steps_per_rank[static_cast<std::size_t>(comm.rank())] = steps;
        t_per_rank[static_cast<std::size_t>(comm.rank())] = t;

        // Telemetry gather (tag 501): every rank ships its step records
        // and kernel breakdown to rank 0 — the same every-rank-sends
        // pattern as the checkpoint gather, once, after the field gather,
        // so it cannot perturb the run it measures.
        if (telemetry) {
            obs::RankRecord rec;
            rec.rank = comm.rank();
            rec.epoch_us = std::chrono::duration<double, std::micro>(
                               rank_epoch - telemetry_epoch)
                               .count();
            rec.steps = my_steps.take();
            rec.evicted = my_steps.evicted();
            rec.windows = std::move(my_windows);
            rec.kernels = profiler.snapshot();
            rec.attrib = std::move(attrib);
            comm.send(0, telemetry_tag, obs::pack_rank(rec));
            if (comm.rank() == 0) {
                rank_records.resize(static_cast<std::size_t>(comm.size()));
                for (int r = 0; r < comm.size(); ++r)
                    rank_records[static_cast<std::size_t>(r)] =
                        obs::unpack_rank(comm.recv(r, telemetry_tag));
            }
        }
                }, fault);
        } catch (const typhon::RankFailure& failure) {
            if (!supervised ||
                static_cast<int>(result.recoveries.size()) >=
                    opts.supervise.max_recoveries ||
                ranks_now <= 1)
                throw;
            Result::Recovery rec;
            rec.failed_rank = failure.rank;
            rec.failed_step = failure.step;
            rec.survivors = ranks_now - 1;
            rec.error = failure.what();
            // Roll back to the newest ring snapshot; with an empty ring
            // the run restarts from where this attempt began (the restart
            // snapshot or the initial conditions).
            if (!ring.empty()) {
                rollback = ring.back();
                start_snap = &rollback;
            }
            rec.resumed_step =
                start_snap != nullptr ? start_snap->steps : 0;
            if (live_stream.open()) {
                obs::Json ev;
                ev["event"] = "recovery";
                ev["attempt"] = attempt;
                ev["failed_rank"] = rec.failed_rank;
                ev["failed_step"] = rec.failed_step;
                ev["resumed_step"] = static_cast<long long>(rec.resumed_step);
                ev["survivors"] = rec.survivors;
                live_stream.emit(std::move(ev));
            }
            result.recoveries.push_back(std::move(rec));
            --ranks_now;
            if (opts.supervise.backoff_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(opts.supervise.backoff_ms));
            continue;
        }

        result.steps = steps_per_rank[0];
        result.t_final = t_per_rank[0];
        result.profiles.resize(static_cast<std::size_t>(ranks_now));
        for (int r = 0; r < ranks_now; ++r)
            result.profiles[static_cast<std::size_t>(r)] =
                profilers[static_cast<std::size_t>(r)].snapshot();
        result.windows = std::move(live_windows);

        if (telemetry) {
            obs::RunReport report;
            report.problem = opts.telemetry.label;
            report.label = opts.telemetry.label;
            report.mode = "distributed";
            report.n_ranks = ranks_now;
            report.overlap = opts.overlap;
            report.steps = result.steps;
            report.t_final = result.t_final;
            report.wall_s = run_timer.elapsed();
            for (const auto& rec : result.recoveries) {
                obs::RecoveryEvent e;
                e.failed_rank = rec.failed_rank;
                e.failed_step = rec.failed_step;
                e.resumed_step = static_cast<long>(rec.resumed_step);
                e.survivors = rec.survivors;
                report.recoveries.push_back(e);
            }
            // The executed configuration, so the report reproduces the
            // run without the invoking script. task_block mirrors the
            // per-rank Exec the rank lambdas build (default blocking).
            report.config.schedule =
                opts.schedule == par::Schedule::taskgraph ? "taskgraph"
                                                          : "forkjoin";
            report.config.task_block = par::Exec{}.task_block;
            report.config.grain = par::Exec{}.grain;
            report.config.n_threads = opts.n_threads;
            report.config.n_ranks = ranks_now;
            report.config.overlap = opts.overlap;
            report.work = perfmodel::telemetry_work_model(opts.n_threads);

            // Attach what only the host side holds: the Hub's per-peer
            // send tallies and the trace/critical-path spans (after a
            // recovery the records cover the successful attempt only —
            // its traffic, its traces, its steps from the rollback
            // point). Then shift every per-rank timestamp by that rank's
            // epoch offset so all tracks share rank 0's timeline.
            const double epoch0 =
                rank_records.empty() ? 0.0 : rank_records[0].epoch_us;
            for (auto& rank : rank_records) {
                for (const auto& p : result.traffic.peers)
                    if (p.src == rank.rank)
                        rank.sent.push_back({p.dst, p.messages, p.reals});
                if (!traces.empty()) {
                    rank.trace = std::move(
                        traces[static_cast<std::size_t>(rank.rank)]);
                    rank.critical = std::move(
                        crits[static_cast<std::size_t>(rank.rank)]);
                }
                const double shift = rank.epoch_us - epoch0;
                for (auto& step : rank.steps) step.start_us += shift;
                for (auto& span : rank.trace) span.t0_us += shift;
                for (auto& span : rank.critical) span.t0_us += shift;
                rank.epoch_us = shift;
            }
            report.ranks = std::move(rank_records);
            report.imbalance = obs::imbalance_of(report.ranks);
            report.anomalies = obs::detect_anomalies(
                report, opts.telemetry.anomaly_factor);

            // Wire-format self-check: predict the run's point-to-point
            // message count from the Subdomain metadata. Only meaningful
            // on an undisturbed schedule — faults, recoveries and
            // health-guard retries all legitimately change the count.
            long long total_retries = 0;
            for (const auto& r : report.ranks) {
                total_retries += static_cast<long long>(r.evicted.retries);
                for (const auto& s : r.steps) total_retries += s.retries;
            }
            if (result.recoveries.empty() && opts.faults.empty() &&
                total_retries == 0) {
                const int n_mesh = opts.ale.mode == ale::Mode::ale
                                       ? opts.ale.smoothing_passes + 1
                                       : 0;
                long long expected = 0;
                for (int r = 0; r < ranks_now; ++r) {
                    const auto& rr =
                        report.ranks[static_cast<std::size_t>(r)];
                    const auto& sub_r = subs[static_cast<std::size_t>(r)];
                    // Step and remap counts over ALL steps, including the
                    // ones the max_steps ring evicted into the aggregate.
                    long long remaps =
                        static_cast<long long>(rr.evicted.remaps);
                    for (const auto& s : rr.steps)
                        if (s.remapped) ++remaps;
                    const long long n_steps =
                        static_cast<long long>(rr.evicted.steps) +
                        static_cast<long long>(rr.steps.size());
                    expected += static_cast<long long>(
                                    sub_r.messages_per_step()) *
                                n_steps;
                    expected +=
                        static_cast<long long>(
                            sub_r.messages_per_remap(n_mesh)) *
                        remaps;
                    // Plus the rank's tag-502 live-window sends.
                    expected += static_cast<long long>(rr.windows.size());
                }
                // Plus one send per rank per checkpoint/ring gather, and
                // one per rank for the telemetry gather itself.
                expected += gather_events * ranks_now;
                expected += ranks_now;
                report.wire.checked = true;
                report.wire.expected = expected;
                report.wire.measured = result.traffic.messages;
                report.wire.match = expected == result.traffic.messages;
                if (!report.wire.match)
                    util::log_warn(
                        "telemetry: wire-format drift — measured ",
                        result.traffic.messages,
                        " point-to-point messages, metadata predicts ",
                        expected);
            }
            result.telemetry = std::move(report);
            obs::write_outputs(opts.telemetry, result.telemetry);
        }
        if (live_stream.open()) {
            obs::Json ev;
            ev["event"] = "run_end";
            ev["steps"] = result.steps;
            ev["t_final"] = result.t_final;
            ev["wall_s"] = run_timer.elapsed();
            ev["windows"] = static_cast<long long>(result.windows.size());
            ev["stalls"] = static_cast<long long>(stall_count.load());
            ev["recoveries"] =
                static_cast<long long>(result.recoveries.size());
            live_stream.emit(std::move(ev));
        }
        return result;
    }
}

/// Shared argument checks of both run() entry points.
void check_options(const Options& opts) {
    util::require(opts.n_ranks >= 1, "dist::run: n_ranks must be >= 1");
    util::require(opts.n_threads >= 1, "dist::run: n_threads must be >= 1");
    util::require(opts.ale.mode == ale::Mode::lagrange ||
                      opts.ale.frequency >= 1,
                  "dist::run: ale frequency must be >= 1");
}

} // namespace

Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const std::vector<Real>& rho, const std::vector<Real>& ein,
           const std::vector<Real>& u, const std::vector<Real>& v,
           const Options& opts) {
    check_options(opts);
    util::require(rho.size() == static_cast<std::size_t>(global.n_cells()) &&
                      ein.size() == rho.size(),
                  "dist::run: cell field size mismatch");
    util::require(u.size() == static_cast<std::size_t>(global.n_nodes()) &&
                      v.size() == u.size(),
                  "dist::run: node field size mismatch");
    return run_impl(global, materials, opts, nullptr, &rho, &ein, &u, &v);
}

Result run(const mesh::Mesh& global, const eos::MaterialTable& materials,
           const ckpt::Snapshot& snapshot, const Options& opts) {
    check_options(opts);
    if (snapshot.mesh_hash != ckpt::mesh_hash(global))
        throw util::Error(
            "dist::run: checkpoint/deck mismatch — the snapshot was written "
            "for a different mesh");
    util::require(snapshot.n_nodes() == global.n_nodes() &&
                      snapshot.n_cells() == global.n_cells(),
                  "dist::run: snapshot entity counts disagree with the mesh");
    return run_impl(global, materials, opts, &snapshot, nullptr, nullptr,
                    nullptr, nullptr);
}

bool bitwise_equal(const Result& a, const Result& b) {
    return a.steps == b.steps && a.rho == b.rho && a.ein == b.ein &&
           a.u == b.u && a.v == b.v && a.x == b.x && a.y == b.y;
}

} // namespace bookleaf::dist
