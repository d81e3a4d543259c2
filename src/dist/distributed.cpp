/// \file distributed.cpp
/// Distributed (flat-MPI analogue) driver. Each typhon rank owns a
/// subdomain and steps Algorithm 1 through core::Stepper — the serial
/// driver's loop policy, written once — supplying the rank's Lagrangian
/// step, the collective health vote, the ghost-aware remap and the window
/// and checkpoint traffic that follows a committed step. Ghost data is
/// refreshed with the paper's two halo exchanges per step:
///   1. before GETQ: node positions/velocities + ghost internal energy as
///      one fused wire exchange (the dependent thermodynamic state is
///      rebuilt locally);
///   2. before GETACC: ghost corner forces, so the nodal assembly at every
///      node of an owned cell is complete and exact.
/// The timestep is the global min-reduction of the owned-cell dt. On
/// remap-due steps of ALE/Eulerian decks, remap() below runs the
/// ghost-aware ALE step after the corrector.
///
/// One function, rank_lagstep, implements the step: each exchange and the
/// dt min-reduce are posted nonblocking, the *early* cell/node split runs
/// while the messages fly and the *late* split after the finish.
/// Options::overlap makes the subdomain interior the early split; without
/// it the early split is empty (the paper's blocking order). Both are
/// bitwise identical at every rank count: the kernels are per-item
/// independent, the ghost bytes identical and the reduce rank-order
/// deterministic. Every exchange ships one coalesced message per peer.

#include "dist/distributed.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "core/stepper.hpp"
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

/// Refresh ghost node kinematics and ghost internal energy, then rebuild
/// the ghost dependent state.
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

// ---------------------------------------------------------------------------
// The rank's Lagrangian step
// ---------------------------------------------------------------------------

/// The cells and nodes a rank's step runs while a halo is in flight
/// (early) and after its finish (late); together they cover every local
/// cell and node once. Built once per rank: with overlap the early split
/// is the subdomain's interior and the late split its boundary, without
/// it the early split is empty and the late split is everything.
class StepSplit {
public:
    StepSplit(const part::Subdomain& sub, bool overlap) {
        if (overlap) {
            early_cells = sub.interior_cells;
            early_nodes = sub.interior_nodes;
            late_cells = sub.boundary_cells;
            late_nodes = sub.boundary_nodes;
            return;
        }
        all_cells_.resize(static_cast<std::size_t>(sub.local.n_cells()));
        all_nodes_.resize(static_cast<std::size_t>(sub.local.n_nodes()));
        std::iota(all_cells_.begin(), all_cells_.end(), Index{0});
        std::iota(all_nodes_.begin(), all_nodes_.end(), Index{0});
        late_cells = all_cells_;
        late_nodes = all_nodes_;
    }
    StepSplit(const StepSplit&) = delete;
    StepSplit& operator=(const StepSplit&) = delete;

    std::span<const Index> early_cells, early_nodes;
    std::span<const Index> late_cells, late_nodes;

private:
    std::vector<Index> all_cells_, all_nodes_;
};

/// One rank's Lagrangian step: getdt's reduce + the pre-step ghost
/// refresh + the predictor-corrector, with the mid-step corner-force
/// exchange where the paper's Algorithm 1 places it. The min-reduce of
/// `dt.local()` is posted nonblocking *before* the pre-step state
/// exchange (the exchanged bytes do not depend on dt) and finished only
/// when the predictor is about to consume dt; the state exchange spans
/// the early predictor viscosity/forces and the corner-force exchange
/// spans the early corrector viscosity/force/assembly work. A guard
/// retry runs the same function with the reduce switched off.
/// Note on profiles: each subrange piece charges the profiler separately
/// (two getq calls per sweep, halo split into post and finish scopes,
/// reduce split into post and wait).
void rank_lagstep(const hydro::Context& ctx, hydro::State& s,
                  core::StepDt& dt, typhon::Comm& comm,
                  const part::Subdomain& sub, const StepSplit& split) {
    // --- dt reduce + pre-step state halo, overlapped with the early
    // predictor. The reduce is posted first: the result is the
    // deterministic rank-ordered min, and nothing before the first half_dt
    // use reads dt — so the collective rides for free under the state
    // exchange. Sends pack owned values, so they post immediately;
    // interior cells read no halo node, no ghost state and no snapshot
    // array, so running their predictor viscosity/forces here computes
    // bit-for-bit what they compute after the exchange.
    typhon::CollRequest dt_reduce;
    if (dt.reduce()) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        dt_reduce = comm.iallreduce_min(dt.local());
    }
    typhon::PendingExchange state_halo;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        state_halo = start_state_halo(s, comm, sub);
    }
    hydro::getq(ctx, s, split.early_cells);
    hydro::getforce(ctx, s, split.early_cells);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        state_halo.finish(ctx.profiler);
    }
    rebuild_ghost_state(ctx, s, sub);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::other);
        s.snapshot_step_start();
    }

    // The predictor consumes dt from here on: finish the reduce and let
    // the stepper settle the globally agreed value.
    Real dt_global = dt.local();
    if (dt.reduce()) {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::reduce);
        const util::ScopedTimer wait(*ctx.profiler, util::Kernel::reduce_wait);
        dt_global = dt_reduce.wait();
    }
    const Real step_dt = dt.settle(dt_global);
    const Real half_dt = Real(0.5) * step_dt;

    // --- predictor late finish + whole-range remainder ----------------------
    hydro::getq(ctx, s, split.late_cells);
    hydro::getforce(ctx, s, split.late_cells);
    hydro::getgeom(ctx, s, s.u0, s.v0, half_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.u0, s.v0, half_dt);
    hydro::getpc(ctx, s);

    // --- corrector: corner-force halo behind the early work -----------------
    // Late (boundary) cells first — they contain every corner the peers
    // need — then post the sends; early cells and the early nodal
    // assembly proceed while the messages fly, and only the late assembly
    // waits.
    hydro::getq(ctx, s, split.late_cells);
    hydro::getforce(ctx, s, split.late_cells);
    typhon::PendingExchange corner_halo;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        corner_halo = typhon::exchange_start(comm, sub.corner_schedule,
                                             {s.fx, s.fy}, 200);
    }
    hydro::getq(ctx, s, split.early_cells);
    hydro::getforce(ctx, s, split.early_cells);
    hydro::getacc_assemble(ctx, s, split.early_nodes);
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        corner_halo.finish(ctx.profiler);
    }
    hydro::getacc_assemble(ctx, s, split.late_nodes);
    hydro::getacc_advance(ctx, s, step_dt);
    hydro::getgeom(ctx, s, s.ubar, s.vbar, step_dt);
    hydro::getrho(ctx, s);
    hydro::getein(ctx, s, s.ubar, s.vbar, step_dt);
    hydro::getpc(ctx, s);
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

/// Pack this rank's owned entities for the checkpoint gather: every
/// checkpointed field (ckpt::fields), field-major, each field's owned
/// items in ascending local order — owned nodes by the ownership mask,
/// owned cells and their corners as the owned-first prefix (unpack_owned
/// scatters them back through the subdomain's local -> global maps).
std::vector<Real> pack_owned(const part::Subdomain& sub,
                             const hydro::State& s) {
    std::vector<Real> out;
    out.reserve(5 * static_cast<std::size_t>(sub.n_owned_nodes()) +
                (4 + corners_per_cell) *
                    static_cast<std::size_t>(sub.n_owned_cells));
    for (const auto& f : ckpt::fields) {
        const auto& field = s.*f.state;
        if (f.kind == ckpt::Kind::node) {
            for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
                if (sub.node_owned[ln]) out.push_back(field[ln]);
            continue;
        }
        const auto owned = static_cast<std::ptrdiff_t>(
            ckpt::per_cell(f.kind) *
            static_cast<std::size_t>(sub.n_owned_cells));
        out.insert(out.end(), field.begin(), field.begin() + owned);
    }
    return out;
}

/// Scatter one rank's packed owned slice into the global snapshot arrays
/// (the exact inverse of pack_owned).
void unpack_owned(const part::Subdomain& sub, std::span<const Real> payload,
                  ckpt::Snapshot& snap) {
    std::size_t pos = 0;
    for (const auto& f : ckpt::fields) {
        auto& field = snap.*f.member;
        if (f.kind == ckpt::Kind::node) {
            for (std::size_t ln = 0; ln < sub.local_nodes.size(); ++ln)
                if (sub.node_owned[ln])
                    field[static_cast<std::size_t>(sub.local_nodes[ln])] =
                        payload[pos++];
            continue;
        }
        const std::size_t per = ckpt::per_cell(f.kind);
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
            const auto gc = static_cast<std::size_t>(
                sub.local_cells[static_cast<std::size_t>(lc)]);
            for (std::size_t k = 0; k < per; ++k)
                field[gc * per + k] = payload[pos++];
        }
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
    const part::Subdomain& sub, const core::Clock& clock,
    util::Profiler& profiler) {
    const util::ScopedTimer timer(profiler, util::Kernel::other);
    comm.send(0, ckpt_tag, pack_owned(sub, s));
    if (comm.rank() != 0) return std::nullopt;

    ckpt::Snapshot snap;
    snap.mesh_hash = mesh_hash;
    snap.steps = clock.steps;
    snap.t = clock.t;
    snap.dt = clock.dt_prev;
    snap.regrow = clock.regrow;
    for (const auto& f : ckpt::fields)
        (snap.*f.member)
            .resize(f.kind == ckpt::Kind::node
                        ? static_cast<std::size_t>(global.n_nodes())
                        : static_cast<std::size_t>(global.n_cells()) *
                              ckpt::per_cell(f.kind));
    for (int r = 0; r < comm.size(); ++r) {
        const auto payload = comm.recv(r, ckpt_tag);
        unpack_owned(subs[static_cast<std::size_t>(r)], payload, snap);
    }
    return snap;
}

/// Copy a global field into a rank's local (owned and ghost) slots:
/// `per` items per entity, local entity i taking global entity
/// `to_global[i]`.
void scatter(const std::vector<Real>& global, hydro::Field& local,
             const std::vector<Index>& to_global, std::size_t per = 1) {
    for (std::size_t i = 0; i < to_global.size(); ++i)
        for (std::size_t k = 0; k < per; ++k)
            local[i * per + k] =
                global[static_cast<std::size_t>(to_global[i]) * per + k];
}

/// Restore one rank's subdomain state from the global snapshot: owned and
/// ghost entities alike take the global (bitwise-serial) values — exactly
/// the bytes a pre-step ghost refresh would land — then the derived state
/// is rebuilt with the same per-cell sequence the serial restore uses.
void restore_rank_state(const part::Subdomain& sub,
                        const eos::MaterialTable& materials,
                        const ckpt::Snapshot& snap, hydro::State& s) {
    for (const auto& f : ckpt::fields) {
        if (f.kind == ckpt::Kind::node)
            scatter(snap.*f.member, s.*f.state, sub.local_nodes);
        else
            scatter(snap.*f.member, s.*f.state, sub.local_cells,
                    ckpt::per_cell(f.kind));
    }
    ckpt::rebuild_derived(sub.local, materials, s);
    s.snapshot_step_start();
}

/// Remap phase 4 as a task graph (per-rank pool + taskgraph schedule): the
/// finish of the posted ghost-gradient exchange `grads` becomes a
/// main-thread graph node, so *interior* face fluxes — both sides owned,
/// gradients locally exact — compute while the exchange is in flight, and
/// only the *frontier* face blocks (those reading a ghost gradient) are
/// released by the finish. Cell and dual sweeps join per-block as soon as
/// their own four faces' flux blocks are done. Bitwise identical to the
/// fork-join sequence: the interior/frontier split only reorders
/// per-face-independent work, the prelude zero-fill is the same bytes the
/// fork-join overloads assign, and every task writes disjoint slots.
void remap_flux_graph(const hydro::Context& ctx, hydro::State& s,
                      const ale::Options& ale, ale::Workspace& w,
                      const part::Subdomain& sub,
                      typhon::PendingExchange& grads) {
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

    // Prelude: the exact zero state the fork-join overloads assign (ghost
    // dflux slots the result exchange does not cover must read zero, as
    // they do on the fork-join schedule).
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::aleadvect);
        w.mflux.assign(mesh.faces.size(), 0.0);
        w.eflux.assign(mesh.faces.size(), 0.0);
        w.dflux.assign(
            static_cast<std::size_t>(mesh.n_cells()) * corners_per_cell, 0.0);
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
    typhon::PendingExchange grads;
    {
        const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
        const util::ScopedTimer pack(*ctx.profiler, util::Kernel::halo_pack);
        grads = typhon::exchange_start(comm, sub.remap_cell_schedule,
                                       {w.grad_rho_x, w.grad_rho_y,
                                        w.grad_e_x, w.grad_e_y},
                                       320);
    }

    if (ctx.exec.threaded() &&
        ctx.exec.schedule == par::Schedule::taskgraph) {
        // 4. (graph) The exchange finish releases only the ghost-touching
        // face blocks; interior fluxes and per-block cell/dual sweeps
        // overlap the in-flight messages. Bitwise == the fork-join branch.
        remap_flux_graph(ctx, s, ale, w, sub, grads);
    } else {
        {
            const util::ScopedTimer timer(*ctx.profiler, util::Kernel::halo);
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

// ---------------------------------------------------------------------------
// The driver: supervisor, rank body and report assembly
// ---------------------------------------------------------------------------

/// Run-wide state: the inputs, the result under construction, the
/// rollback ring and the live stream, shared by the supervisor, every
/// attempt's rank bodies and the report assembly. A fresh run sets the
/// four initial-condition fields, a restart `start_snap`.
struct Run {
    const mesh::Mesh& global;
    const eos::MaterialTable& materials;
    const Options& opts;
    /// Where the current attempt starts: the restart snapshot, a rollback
    /// snapshot after a recovery, or null for the initial conditions.
    const ckpt::Snapshot* start_snap = nullptr;
    const std::vector<Real>*rho_ic = nullptr, *ein_ic = nullptr,
                           *u_ic = nullptr, *v_ic = nullptr;
    const bool supervised = opts.supervise.enabled;
    const bool telemetry = opts.telemetry.active();
    const bool live = opts.telemetry.live_active();
    /// The NDJSON stream spans every attempt — the crash trail must
    /// include failed ones — and is appended to by the rank-0 driver
    /// thread and the watchdog supervisor thread (LiveStream locks
    /// internally). stall_count is bumped on the supervisor thread and
    /// read after the joins.
    obs::LiveStream live_stream{telemetry ? opts.telemetry.live
                                          : std::string{}};
    std::atomic<long> stall_count{0};
    /// One epoch for the whole run: recovery attempts land on the same
    /// trace timeline, and the run wall clock spans every attempt.
    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    const util::Timer timer{};
    /// The writer rank needs the global mesh identity; hash it once here
    /// rather than per checkpoint/ring snapshot.
    const std::uint64_t global_hash =
        (opts.checkpoint.enabled() || supervised) ? ckpt::mesh_hash(global)
                                                  : 0;
    Result result{};
    /// Rollback ring: the newest supervised snapshots, oldest evicted.
    /// Only the rank-0 thread touches it inside typhon::run; the
    /// supervisor reads it after the join (thread-join ordering, no lock).
    std::deque<ckpt::Snapshot> ring{};
};

/// One attempt: the decomposition over the ranks alive now and the
/// per-rank sinks the rank threads fill. Rank threads write disjoint
/// slots; rank_records, gather_events, live_windows and the assembler
/// are touched by the rank-0 thread only and read after the join
/// (thread-join ordering, no lock).
struct Attempt {
    Attempt(const Run& run, int attempt, int ranks)
        : index(attempt), n_ranks(ranks),
          subs(part::decompose(run.global,
                               run.opts.partitioner
                                   ? run.opts.partitioner(run.global, ranks)
                                   : part::rcb(run.global, ranks),
                               ranks)) {
        const auto& tel = run.opts.telemetry;
        // Trace and critical-path span vectors are host-allocated; each
        // rank thread attaches its own slot and stamps spans against its
        // OWN epoch — the per-rank epoch offsets travel with the tag-501
        // gather and the report aligns everything onto rank 0's timeline.
        if (run.telemetry && tel.want_trace()) {
            traces.resize(static_cast<std::size_t>(ranks));
            crits.resize(static_cast<std::size_t>(ranks));
        }
        // The watchdog is shared: rank threads bump its step epochs
        // (relaxed atomics), the rank-0 thread stamps window arrivals, and
        // the supervisor thread runs check().
        if (run.live) {
            assembler.emplace(ranks);
            if (tel.watchdog_factor > 0.0 && ranks > 1)
                watchdog.emplace(ranks, tel.watchdog_factor,
                                 static_cast<double>(tel.watchdog_grace_ms),
                                 tel.watchdog_escalate);
        }
    }

    int index;
    int n_ranks;
    std::vector<part::Subdomain> subs;
    std::vector<std::vector<util::TraceEvent>> traces;
    std::vector<std::vector<obs::CritSpan>> crits;
    std::vector<obs::RankRecord> rank_records;
    long long gather_events = 0;
    std::vector<obs::LiveWindow> live_windows;
    std::optional<obs::LiveAssembler> assembler;
    std::optional<obs::Watchdog> watchdog;
};

/// What a rank plugs into core::Stepper: its overlapped Lagrangian step,
/// the collective health vote, the ghost-aware remap and — after each
/// committed step — the live-window send plus the collective
/// checkpoint/ring gather.
class RankHooks final : public core::StepHooks {
public:
    RankHooks(Run& run, Attempt& at, typhon::Comm& comm,
              const hydro::Context& ctx, hydro::State& s,
              const part::Subdomain& sub, const core::Stepper& stepper)
        : run_(run), at_(at), comm_(comm), ctx_(ctx), s_(s), sub_(sub),
          stepper_(stepper), split_(sub, run.opts.overlap) {}

    /// A `[checkpoint] halt_after` checkpoint was written: stop stepping.
    [[nodiscard]] bool halted() const { return halted_; }

    void lagstep(core::StepDt& dt) override {
        rank_lagstep(ctx_, s_, dt, comm_, sub_, split_);
    }

    Real reduce_min(Real value) override {
        const util::ScopedTimer timer(*ctx_.profiler, util::Kernel::reduce);
        const util::ScopedTimer wait(*ctx_.profiler,
                                     util::Kernel::reduce_wait);
        return comm_.allreduce_min(value);
    }

    void remap() override {
        dist::remap(ctx_, s_, run_.opts.ale, ale_work_, comm_, sub_);
    }

    void committed(const core::StepInfo& info,
                   const obs::WindowRecord* window) override {
        // Every rank streams its closed windows to rank 0 (rank 0 sends
        // to itself through the same channel — one discipline).
        if (window != nullptr)
            comm_.send(0, live_tag, obs::pack_window(*window));
        // Snapshot cadences: every rank evaluates the same triggers (t and
        // steps are globally identical), so the gather below is
        // collective. Both cadences only ever fire after completed
        // natural steps — a checkpointing/supervised run is bitwise the
        // run without either. One gather feeds the on-disk checkpoint,
        // the supervisor's rollback ring and an optional ring spill.
        const auto& opts = run_.opts;
        const bool disk_due = opts.checkpoint.enabled() &&
                              opts.checkpoint.due(info.step, info.t_start,
                                                  info.t);
        const bool ring_due = run_.supervised &&
                              opts.supervise.snapshot_every > 0 &&
                              info.step % opts.supervise.snapshot_every == 0;
        if (!disk_due && !ring_due) return;
        if (comm_.rank() == 0) ++at_.gather_events;
        auto gathered = gather_snapshot(comm_, at_.subs, run_.global,
                                        run_.global_hash, s_, sub_,
                                        stepper_.clock(), *ctx_.profiler);
        if (gathered.has_value()) { // rank 0 only
            if (disk_due) {
                const auto path = opts.checkpoint.path_for(info.step);
                ckpt::write(path, *gathered);
                // A recovery replays steps, so a path may come up twice;
                // the rewrite is byte-identical (bitwise contract) —
                // record it once.
                auto& paths = run_.result.checkpoints;
                if (std::find(paths.begin(), paths.end(), path) ==
                    paths.end())
                    paths.push_back(path);
            }
            if (run_.supervised) {
                if (!opts.supervise.spill_prefix.empty())
                    ckpt::write(opts.supervise.spill_prefix + "_" +
                                    std::to_string(info.step) + ".ckpt",
                                *gathered);
                run_.ring.push_back(std::move(*gathered));
                if (static_cast<int>(run_.ring.size()) >
                    std::max(1, opts.supervise.ring_capacity))
                    run_.ring.pop_front();
            }
        }
        if (disk_due && opts.checkpoint.halt_after) halted_ = true;
    }

private:
    Run& run_;
    Attempt& at_;
    typhon::Comm& comm_;
    const hydro::Context& ctx_;
    hydro::State& s_;
    const part::Subdomain& sub_;
    const core::Stepper& stepper_;
    const StepSplit split_;
    ale::Workspace ale_work_;
    bool halted_ = false;
};

/// One rank's run: build its state from the attempt's start, step it to
/// t_end through core::Stepper, then gather its owned fields into the
/// result and (telemetry) its records to rank 0.
void run_rank(Run& run, Attempt& at, typhon::Comm& comm) {
    const auto& opts = run.opts;
    const auto rank = static_cast<std::size_t>(comm.rank());
    const auto& sub = at.subs[rank];
    util::Profiler profiler;

    // Per-rank run epoch: rank threads start (and stamp their clocks) at
    // slightly different instants, so every sink this rank writes — trace
    // spans, step start times, graph-run spans — is measured against its
    // own origin, and the offset to the shared run epoch ships with the
    // tag-501 gather so rank 0 can align all records onto its own
    // timeline (what a real MPI run must do, since node clocks share no
    // origin).
    const auto rank_epoch =
        run.telemetry ? std::chrono::steady_clock::now() : run.epoch;
    if (!at.traces.empty()) {
        profiler.set_trace(&at.traces[rank], rank_epoch);
        // The report shifts every trace onto rank 0's epoch, so no rank may
        // record a span before rank 0 has stamped it: a thread started
        // late would otherwise give its peers' first spans negative
        // timestamps. A collective is not point-to-point traffic.
        comm.barrier();
    }

    // Per-rank worker pool (the hybrid MPI+OpenMP analogue). Built before
    // the state so the first-touch allocation places pages in the same
    // blocks the threaded kernels sweep.
    std::unique_ptr<par::ThreadPool> pool;
    par::Exec exec;
    exec.schedule = opts.schedule;
    if (opts.n_threads > 1) {
        pool = std::make_unique<par::ThreadPool>(opts.n_threads);
        exec.pool = pool.get();
    }

    const ckpt::Snapshot* start = run.start_snap;
    hydro::State s = hydro::allocate(sub.local, exec);
    if (start != nullptr) {
        restore_rank_state(sub, run.materials, *start, s);
    } else {
        scatter(*run.rho_ic, s.rho, sub.local_cells);
        scatter(*run.ein_ic, s.ein, sub.local_cells);
        scatter(*run.u_ic, s.u, sub.local_nodes);
        scatter(*run.v_ic, s.v, sub.local_nodes);
        hydro::initialise(sub.local, run.materials, s);
    }

    hydro::Context ctx;
    ctx.mesh = &sub.local;
    ctx.materials = &run.materials;
    ctx.opts = opts.hydro;
    ctx.exec = exec;
    ctx.profiler = &profiler;
    ctx.dt_cells = sub.n_owned_cells; // dt over owned cells only
    // Corner gathers and the ALE smoothing average in serial order
    // (bitwise == serial).
    ctx.assembly_corners = &sub.assembly_corners;
    ctx.smoothing_neighbours = &sub.smoothing_neighbours;

    // Clock: fresh runs start at zero; restarts continue the snapshot's
    // clock (so the remap cadence, the `steps > 0` getdt gate and
    // max_steps all behave as in the serial restore).
    core::Stepper stepper(start != nullptr
                              ? core::Clock::of(*start)
                              : core::Clock{.dt_prev = opts.hydro.dt_initial},
                          opts.ale, sub.n_owned_cells, sub.node_owned);
    // Task-graph attribution (telemetry only): the remap flux graph logs
    // its task spans, the stepper drains them into each step record.
    // Telemetry-off runs keep a null log — graph.run's zero-cost path.
    if (run.telemetry)
        ctx.graph_log =
            stepper.record(opts.telemetry, rank_epoch, comm.rank(), &profiler);
    RankHooks hooks(run, at, comm, ctx, s, sub, stepper);

    // Live monitoring, rank 0: one posted irecv per peer on tag 502,
    // drained opportunistically at the top of every step, and the
    // watchdog supervisor thread.
    std::vector<typhon::Request> live_pending;
    std::vector<long> live_received;
    const auto harvest_window = [&](const std::vector<Real>& payload,
                                    int src) {
        auto w = obs::unpack_window(payload);
        ++live_received[static_cast<std::size_t>(src)];
        if (at.watchdog) at.watchdog->note_window(w.rank);
        obs::Json ev;
        ev["event"] = "window";
        ev["attempt"] = at.index;
        ev["record"] = obs::window_json(w);
        run.live_stream.emit(std::move(ev));
        for (auto& lw : at.assembler->add(std::move(w))) {
            obs::Json iev;
            iev["event"] = "imbalance";
            iev["attempt"] = at.index;
            iev["window"] = static_cast<long long>(lw.index);
            iev["max_over_mean"] = lw.imbalance.max_over_mean;
            iev["mean_rank_s"] = lw.imbalance.mean_rank_s;
            iev["max_rank_s"] = lw.imbalance.max_rank_s;
            iev["slowest_rank"] = lw.imbalance.slowest_rank;
            run.live_stream.emit(std::move(iev));
            if (opts.on_window) opts.on_window(lw);
            at.live_windows.push_back(std::move(lw));
        }
    };
    // Nonblocking drain: harvest whatever has arrived, repost. A posted
    // irecv is a local handle (test() polls the transport), so a request
    // left pending at run end strands nothing.
    const auto drain_live = [&] {
        for (int r = 0; r < comm.size(); ++r) {
            auto& req = live_pending[static_cast<std::size_t>(r)];
            while (req.test()) {
                harvest_window(req.data(), r);
                req = comm.irecv(r, live_tag);
            }
        }
    };
    const bool live_host = run.live && comm.rank() == 0;
    std::optional<obs::WatchdogSession> watch_session;
    if (live_host) {
        live_pending.resize(static_cast<std::size_t>(comm.size()));
        live_received.assign(static_cast<std::size_t>(comm.size()), 0);
        for (int r = 0; r < comm.size(); ++r)
            live_pending[static_cast<std::size_t>(r)] =
                comm.irecv(r, live_tag);
        if (at.watchdog) {
            auto& watchdog = *at.watchdog;
            const double poll_ms = std::max(
                static_cast<double>(opts.telemetry.watchdog_grace_ms) / 8.0,
                1.0);
            watch_session.emplace(watchdog, poll_ms,
                                  [&](const obs::Watchdog::Stall& st) {
                ++run.stall_count;
                obs::Json ev;
                ev["event"] = "stall";
                ev["attempt"] = at.index;
                ev["rank"] = st.rank;
                ev["last_step"] = static_cast<long long>(st.last_step);
                ev["windows"] = static_cast<long long>(st.windows);
                ev["silent_ms"] = st.silent_ms;
                ev["threshold_ms"] = st.threshold_ms;
                ev["escalated"] = st.escalated;
                // The hang diagnostic: every rank's last completed step
                // plus the transport channels still holding undelivered
                // (pending or fault-held) messages.
                obs::Json last = obs::Json::array();
                for (int r = 0; r < watchdog.n_ranks(); ++r)
                    last.push_back(
                        static_cast<long long>(watchdog.last_step(r)));
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
                run.live_stream.emit(std::move(ev));
                util::log_warn("watchdog: rank ", st.rank, " silent for ",
                               st.silent_ms, " ms (threshold ",
                               st.threshold_ms, " ms), last step ",
                               st.last_step,
                               st.escalated ? " - escalating" : "");
            });
        }
    }

    while (stepper.running(opts.t_end, opts.max_steps) && !hooks.halted()) {
        const int steps = stepper.clock().steps;
        // Record the step for failure reports and tick the fault plan's
        // kill-at-step trigger.
        comm.set_step(steps);
        // Watchdog progress tick (one relaxed store + one relaxed load)
        // and, on rank 0, the opportunistic tag-502 drain. A poisoned
        // rank — flagged as stalled with escalation enabled — turns its
        // silent hang into an ordinary recoverable failure.
        if (at.watchdog && at.watchdog->note_step(comm.rank(), steps))
            throw obs::StallEscalated(comm.rank());
        if (live_host) drain_live();
        stepper.step(ctx, s, hooks, opts.t_end);
    }

    // Step loop done: stop the stall supervisor (no more progress ticks
    // are coming, so anything it would flag now is a false positive),
    // then drain the tag-502 stream dry. Lockstep stepping means every
    // rank produced exactly this rank's window count; the blocking wait()
    // promotes fault-held messages, so a delay plan cannot strand the
    // channel past Hub::drained().
    if (live_host) {
        watch_session.reset();
        const auto expect = static_cast<long>(stepper.windows().size());
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
    auto& result = run.result;
    for (Index lc = 0; lc < sub.n_owned_cells; ++lc) {
        const auto gc = static_cast<std::size_t>(
            sub.local_cells[static_cast<std::size_t>(lc)]);
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
    result.profiles[rank] = profiler.snapshot();
    if (comm.rank() == 0) {
        result.steps = stepper.clock().steps;
        result.t_final = stepper.clock().t;
    }

    // Telemetry gather (tag 501): every rank ships its step records and
    // kernel breakdown to rank 0 — the same every-rank-sends pattern as
    // the checkpoint gather, once, after the field gather, so it cannot
    // perturb the run it measures. Critical-path spans stay host-side.
    if (run.telemetry) {
        obs::RankRecord rec;
        rec.rank = comm.rank();
        rec.epoch_us = std::chrono::duration<double, std::micro>(rank_epoch -
                                                                 run.epoch)
                           .count();
        stepper.fill(rec);
        rec.kernels = profiler.snapshot();
        if (!at.crits.empty()) at.crits[rank] = std::move(rec.critical);
        comm.send(0, telemetry_tag, obs::pack_rank(rec));
        if (comm.rank() == 0) {
            at.rank_records.resize(static_cast<std::size_t>(comm.size()));
            for (int r = 0; r < comm.size(); ++r)
                at.rank_records[static_cast<std::size_t>(r)] =
                    obs::unpack_rank(comm.recv(r, telemetry_tag));
        }
    }
}

/// The telemetry run report of the successful attempt: the gathered rank
/// records, the executed configuration, the Hub traffic and the
/// wire-format self-check.
obs::RunReport assemble_report(const Run& run, Attempt& at) {
    const auto& opts = run.opts;
    const auto& result = run.result;
    obs::RunReport report;
    report.problem = opts.telemetry.label;
    report.label = opts.telemetry.label;
    report.mode = "distributed";
    report.n_ranks = at.n_ranks;
    report.overlap = opts.overlap;
    report.steps = result.steps;
    report.t_final = result.t_final;
    report.wall_s = run.timer.elapsed();
    for (const auto& rec : result.recoveries) {
        obs::RecoveryEvent e;
        e.failed_rank = rec.failed_rank;
        e.failed_step = rec.failed_step;
        e.resumed_step = static_cast<long>(rec.resumed_step);
        e.survivors = rec.survivors;
        report.recoveries.push_back(e);
    }
    // The executed configuration, so the report reproduces the run
    // without the invoking script. task_block mirrors the per-rank Exec
    // the rank bodies build (default blocking).
    report.config.schedule = opts.schedule == par::Schedule::taskgraph
                                 ? "taskgraph"
                                 : "forkjoin";
    report.config.task_block = par::Exec{}.task_block;
    report.config.grain = par::Exec{}.grain;
    report.config.n_threads = opts.n_threads;
    report.config.n_ranks = at.n_ranks;
    report.config.overlap = opts.overlap;
    report.work = perfmodel::telemetry_work_model(opts.n_threads);

    // Attach what only the host side holds: the Hub's per-peer send
    // tallies and the trace/critical-path spans (after a recovery the
    // records cover the successful attempt only — its traffic, its
    // traces, its steps from the rollback point). Then shift every
    // per-rank timestamp by that rank's epoch offset so all tracks share
    // rank 0's timeline.
    const double epoch0 =
        at.rank_records.empty() ? 0.0 : at.rank_records[0].epoch_us;
    for (auto& rank : at.rank_records) {
        for (const auto& p : result.traffic.peers)
            if (p.src == rank.rank)
                rank.sent.push_back({p.dst, p.messages, p.reals});
        if (!at.traces.empty()) {
            rank.trace =
                std::move(at.traces[static_cast<std::size_t>(rank.rank)]);
            rank.critical =
                std::move(at.crits[static_cast<std::size_t>(rank.rank)]);
        }
        const double shift = rank.epoch_us - epoch0;
        for (auto& step : rank.steps) step.start_us += shift;
        for (auto& span : rank.trace) span.t0_us += shift;
        for (auto& span : rank.critical) span.t0_us += shift;
        rank.epoch_us = shift;
    }
    report.ranks = std::move(at.rank_records);
    report.imbalance = obs::imbalance_of(report.ranks);
    report.anomalies =
        obs::detect_anomalies(report, opts.telemetry.anomaly_factor);

    // Wire-format self-check: predict the run's point-to-point message
    // count from the Subdomain metadata. Only meaningful on an undisturbed
    // schedule — faults, recoveries and health-guard retries all
    // legitimately change the count.
    long long total_retries = 0;
    for (const auto& r : report.ranks) {
        total_retries += static_cast<long long>(r.evicted.retries);
        for (const auto& s : r.steps) total_retries += s.retries;
    }
    if (!result.recoveries.empty() || !opts.faults.empty() ||
        total_retries != 0)
        return report;
    const int n_mesh =
        opts.ale.mode == ale::Mode::ale ? opts.ale.smoothing_passes + 1 : 0;
    long long expected = 0;
    for (int r = 0; r < at.n_ranks; ++r) {
        const auto& rr = report.ranks[static_cast<std::size_t>(r)];
        const auto& sub = at.subs[static_cast<std::size_t>(r)];
        // Step and remap counts over ALL steps, including the ones the
        // max_steps ring evicted into the aggregate.
        auto remaps = static_cast<long long>(rr.evicted.remaps);
        for (const auto& s : rr.steps)
            if (s.remapped) ++remaps;
        const long long n_steps = static_cast<long long>(rr.evicted.steps) +
                                  static_cast<long long>(rr.steps.size());
        expected +=
            static_cast<long long>(sub.messages_per_step()) * n_steps;
        expected +=
            static_cast<long long>(sub.messages_per_remap(n_mesh)) * remaps;
        // Plus the rank's tag-502 live-window sends.
        expected += static_cast<long long>(rr.windows.size());
    }
    // Plus one send per rank per checkpoint/ring gather, and one per rank
    // for the telemetry gather itself.
    expected += at.gather_events * at.n_ranks;
    expected += at.n_ranks;
    report.wire.checked = true;
    report.wire.expected = expected;
    report.wire.measured = result.traffic.messages;
    report.wire.match = expected == result.traffic.messages;
    if (!report.wire.match)
        util::log_warn("telemetry: wire-format drift — measured ",
                       result.traffic.messages,
                       " point-to-point messages, metadata predicts ",
                       expected);
    return report;
}

/// The supervisor. Supervised mode (opts.supervise) wraps the whole run
/// in an attempt loop: a typhon::RankFailure — an injected kill or any
/// real rank error — rolls the run back to the newest ring snapshot (or
/// the restart snapshot, or the initial conditions), drops the failed
/// rank, and re-runs partition/decompose/typhon::run on the survivors.
/// Because snapshots are rank-count invariant and the owned-entity
/// contract is bitwise at any rank count, the recovered result is
/// bitwise identical to an uninterrupted run. Failed attempts leave no
/// residue: every global entity is owned by some rank at every rank
/// count, so the successful attempt's gather overwrites the result
/// arrays completely, and thread-join ordering makes the cross-attempt
/// reuse race-free.
Result supervise(Run& run) {
    const auto& opts = run.opts;
    if (run.live_stream.open()) {
        obs::Json ev;
        ev["event"] = "run_start";
        ev["schema"] = "bookleaf.live/1";
        ev["label"] = opts.telemetry.label;
        ev["n_ranks"] = opts.n_ranks;
        ev["window_steps"] =
            static_cast<long long>(opts.telemetry.window_steps);
        ev["watchdog_factor"] = opts.telemetry.watchdog_factor;
        run.live_stream.emit(std::move(ev));
    }

    auto& result = run.result;
    result.rho.resize(static_cast<std::size_t>(run.global.n_cells()));
    result.ein.resize(result.rho.size());
    result.u.resize(static_cast<std::size_t>(run.global.n_nodes()));
    result.v.resize(result.u.size());
    result.x.resize(result.u.size());
    result.y.resize(result.u.size());
    int ranks_now = opts.n_ranks;
    ckpt::Snapshot rollback; // owns the ring snapshot a recovery resumes from
    for (int attempt = 0;; ++attempt) {
        Attempt at(run, attempt, ranks_now);
        // The fault plan is scripted per attempt: a kill recorded for
        // attempt 0 stays quiet during recovery re-runs. An empty plan
        // never touches the transport hot path (nullptr injector).
        typhon::FaultInjector injector(opts.faults, ranks_now, attempt);
        typhon::FaultInjector* fault =
            opts.faults.empty() ? nullptr : &injector;

        result.profiles.assign(static_cast<std::size_t>(ranks_now), {});
        try {
            result.traffic = typhon::run(
                ranks_now,
                [&](typhon::Comm& comm) { run_rank(run, at, comm); }, fault);
        } catch (const typhon::RankFailure& failure) {
            if (!run.supervised ||
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
            if (!run.ring.empty()) {
                rollback = run.ring.back();
                run.start_snap = &rollback;
            }
            rec.resumed_step =
                run.start_snap != nullptr ? run.start_snap->steps : 0;
            if (run.live_stream.open()) {
                obs::Json ev;
                ev["event"] = "recovery";
                ev["attempt"] = attempt;
                ev["failed_rank"] = rec.failed_rank;
                ev["failed_step"] = rec.failed_step;
                ev["resumed_step"] = static_cast<long long>(rec.resumed_step);
                ev["survivors"] = rec.survivors;
                run.live_stream.emit(std::move(ev));
            }
            result.recoveries.push_back(std::move(rec));
            --ranks_now;
            if (opts.supervise.backoff_ms > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(opts.supervise.backoff_ms));
            continue;
        }

        result.windows = std::move(at.live_windows);
        if (run.telemetry) {
            result.telemetry = assemble_report(run, at);
            obs::write_outputs(opts.telemetry, result.telemetry);
        }
        if (run.live_stream.open()) {
            obs::Json ev;
            ev["event"] = "run_end";
            ev["steps"] = result.steps;
            ev["t_final"] = result.t_final;
            ev["wall_s"] = run.timer.elapsed();
            ev["windows"] = static_cast<long long>(result.windows.size());
            ev["stalls"] = static_cast<long long>(run.stall_count.load());
            ev["recoveries"] =
                static_cast<long long>(result.recoveries.size());
            run.live_stream.emit(std::move(ev));
        }
        return std::move(result);
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
    Run state{.global = global,
              .materials = materials,
              .opts = opts,
              .rho_ic = &rho,
              .ein_ic = &ein,
              .u_ic = &u,
              .v_ic = &v};
    return supervise(state);
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
    Run state{.global = global,
              .materials = materials,
              .opts = opts,
              .start_snap = &snapshot};
    return supervise(state);
}

bool bitwise_equal(const Result& a, const Result& b) {
    return a.steps == b.steps && a.rho == b.rho && a.ein == b.ein &&
           a.u == b.u && a.v == b.v && a.x == b.x && a.y == b.y;
}

} // namespace bookleaf::dist
