#include "part/subdomain.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace bookleaf::part {

Index Subdomain::n_sending_peers(const typhon::ExchangeSchedule& schedule) {
    Index n = 0;
    for (const auto& peer : schedule.peers)
        if (!peer.send_items.empty()) ++n;
    return n;
}

namespace {

/// Sending peers of a fused two-schedule exchange: the union of the two
/// sending peer sets (one coalesced message per union peer).
Index n_union_sending_peers(const typhon::ExchangeSchedule& a,
                            const typhon::ExchangeSchedule& b) {
    std::vector<int> ranks;
    for (const auto* schedule : {&a, &b})
        for (const auto& peer : schedule->peers)
            if (!peer.send_items.empty() &&
                std::find(ranks.begin(), ranks.end(), peer.rank) == ranks.end())
                ranks.push_back(peer.rank);
    return static_cast<Index>(ranks.size());
}

/// Sort every row of `csr` in place by `less`.
template <class Less>
void sort_rows(util::Csr& csr, Less&& less) {
    for (Index row = 0; row < csr.n_rows(); ++row)
        std::sort(csr.items.begin() + csr.offsets[static_cast<std::size_t>(row)],
                  csr.items.begin() +
                      csr.offsets[static_cast<std::size_t>(row) + 1],
                  less);
}

} // namespace

Index Subdomain::n_state_peers() const {
    return n_union_sending_peers(node_schedule, cell_schedule);
}

Index Subdomain::n_owned_nodes() const {
    Index n = 0;
    for (const auto owned : node_owned) n += owned;
    return n;
}

Index Subdomain::messages_per_step() const {
    return n_state_peers() + n_sending_peers(corner_schedule);
}

Index Subdomain::messages_per_remap(int n_mesh_exchanges) const {
    // Pre-remap fused state refresh + per-sync target-mesh halo +
    // gradient halo + fused {cell results, dual-mesh results}.
    return n_state_peers() +
           n_mesh_exchanges * n_sending_peers(node_schedule) +
           n_sending_peers(remap_cell_schedule) +
           n_union_sending_peers(cell_schedule, remap_dual_schedule);
}

std::vector<Subdomain> decompose(const mesh::Mesh& global,
                                 const std::vector<Index>& part, int n_parts) {
    const Index n_cells = global.n_cells();
    const Index n_nodes = global.n_nodes();
    util::require(part.size() == static_cast<std::size_t>(n_cells),
                  "decompose: partition size mismatch");

    // Node owners: min part over incident cells.
    std::vector<Index> node_owner(static_cast<std::size_t>(n_nodes),
                                  std::numeric_limits<Index>::max());
    for (Index n = 0; n < n_nodes; ++n)
        for (const Index c : global.node_cells.row(n))
            node_owner[static_cast<std::size_t>(n)] =
                std::min(node_owner[static_cast<std::size_t>(n)],
                         part[static_cast<std::size_t>(c)]);

    std::vector<Subdomain> subs(static_cast<std::size_t>(n_parts));

    // The send sides of the exchange schedules: global cell -> local id on
    // its owning rank, global node -> local id on its owning rank.
    std::vector<Index> owner_local(static_cast<std::size_t>(n_cells));
    std::vector<Index> owner_node_local(static_cast<std::size_t>(n_nodes));

    // Flat scratch shared by all ranks: cell_mark[c] is the last rank that
    // listed c as a local cell; node_g2l is the global -> local node map of
    // the rank being built, reset to no_index after each rank.
    std::vector<int> cell_mark(static_cast<std::size_t>(n_cells), -1);
    std::vector<Index> node_g2l(static_cast<std::size_t>(n_nodes), no_index);

    for (int r = 0; r < n_parts; ++r) {
        auto& sub = subs[static_cast<std::size_t>(r)];
        sub.rank = r;

        // Owned cells in breadth-first order over face neighbours inside
        // the part, each component seeded at its lowest unvisited global
        // id, a cell's neighbours visited in local-face order. The order
        // depends only on the partition and the topology, so a
        // re-decompose reproduces it exactly — and neighbouring cells get
        // nearby local ids however the input mesh is numbered.
        auto& cells = sub.local_cells;
        for (Index seed = 0; seed < n_cells; ++seed) {
            if (part[static_cast<std::size_t>(seed)] != r ||
                cell_mark[static_cast<std::size_t>(seed)] == r)
                continue;
            cell_mark[static_cast<std::size_t>(seed)] = r;
            std::size_t head = cells.size();
            cells.push_back(seed);
            for (; head < cells.size(); ++head)
                for (int k = 0; k < corners_per_cell; ++k) {
                    const Index nb = global.neighbor(cells[head], k);
                    if (nb == no_index ||
                        part[static_cast<std::size_t>(nb)] != r ||
                        cell_mark[static_cast<std::size_t>(nb)] == r)
                        continue;
                    cell_mark[static_cast<std::size_t>(nb)] = r;
                    cells.push_back(nb);
                }
        }
        sub.n_owned_cells = static_cast<Index>(cells.size());
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            owner_local[static_cast<std::size_t>(
                cells[static_cast<std::size_t>(lc)])] = lc;

        // Ghost layer: node-adjacent foreign cells, ordered by (owner,
        // global id) so each peer's schedule pairs items in global order.
        std::vector<Index> ghosts;
        for (Index lc = 0; lc < sub.n_owned_cells; ++lc)
            for (int k = 0; k < corners_per_cell; ++k) {
                const Index node =
                    global.cn(cells[static_cast<std::size_t>(lc)], k);
                for (const Index adj : global.node_cells.row(node))
                    if (cell_mark[static_cast<std::size_t>(adj)] != r) {
                        cell_mark[static_cast<std::size_t>(adj)] = r;
                        ghosts.push_back(adj);
                    }
            }
        std::sort(ghosts.begin(), ghosts.end(),
                  [&](Index a, Index b) {
                      const Index pa = part[static_cast<std::size_t>(a)];
                      const Index pb = part[static_cast<std::size_t>(b)];
                      return pa != pb ? pa < pb : a < b;
                  });
        cells.insert(cells.end(), ghosts.begin(), ghosts.end());

        // Local nodes in first-touch order over the local cells, and the
        // local mesh's cell -> node table with them.
        auto& lm = sub.local;
        lm.cell_nodes.reserve(cells.size() * corners_per_cell);
        lm.cell_region.reserve(cells.size());
        for (const Index c : cells) {
            for (int k = 0; k < corners_per_cell; ++k) {
                const auto g = static_cast<std::size_t>(global.cn(c, k));
                if (node_g2l[g] == no_index) {
                    node_g2l[g] = static_cast<Index>(sub.local_nodes.size());
                    sub.local_nodes.push_back(static_cast<Index>(g));
                }
                lm.cell_nodes.push_back(node_g2l[g]);
            }
            lm.cell_region.push_back(
                global.cell_region[static_cast<std::size_t>(c)]);
        }
        for (const Index g : sub.local_nodes)
            node_g2l[static_cast<std::size_t>(g)] = no_index;

        const std::size_t nn = sub.local_nodes.size();
        lm.x.resize(nn);
        lm.y.resize(nn);
        lm.node_bc.resize(nn);
        sub.node_owned.resize(nn);
        for (std::size_t i = 0; i < nn; ++i) {
            const auto g = static_cast<std::size_t>(sub.local_nodes[i]);
            lm.x[i] = global.x[g];
            lm.y[i] = global.y[g];
            lm.node_bc[i] = global.node_bc[g];
            sub.node_owned[i] = node_owner[g] == r ? 1 : 0;
            if (sub.node_owned[i]) owner_node_local[g] = static_cast<Index>(i);
        }
        mesh::build_connectivity(lm);

        // Orient each interior face as the global mesh does: its left cell
        // is the one with the lower *global* id. The swept volume and the
        // face fluxes are evaluated left -> right, and the reversed
        // shoelace is the negation only up to round-off, so a face oriented
        // by local ids would make the remap differ from serial in the last
        // bits on an irregular mesh.
        for (auto& f : lm.faces)
            if (f.right != no_index &&
                cells[static_cast<std::size_t>(f.right)] <
                    cells[static_cast<std::size_t>(f.left)]) {
                std::swap(f.left, f.right);
                std::swap(f.k_left, f.k_right);
                std::swap(f.a, f.b);
            }

        // --- boundary/interior overlap sets --------------------------------
        // Nodes incident to a ghost cell: their assembly needs exchanged
        // corner forces, and their kinematic state is refreshed by the
        // node halo (a non-owned node is always incident to a ghost cell:
        // the foreign owned cell that makes it non-owned is node-adjacent
        // to an owned cell here, hence in the ghost layer).
        const auto n_local_cells = static_cast<Index>(sub.local_cells.size());
        const auto n_local_nodes = static_cast<Index>(sub.local_nodes.size());
        std::vector<std::uint8_t> node_near_ghost(
            static_cast<std::size_t>(n_local_nodes), 0);
        for (Index lc = sub.n_owned_cells; lc < n_local_cells; ++lc)
            for (int k = 0; k < corners_per_cell; ++k)
                node_near_ghost[static_cast<std::size_t>(lm.cn(lc, k))] = 1;
        for (Index ln = 0; ln < n_local_nodes; ++ln)
            (node_near_ghost[static_cast<std::size_t>(ln)] ? sub.boundary_nodes
                                                           : sub.interior_nodes)
                .push_back(ln);

        // Cells whose own nodes touch a ghost cell ("near"), then widen by
        // one face ring: the viscosity limiter of a cell reads the nodes
        // of its face neighbours, so a cell is interior only if neither it
        // nor any face neighbour is near. Ghost cells are near by
        // construction (they share their own nodes).
        std::vector<std::uint8_t> near(static_cast<std::size_t>(n_local_cells),
                                       0);
        for (Index lc = 0; lc < n_local_cells; ++lc)
            for (int k = 0; k < corners_per_cell; ++k)
                if (node_near_ghost[static_cast<std::size_t>(lm.cn(lc, k))]) {
                    near[static_cast<std::size_t>(lc)] = 1;
                    break;
                }
        for (Index lc = 0; lc < n_local_cells; ++lc) {
            bool boundary = near[static_cast<std::size_t>(lc)];
            for (int k = 0; !boundary && k < corners_per_cell; ++k) {
                const Index nb = lm.neighbor(lc, k);
                if (nb != no_index && near[static_cast<std::size_t>(nb)])
                    boundary = true;
            }
            (boundary ? sub.boundary_cells : sub.interior_cells).push_back(lc);
        }

        // --- distributed remap stencil metadata -----------------------------
        // Faces the remap evaluates here: incident to an owned cell. Faces
        // deeper in the ghost layer are either ghost-interior or phantom
        // (locally boundary, globally interior — a ghost cell's far face);
        // their fluxes arrive through remap_dual_schedule instead. Note a
        // face of an owned cell can never be phantom: its far neighbour is
        // node-adjacent to the owned cell and hence in the ghost layer, so
        // right == no_index on a remap face means a true global boundary.
        for (std::size_t fi = 0; fi < lm.faces.size(); ++fi) {
            const auto& f = lm.faces[fi];
            if (f.left < sub.n_owned_cells ||
                (f.right != no_index && f.right < sub.n_owned_cells))
                sub.remap_faces.push_back(static_cast<Index>(fi));
        }

        // Nodes with the complete global cell stencil present locally: the
        // nodal (dual-mesh) remap is evaluated exactly for these. Every
        // node of an owned cell qualifies (the ghost layer is
        // node-complete around owned cells); fringe nodes do not.
        for (Index ln = 0; ln < n_local_nodes; ++ln) {
            const auto gn =
                static_cast<std::size_t>(sub.local_nodes[static_cast<std::size_t>(ln)]);
            if (lm.node_cells.row(ln).size() ==
                global.node_cells.row(static_cast<Index>(gn)).size())
                sub.remap_nodes.push_back(ln);
        }

        // Corner gather CSR in *global* deposition order: the local cell
        // numbering is not the global one, so a node's local node_corners
        // row visits its corners in a different order than the global
        // mesh; re-sorting each row by global flat corner id makes every
        // corner->node gather sum in exactly the serial order (the bitwise
        // dist == serial contract). Entries stay local flat ids.
        const auto global_corner = [&](Index lk) {
            return sub.local_cells[static_cast<std::size_t>(
                       lk / corners_per_cell)] * corners_per_cell +
                   lk % corners_per_cell;
        };
        sub.assembly_corners = lm.node_corners;
        sort_rows(sub.assembly_corners, [&](Index a, Index b) {
            return global_corner(a) < global_corner(b);
        });

        // Node -> edge neighbours for the ALE Jacobi average, each row
        // ascending by *global* node id: the serial row order, so the
        // neighbour sum at every stencil-complete node is bitwise serial.
        {
            std::vector<std::pair<Index, Index>> pairs;
            pairs.reserve(lm.faces.size() * 2);
            for (const auto& f : lm.faces) {
                pairs.emplace_back(f.a, f.b);
                pairs.emplace_back(f.b, f.a);
            }
            sub.smoothing_neighbours =
                util::Csr::from_pairs(n_local_nodes, pairs);
            sort_rows(sub.smoothing_neighbours, [&](Index a, Index b) {
                return sub.local_nodes[static_cast<std::size_t>(a)] <
                       sub.local_nodes[static_cast<std::size_t>(b)];
            });
        }
    }

    // --- exchange schedules --------------------------------------------------
    // Cell/corner: ghost cells of r owned by o; both sides ordered by global
    // cell id (the ghost list is already (owner, id)-sorted).
    for (int r = 0; r < n_parts; ++r) {
        auto& sub = subs[static_cast<std::size_t>(r)];
        // A ghost is *face-adjacent* when it shares a face with an owned
        // cell — the only ghosts whose gradients any owned face flux reads.
        const auto face_adjacent = [&](Index lc) {
            for (int k = 0; k < corners_per_cell; ++k) {
                const Index nb = sub.local.neighbor(lc, k);
                if (nb != no_index && nb < sub.n_owned_cells) return true;
            }
            return false;
        };
        const auto n_local = static_cast<Index>(sub.local_cells.size());
        const auto owner_of = [&](Index lc) {
            return static_cast<int>(part[static_cast<std::size_t>(
                sub.local_cells[static_cast<std::size_t>(lc)])]);
        };
        for (Index lo = sub.n_owned_cells, hi = lo; lo < n_local; lo = hi) {
            const int o = owner_of(lo);
            while (hi < n_local && owner_of(hi) == o) ++hi;
            typhon::ExchangeSchedule::Peer recv_peer;
            recv_peer.rank = o;
            typhon::ExchangeSchedule::Peer send_peer;
            send_peer.rank = r;
            typhon::ExchangeSchedule::Peer recv_corner;
            recv_corner.rank = o;
            typhon::ExchangeSchedule::Peer send_corner;
            send_corner.rank = r;
            typhon::ExchangeSchedule::Peer recv_grad;
            recv_grad.rank = o;
            typhon::ExchangeSchedule::Peer send_grad;
            send_grad.rank = r;
            for (Index lc = lo; lc < hi; ++lc) {
                recv_peer.recv_items.push_back(lc);
                const Index ol = owner_local[static_cast<std::size_t>(
                    sub.local_cells[static_cast<std::size_t>(lc)])];
                send_peer.send_items.push_back(ol);
                for (int k = 0; k < corners_per_cell; ++k) {
                    recv_corner.recv_items.push_back(lc * corners_per_cell + k);
                    send_corner.send_items.push_back(ol * corners_per_cell + k);
                }
                if (face_adjacent(lc)) {
                    recv_grad.recv_items.push_back(lc);
                    send_grad.send_items.push_back(ol);
                }
            }
            sub.cell_schedule.peers.push_back(std::move(recv_peer));
            sub.corner_schedule.peers.push_back(std::move(recv_corner));
            subs[static_cast<std::size_t>(o)].cell_schedule.peers.push_back(
                std::move(send_peer));
            subs[static_cast<std::size_t>(o)].corner_schedule.peers.push_back(
                std::move(send_corner));
            // Entries stay pairwise consistent because both sides are
            // derived from the same face_adjacent(lc) classification (the
            // ghost side decides; empty entries post no message).
            if (!recv_grad.recv_items.empty()) {
                sub.remap_cell_schedule.peers.push_back(std::move(recv_grad));
                subs[static_cast<std::size_t>(o)]
                    .remap_cell_schedule.peers.push_back(std::move(send_grad));
            }
        }
    }

    // The dual-mesh remap exchange pairs the same ghost corners as the
    // per-step corner-force halo; keep it as its own schedule (see the
    // header) now that both sides of every corner peering exist.
    for (auto& sub : subs) sub.remap_dual_schedule = sub.corner_schedule;

    // Node schedule: ghost nodes of r receive from their owner o. Both
    // sides ordered by global node id.
    for (int r = 0; r < n_parts; ++r) {
        auto& sub = subs[static_cast<std::size_t>(r)];
        struct GhostNode {
            Index owner, global, local;
        };
        std::vector<GhostNode> ghosts;
        for (std::size_t i = 0; i < sub.local_nodes.size(); ++i)
            if (!sub.node_owned[i]) {
                const Index gn = sub.local_nodes[i];
                ghosts.push_back({node_owner[static_cast<std::size_t>(gn)], gn,
                                  static_cast<Index>(i)});
            }
        std::sort(ghosts.begin(), ghosts.end(),
                  [](const GhostNode& a, const GhostNode& b) {
                      return a.owner != b.owner ? a.owner < b.owner
                                                : a.global < b.global;
                  });
        for (std::size_t lo = 0, hi = 0; lo < ghosts.size(); lo = hi) {
            const auto o = static_cast<int>(ghosts[lo].owner);
            typhon::ExchangeSchedule::Peer recv_peer;
            recv_peer.rank = o;
            typhon::ExchangeSchedule::Peer send_peer;
            send_peer.rank = r;
            for (; hi < ghosts.size() && ghosts[hi].owner == o; ++hi) {
                recv_peer.recv_items.push_back(ghosts[hi].local);
                send_peer.send_items.push_back(owner_node_local[
                    static_cast<std::size_t>(ghosts[hi].global)]);
            }
            sub.node_schedule.peers.push_back(std::move(recv_peer));
            subs[static_cast<std::size_t>(o)].node_schedule.peers.push_back(
                std::move(send_peer));
        }
    }

    return subs;
}

} // namespace bookleaf::part
