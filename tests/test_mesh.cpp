// Unit and property tests for the unstructured mesh: generation,
// connectivity discovery, consistency checking, permutation invariance.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mesh/generator.hpp"
#include "mesh/mesh.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "setup/problems.hpp"
#include "util/random.hpp"

namespace bm = bookleaf::mesh;
namespace bp = bookleaf::part;
namespace bs = bookleaf::setup;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

TEST(MeshGenerate, CountsAreCorrect) {
    const auto m = bm::generate_rect({.nx = 7, .ny = 5});
    EXPECT_EQ(m.n_cells(), 35);
    EXPECT_EQ(m.n_nodes(), 8 * 6);
    // Faces: nx*(ny+1) horizontal + (nx+1)*ny vertical.
    EXPECT_EQ(m.n_faces(), 7 * 6 + 8 * 5);
    EXPECT_EQ(check_consistency(m), "");
}

TEST(MeshGenerate, SingleCell) {
    const auto m = bm::generate_rect({.nx = 1, .ny = 1});
    EXPECT_EQ(m.n_cells(), 1);
    EXPECT_EQ(m.n_nodes(), 4);
    EXPECT_EQ(m.n_faces(), 4);
    for (int k = 0; k < 4; ++k) EXPECT_EQ(m.neighbor(0, k), bookleaf::no_index);
}

TEST(MeshGenerate, RejectsBadSpecs) {
    EXPECT_THROW(bm::generate_rect({.nx = 0, .ny = 3}), bu::Error);
    EXPECT_THROW(bm::generate_rect({.x0 = 1.0, .x1 = 0.0}), bu::Error);
}

TEST(MeshGenerate, InteriorCellHasFourNeighbors) {
    const auto m = bm::generate_rect({.nx = 5, .ny = 5});
    // Cell 12 (centre of a 5x5 block in generation order) is interior.
    int n_neighbors = 0;
    for (int k = 0; k < 4; ++k)
        if (m.neighbor(12, k) != bookleaf::no_index) ++n_neighbors;
    EXPECT_EQ(n_neighbors, 4);
}

TEST(MeshGenerate, BoundaryMasksAreReflectiveWalls) {
    const auto m = bm::generate_rect({.x0 = 0, .x1 = 2, .y0 = 0, .y1 = 1,
                                      .nx = 4, .ny = 2});
    int fix_u = 0, fix_v = 0, both = 0, interior = 0;
    for (Index n = 0; n < m.n_nodes(); ++n) {
        const auto mask = m.node_bc[static_cast<std::size_t>(n)];
        const bool u = mask & bm::bc::fix_u;
        const bool v = mask & bm::bc::fix_v;
        if (u && v) ++both;
        else if (u) ++fix_u;
        else if (v) ++fix_v;
        else ++interior;
    }
    EXPECT_EQ(both, 4);            // the four domain corners
    EXPECT_EQ(fix_u, 2 * (3 - 2)); // x-walls minus corners: 2*(ny+1-2)
    EXPECT_EQ(fix_v, 2 * (5 - 2)); // y-walls minus corners: 2*(nx+1-2)
    EXPECT_EQ(interior, (5 - 2) * (3 - 2));
}

TEST(MeshGenerate, RegionCallbackAssignsMaterials) {
    bm::RectSpec spec{.nx = 10, .ny = 2};
    spec.region_of = [](Real cx, Real) { return cx < 0.5 ? 0 : 1; };
    const auto m = bm::generate_rect(spec);
    int r0 = 0, r1 = 0;
    for (const Index r : m.cell_region) (r == 0 ? r0 : r1)++;
    EXPECT_EQ(r0, 10);
    EXPECT_EQ(r1, 10);
    EXPECT_EQ(m.n_regions(), 2);
}

TEST(MeshGenerate, SaltzmannMapSkewsInterior) {
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 20, .ny = 10};
    spec.map = bm::saltzmann_map;
    const auto m = bm::generate_rect(spec);
    EXPECT_EQ(check_consistency(m), "");
    // The map moves interior columns in +x; find a node strictly inside.
    bool skewed = false;
    for (Index n = 0; n < m.n_nodes(); ++n) {
        const Real x = m.x[static_cast<std::size_t>(n)];
        if (x > 0.01 && x < 0.99 &&
            std::abs(x - std::round(x * 20) / 20) > 1e-6)
            skewed = true;
    }
    EXPECT_TRUE(skewed);
}

TEST(MeshConnectivity, NeighborsAreReciprocal) {
    const auto m = bm::generate_rect({.nx = 6, .ny = 4});
    for (Index c = 0; c < m.n_cells(); ++c)
        for (int k = 0; k < 4; ++k) {
            const Index nb = m.neighbor(c, k);
            if (nb == bookleaf::no_index) continue;
            bool back = false;
            for (int kk = 0; kk < 4; ++kk)
                if (m.neighbor(nb, kk) == c) back = true;
            EXPECT_TRUE(back) << "cell " << c << " face " << k;
        }
}

TEST(MeshConnectivity, NodeCellsValence) {
    const auto m = bm::generate_rect({.nx = 3, .ny = 3});
    // Corner nodes touch 1 cell, edge nodes 2, interior nodes 4.
    std::multiset<std::size_t> valences;
    for (Index n = 0; n < m.n_nodes(); ++n)
        valences.insert(m.node_cells.row(n).size());
    EXPECT_EQ(valences.count(1), 4u);
    EXPECT_EQ(valences.count(2), 8u);
    EXPECT_EQ(valences.count(4), 4u);
}

TEST(MeshConnectivity, NodeCornersCoverEveryCornerExactlyOnce) {
    // The gather-based nodal assembly depends on this invariant: every
    // (cell, corner) pair appears in node_corners exactly once, under the
    // node that corner references, and rows ascend in flat-id order (the
    // serial-scatter deposition order).
    const auto m = bm::generate_rect({.nx = 7, .ny = 5});
    std::vector<int> seen(static_cast<std::size_t>(m.n_cells()) * 4, 0);
    for (Index n = 0; n < m.n_nodes(); ++n) {
        Index prev = bookleaf::no_index;
        for (const Index ck : m.node_corners.row(n)) {
            EXPECT_GT(ck, prev) << "row of node " << n << " not ascending";
            prev = ck;
            seen[static_cast<std::size_t>(ck)]++;
            EXPECT_EQ(m.cn(ck / 4, ck % 4), n) << "flat corner " << ck;
        }
    }
    for (std::size_t ck = 0; ck < seen.size(); ++ck)
        EXPECT_EQ(seen[ck], 1) << "flat corner " << ck;
    // Rows agree with node_cells (same cells, same valence).
    for (Index n = 0; n < m.n_nodes(); ++n) {
        ASSERT_EQ(m.node_corners.row(n).size(), m.node_cells.row(n).size());
        for (std::size_t i = 0; i < m.node_corners.row(n).size(); ++i)
            EXPECT_EQ(m.node_corners.row(n)[i] / 4, m.node_cells.row(n)[i]);
    }
}

TEST(MeshConsistency, DetectsCorruptNodeCorners) {
    auto m = bm::generate_rect({.nx = 3, .ny = 2});
    ASSERT_EQ(check_consistency(m), "");
    std::swap(m.node_corners.items[0], m.node_corners.items[1]);
    EXPECT_NE(check_consistency(m), "");
}

TEST(MeshConnectivity, FacesHaveConsistentEndpoints) {
    const auto m = bm::generate_rect({.nx = 4, .ny = 3});
    for (const auto& f : m.faces) {
        ASSERT_NE(f.left, bookleaf::no_index);
        const Index la = m.cn(f.left, f.k_left);
        const Index lb = m.cn(f.left, (f.k_left + 1) % 4);
        EXPECT_TRUE((f.a == la && f.b == lb));
        if (f.right != bookleaf::no_index) {
            const Index ra = m.cn(f.right, f.k_right);
            const Index rb = m.cn(f.right, (f.k_right + 1) % 4);
            // Opposite orientation seen from the right cell.
            EXPECT_EQ(ra, lb);
            EXPECT_EQ(rb, la);
        }
    }
}

TEST(MeshConnectivity, RejectsNonManifoldInput) {
    // Three cells stacked on the same face.
    bm::Mesh m;
    m.x = {0, 1, 1, 0, 2, 2, 3};
    m.y = {0, 0, 1, 1, 0.5, 1.5, 0};
    m.cell_nodes = {0, 1, 2, 3,   // quad A, face 1-2 shared
                    1, 4, 5, 2,   // quad B uses face 1-2? no: uses 1-2 via corner order
                    1, 6, 4, 2};  // quad C also contains edge 2-1
    m.cell_region = {0, 0, 0};
    EXPECT_THROW(bm::build_connectivity(m), bu::Error);
}

TEST(MeshConsistency, DetectsCorruptNeighbor) {
    auto m = bm::generate_rect({.nx = 3, .ny = 2});
    m.cell_neigh[0] = 99; // out of range
    EXPECT_NE(check_consistency(m), "");
}

// ---------------------------------------------------------------------------
// Continuation table (cell_cont)
// ---------------------------------------------------------------------------

namespace {

/// Brute-force continuation search, independent of the table: in
/// neighbour `nb`, the first side (local order) containing `node` that is
/// not the face shared with `cell`; returns the local corner of that
/// side's other node, or -1.
int searched_continuation(const bm::Mesh& m, Index cell, Index nb,
                          Index node) {
    if (nb == bookleaf::no_index) return -1;
    for (int side = 0; side < 4; ++side) {
        const Index a = m.cn(nb, side);
        const Index b = m.cn(nb, (side + 1) % 4);
        if (a != node && b != node) continue;
        if (m.neighbor(nb, side) == cell) continue;
        return a == node ? (side + 1) % 4 : side;
    }
    return -1;
}

/// Compare every cell_cont entry with the search; returns the number of
/// entries that differ and how many entries were valid continuations.
std::pair<long, long> table_vs_search(const bm::Mesh& m) {
    long wrong = 0, valid = 0;
    EXPECT_EQ(m.cell_cont.size(), static_cast<std::size_t>(m.n_cells()) * 8);
    for (Index c = 0; c < m.n_cells(); ++c)
        for (int f = 0; f < 4; ++f)
            for (int e = 0; e < 2; ++e) {
                const int want = searched_continuation(
                    m, c, m.neighbor(c, f), m.cn(c, (f + e) % 4));
                if (m.cont(c, f, e) != want) ++wrong;
                if (want >= 0) ++valid;
            }
    return {wrong, valid};
}

} // namespace

TEST(MeshContinuation, GeneratorMeshMatchesSearch) {
    const auto p = bs::noh(48);
    const auto [wrong, valid] = table_vs_search(p.mesh);
    EXPECT_EQ(wrong, 0);
    // Every face end has a continuation except where the face itself is
    // missing (boundary) — 8 per cell minus 2 per boundary face.
    EXPECT_EQ(valid, 8L * 48 * 48 - 2L * 4 * 48);
    EXPECT_EQ(check_consistency(p.mesh), "");
}

TEST(MeshContinuation, PermutedMeshesMatchSearch) {
    const auto base = bm::generate_rect({.nx = 23, .ny = 17});
    for (const std::uint64_t seed : {7u, 1234u, 99991u}) {
        bu::SplitMix64 rng(seed);
        const auto m = bm::permute(base, rng);
        const auto [wrong, valid] = table_vs_search(m);
        EXPECT_EQ(wrong, 0) << "seed " << seed;
        EXPECT_EQ(valid, 8L * 23 * 17 - 2L * 2 * (23 + 17)) << "seed " << seed;
        EXPECT_EQ(check_consistency(m), "") << "seed " << seed;
    }
}

TEST(MeshContinuation, SubdomainMeshesMatchSearchIncludingGhosts) {
    // Local meshes end at the ghost layer, so ghost cells on its outer
    // edge lose neighbours (and continuations) the global mesh has; the
    // table must follow the local topology exactly as the search does.
    const auto m = bm::generate_rect({.nx = 30, .ny = 26});
    const int n_ranks = 4;
    const auto subs = bp::decompose(m, bp::rcb(m, n_ranks), n_ranks);
    ASSERT_EQ(subs.size(), 4u);
    for (const auto& sub : subs) {
        const auto& lm = sub.local;
        ASSERT_GT(lm.n_cells(), sub.n_owned_cells) << "rank " << sub.rank;
        const auto [wrong, valid] = table_vs_search(lm);
        EXPECT_EQ(wrong, 0) << "rank " << sub.rank;
        EXPECT_GT(valid, 0) << "rank " << sub.rank;
        long ghost_invalid = 0;
        for (Index c = sub.n_owned_cells; c < lm.n_cells(); ++c)
            for (int k = 0; k < 8; ++k)
                if (lm.cell_cont[static_cast<std::size_t>(c) * 8 +
                                 static_cast<std::size_t>(k)] < 0)
                    ++ghost_invalid;
        EXPECT_GT(ghost_invalid, 0) << "ghost edge cells lose continuations";
        EXPECT_EQ(check_consistency(lm), "") << "rank " << sub.rank;
    }
}

TEST(MeshConsistency, DetectsCorruptContinuationTable) {
    const auto good = bm::generate_rect({.nx = 4, .ny = 3});
    ASSERT_EQ(check_consistency(good), "");
    {
        auto m = good;
        m.cell_cont.pop_back();
        EXPECT_NE(check_consistency(m), "") << "wrong size";
    }
    // Interior cell 5 (i=1, j=1), face 1 (nodes 1-2, right neighbour):
    // the end-0 continuation runs along the neighbour's bottom side.
    const Index c = 5;
    const int f = 1;
    const Index nb = good.neighbor(c, f);
    ASSERT_NE(nb, bookleaf::no_index);
    const int ok = good.cont(c, f, 0);
    ASSERT_GE(ok, 0);
    const Index node = good.cn(c, f);
    for (int corner = 0; corner < 4; ++corner) {
        if (corner == ok) continue;
        // The node itself, the far node of the shared face, or the
        // opposite corner: none is the far end of a non-shared side.
        auto m = good;
        m.cell_cont[static_cast<std::size_t>(c) * 8 +
                    static_cast<std::size_t>(2 * f)] =
            static_cast<std::int8_t>(corner);
        EXPECT_NE(check_consistency(m), "")
            << "corner " << corner << " (node " << good.cn(nb, corner)
            << ", continuation node " << node << ")";
    }
    {
        auto m = good;
        m.cell_cont[static_cast<std::size_t>(c) * 8 +
                    static_cast<std::size_t>(2 * f)] = -1;
        EXPECT_NE(check_consistency(m), "") << "dropped continuation";
    }
    {
        // A boundary face has no continuation to name.
        auto m = good;
        ASSERT_EQ(m.neighbor(0, 0), bookleaf::no_index);
        m.cell_cont[0] = 1;
        EXPECT_NE(check_consistency(m), "") << "continuation off the boundary";
    }
}

class MeshPermuteProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshPermuteProperty, PermutationPreservesTopology) {
    bu::SplitMix64 rng(GetParam());
    const auto m = bm::generate_rect({.nx = 6, .ny = 5});
    const auto p = bm::permute(m, rng);
    EXPECT_EQ(p.n_cells(), m.n_cells());
    EXPECT_EQ(p.n_nodes(), m.n_nodes());
    EXPECT_EQ(p.n_faces(), m.n_faces());
    EXPECT_EQ(check_consistency(p), "");
    // Geometry multiset is preserved (total coordinate sums).
    Real sx = 0, sy = 0, px = 0, py = 0;
    for (const Real v : m.x) sx += v;
    for (const Real v : m.y) sy += v;
    for (const Real v : p.x) px += v;
    for (const Real v : p.y) py += v;
    EXPECT_NEAR(sx, px, 1e-12);
    EXPECT_NEAR(sy, py, 1e-12);
    // Boundary mask census preserved.
    std::multiset<int> mm, pm;
    for (const auto b : m.node_bc) mm.insert(b);
    for (const auto b : p.node_bc) pm.insert(b);
    EXPECT_EQ(mm, pm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshPermuteProperty,
                         ::testing::Values(3, 17, 29, 101, 997));
