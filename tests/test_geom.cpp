// Tests for per-quad geometry: areas, gradients (checked against finite
// differences), corner-volume tiling, characteristic lengths, quality.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "geom/geometry.hpp"
#include "mesh/generator.hpp"
#include "util/random.hpp"

namespace bg = bookleaf::geom;
namespace bm = bookleaf::mesh;
namespace bu = bookleaf::util;
using bookleaf::Index;
using bookleaf::Real;

namespace {

bg::QuadPts unit_square() {
    return {.x = {0, 1, 1, 0}, .y = {0, 0, 1, 1}};
}

bg::QuadPts random_convexish_quad(bu::SplitMix64& rng) {
    // Perturbed unit square: stays simple (non-self-intersecting) for
    // perturbations < 0.3.
    bg::QuadPts q = unit_square();
    for (int k = 0; k < 4; ++k) {
        q.x[static_cast<std::size_t>(k)] += rng.uniform(-0.25, 0.25);
        q.y[static_cast<std::size_t>(k)] += rng.uniform(-0.25, 0.25);
    }
    return q;
}

} // namespace

TEST(QuadArea, UnitSquare) { EXPECT_DOUBLE_EQ(bg::quad_area(unit_square()), 1.0); }

TEST(QuadArea, OrientationSign) {
    bg::QuadPts cw = {.x = {0, 0, 1, 1}, .y = {0, 1, 1, 0}};
    EXPECT_DOUBLE_EQ(bg::quad_area(cw), -1.0);
}

TEST(QuadArea, TranslationInvariant) {
    bu::SplitMix64 rng(5);
    auto q = random_convexish_quad(rng);
    const Real a0 = bg::quad_area(q);
    for (auto& v : q.x) v += 17.5;
    for (auto& v : q.y) v -= 3.25;
    EXPECT_NEAR(bg::quad_area(q), a0, 1e-12);
}

TEST(QuadCentroid, UnitSquareCentre) {
    const auto c = bg::quad_centroid(unit_square());
    EXPECT_DOUBLE_EQ(c.x, 0.5);
    EXPECT_DOUBLE_EQ(c.y, 0.5);
}

TEST(CornerVolumes, TileTheCell) {
    bu::SplitMix64 rng(42);
    for (int rep = 0; rep < 50; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto cv = bg::corner_volumes(q);
        const Real sum = cv[0] + cv[1] + cv[2] + cv[3];
        EXPECT_NEAR(sum, bg::quad_area(q), 1e-12) << "rep " << rep;
    }
}

TEST(CornerVolumes, EqualOnSquare) {
    const auto cv = bg::corner_volumes(unit_square());
    for (const Real v : cv) EXPECT_NEAR(v, 0.25, 1e-14);
}

TEST(AreaGradients, MatchFiniteDifferences) {
    bu::SplitMix64 rng(7);
    const Real h = 1e-6;
    for (int rep = 0; rep < 20; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto g = bg::area_gradients(q);
        for (int k = 0; k < 4; ++k) {
            auto qp = q;
            qp.x[static_cast<std::size_t>(k)] += h;
            auto qm = q;
            qm.x[static_cast<std::size_t>(k)] -= h;
            const Real fd_x = (bg::quad_area(qp) - bg::quad_area(qm)) / (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(k)].x, fd_x, 1e-7);

            qp = q;
            qp.y[static_cast<std::size_t>(k)] += h;
            qm = q;
            qm.y[static_cast<std::size_t>(k)] -= h;
            const Real fd_y = (bg::quad_area(qp) - bg::quad_area(qm)) / (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(k)].y, fd_y, 1e-7);
        }
    }
}

TEST(CornerVolumeGradients, MatchFiniteDifferences) {
    bu::SplitMix64 rng(11);
    const Real h = 1e-6;
    const auto q = random_convexish_quad(rng);
    const auto g = bg::corner_volume_gradients(q);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            auto qp = q;
            qp.x[static_cast<std::size_t>(j)] += h;
            auto qm = q;
            qm.x[static_cast<std::size_t>(j)] -= h;
            const Real fd_x = (bg::corner_volumes(qp)[static_cast<std::size_t>(i)] -
                               bg::corner_volumes(qm)[static_cast<std::size_t>(i)]) /
                              (2 * h);
            EXPECT_NEAR(g[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].x,
                        fd_x, 1e-7)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(CornerVolumeGradients, SumToAreaGradients) {
    // Because subzones tile the cell, sum_i d(Vsz_i)/dp_j == dA/dp_j — the
    // identity that keeps sub-zonal forces momentum-conserving.
    bu::SplitMix64 rng(13);
    for (int rep = 0; rep < 20; ++rep) {
        const auto q = random_convexish_quad(rng);
        const auto g = bg::corner_volume_gradients(q);
        const auto ga = bg::area_gradients(q);
        for (std::size_t j = 0; j < 4; ++j) {
            Real sx = 0, sy = 0;
            for (std::size_t i = 0; i < 4; ++i) {
                sx += g[i][j].x;
                sy += g[i][j].y;
            }
            EXPECT_NEAR(sx, ga[j].x, 1e-12);
            EXPECT_NEAR(sy, ga[j].y, 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Bitwise oracle: corner_volume_gradients against the generic
// weighted-subzone form
// ---------------------------------------------------------------------------

namespace {

using Grads = std::array<std::array<bg::Vec2, 4>, 4>;

/// The generic form of the subzone-volume gradients, kept here only as a
/// reference: build each subzone quad, take its area gradient at every
/// vertex, and scatter it to the corners through the d(vertex)/d(corner)
/// weight matrix, skipping zero weights. corner_volume_gradients must
/// reproduce it bit for bit.
Grads weighted_subzone_gradients(const bg::QuadPts& q) {
    Grads grad{};
    for (int i = 0; i < 4; ++i) {
        const auto ip = static_cast<std::size_t>((i + 1) % 4);
        const auto im = static_cast<std::size_t>((i + 3) % 4);
        const auto ii = static_cast<std::size_t>(i);
        bg::QuadPts sz;
        sz.x = {q.x[ii], Real(0.5) * (q.x[ii] + q.x[ip]),
                Real(0.25) * (q.x[0] + q.x[1] + q.x[2] + q.x[3]),
                Real(0.5) * (q.x[im] + q.x[ii])};
        sz.y = {q.y[ii], Real(0.5) * (q.y[ii] + q.y[ip]),
                Real(0.25) * (q.y[0] + q.y[1] + q.y[2] + q.y[3]),
                Real(0.5) * (q.y[im] + q.y[ii])};
        std::array<std::array<Real, 4>, 4> weights{};
        weights[0][ii] = 1.0;
        weights[1][ii] = 0.5;
        weights[1][ip] = 0.5;
        for (auto& w : weights[2]) w = 0.25;
        weights[3][im] = 0.5;
        weights[3][ii] = 0.5;
        const auto vertex_grads = bg::area_gradients(sz);
        for (std::size_t v = 0; v < 4; ++v)
            for (std::size_t j = 0; j < 4; ++j) {
                const Real w = weights[v][j];
                if (w == 0.0) continue;
                grad[ii][j].x += w * vertex_grads[v].x;
                grad[ii][j].y += w * vertex_grads[v].y;
            }
    }
    return grad;
}

/// Counts quads whose gradients differ from the oracle in any bit and
/// keeps the first one for the failure message.
struct BitwiseOracle {
    long checked = 0;
    long mismatches = 0;
    std::string first;

    void check(const bg::QuadPts& q) {
        ++checked;
        const Grads want = weighted_subzone_gradients(q);
        const Grads got = bg::corner_volume_gradients(q);
        if (std::memcmp(&want, &got, sizeof(Grads)) == 0) return;
        if (mismatches++ > 0) return;
        std::ostringstream os;
        os.precision(17);
        os << "quad";
        for (std::size_t k = 0; k < 4; ++k)
            os << " (" << q.x[k] << ", " << q.y[k] << ")";
        first = os.str();
    }
};

bg::QuadPts scaled(bg::QuadPts q, Real s) {
    for (auto& v : q.x) v *= s;
    for (auto& v : q.y) v *= s;
    return q;
}

} // namespace

TEST(CornerVolumeGradients, BitwiseEqualToWeightedFormOnRandomQuads) {
    bu::SplitMix64 rng(2024);
    BitwiseOracle oracle;
    for (int rep = 0; rep < (1 << 20); ++rep) {
        bg::QuadPts q;
        if (rep % 2 == 0) {
            // Near-square cells anywhere in a wide coordinate range.
            q = random_convexish_quad(rng);
            const Real s = std::ldexp(1.0, static_cast<int>(rng.uniform_index(41)) - 20);
            const Real ox = rng.uniform(-1e3, 1e3), oy = rng.uniform(-1e3, 1e3);
            q = scaled(q, s);
            for (auto& v : q.x) v += ox;
            for (auto& v : q.y) v += oy;
        } else {
            // Arbitrary (non-convex, inverted, tangled) quads.
            for (std::size_t k = 0; k < 4; ++k) {
                q.x[k] = rng.uniform(-1.0, 1.0);
                q.y[k] = rng.uniform(-1.0, 1.0);
            }
        }
        oracle.check(q);
    }
    EXPECT_EQ(oracle.checked, 1 << 20);
    EXPECT_EQ(oracle.mismatches, 0) << "first: " << oracle.first;
}

TEST(CornerVolumeGradients, BitwiseEqualToWeightedFormOnEdgeCases) {
    BitwiseOracle oracle;
    // Unit squares scaled by 2^-20 .. 2^20, also translated and rotated
    // by a quarter turn (exact), so exact cancellations and zeros occur.
    for (int e = -20; e <= 20; ++e) {
        const Real s = std::ldexp(1.0, e);
        const auto sq = scaled(unit_square(), s);
        oracle.check(sq);
        oracle.check(scaled(unit_square(), -s));
        bg::QuadPts shifted = sq;
        for (auto& v : shifted.x) v += 3.0 * s;
        oracle.check(shifted);
        bg::QuadPts turned;
        for (std::size_t k = 0; k < 4; ++k) {
            turned.x[k] = -sq.y[k];
            turned.y[k] = sq.x[k];
        }
        oracle.check(turned);
    }
    // -0.0 coordinates: every pattern of +0/-0 over the unit square's
    // zero coordinates, and the fully degenerate all-zero quads.
    for (unsigned mask = 0; mask < 256; ++mask) {
        bg::QuadPts q = unit_square();
        bg::QuadPts z;
        for (std::size_t k = 0; k < 4; ++k) {
            const bool nx = mask & (1u << k);
            const bool ny = mask & (1u << (k + 4));
            if (q.x[k] == 0.0 && nx) q.x[k] = -0.0;
            if (q.y[k] == 0.0 && ny) q.y[k] = -0.0;
            z.x[k] = nx ? -0.0 : 0.0;
            z.y[k] = ny ? -0.0 : 0.0;
        }
        oracle.check(q);
        oracle.check(z);
    }
    // 1e+-300 magnitudes (large but far from overflow in the sums; small
    // but still normal after the 0.25 and 0.5 scalings).
    bu::SplitMix64 rng(77);
    for (int rep = 0; rep < 2000; ++rep) {
        const auto q = random_convexish_quad(rng);
        oracle.check(scaled(q, 1e300));
        oracle.check(scaled(q, -1e300));
        oracle.check(scaled(q, 1e-300));
        oracle.check(scaled(q, -1e-300));
    }
    // Quarter-integer grid coordinates: every intermediate is exact, so
    // many terms cancel to exact zeros of either sign.
    for (int rep = 0; rep < 20000; ++rep) {
        bg::QuadPts q;
        for (std::size_t k = 0; k < 4; ++k) {
            q.x[k] = static_cast<Real>(static_cast<int>(rng.uniform_index(33)) - 16) * 0.25;
            q.y[k] = static_cast<Real>(static_cast<int>(rng.uniform_index(33)) - 16) * 0.25;
        }
        oracle.check(q);
    }
    EXPECT_GT(oracle.checked, 20000);
    EXPECT_EQ(oracle.mismatches, 0) << "first: " << oracle.first;
}

TEST(CharLength, SquareAndNeedle) {
    // Square of side h: diagonals h*sqrt(2), area h^2 -> L = h/sqrt(2).
    const Real L = bg::char_length(unit_square());
    EXPECT_NEAR(L, 1.0 / std::sqrt(2.0), 1e-12);
    // Needle 1 x 0.01: area 0.01, diag ~1 -> L ~ 0.01 (shrinks correctly).
    bg::QuadPts needle = {.x = {0, 1, 1, 0}, .y = {0, 0, 0.01, 0.01}};
    EXPECT_LT(bg::char_length(needle), 0.02);
}

TEST(MinEdge, UnitSquare) {
    EXPECT_DOUBLE_EQ(bg::min_edge_length(unit_square()), 1.0);
}

TEST(Quality, UniformGridIsPerfect) {
    const auto m = bm::generate_rect({.nx = 8, .ny = 8});
    const auto q = bg::mesh_quality(m);
    EXPECT_NEAR(q.min_area, 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(q.max_aspect, 1.0, 1e-12);
}

TEST(Quality, SaltzmannIsSkewedButValid) {
    bm::RectSpec spec{.x0 = 0, .x1 = 1, .y0 = 0, .y1 = 0.1, .nx = 100, .ny = 10};
    spec.map = bm::saltzmann_map;
    const auto m = bm::generate_rect(spec);
    const auto q = bg::mesh_quality(m);
    EXPECT_GT(q.min_area, 0.0);     // no inverted cells
    EXPECT_GT(q.max_aspect, 1.5);   // visibly distorted
}

TEST(Gather, ReadsCellCorners) {
    const auto m = bm::generate_rect({.nx = 2, .ny = 1});
    const auto q = bg::gather(m, m.x, m.y, 1);
    EXPECT_DOUBLE_EQ(q.x[0], 0.5);
    EXPECT_DOUBLE_EQ(q.x[1], 1.0);
    EXPECT_DOUBLE_EQ(q.y[2], 1.0);
    EXPECT_NEAR(bg::quad_area(q), 0.5, 1e-14);
}
