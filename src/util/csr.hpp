#pragma once
/// \file csr.hpp
/// Compressed sparse row adjacency used for mesh connectivity
/// (node -> cells) and partition ghost maps.

#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace bookleaf::util {

/// Immutable CSR adjacency: `row(i)` is the list of entities adjacent to i.
struct Csr {
    std::vector<Index> offsets; ///< size = n_rows + 1
    std::vector<Index> items;   ///< size = offsets.back()

    [[nodiscard]] Index n_rows() const {
        return static_cast<Index>(offsets.empty() ? 0 : offsets.size() - 1);
    }

    [[nodiscard]] std::span<const Index> row(Index i) const {
        BL_ASSERT(i >= 0 && i < n_rows());
        return {items.data() + offsets[i],
                static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
    }

    /// Build from (row, item) pairs via counting sort. Rows may be listed in
    /// any order; duplicates are preserved.
    static Csr from_pairs(Index n_rows,
                          const std::vector<std::pair<Index, Index>>& pairs) {
        Csr csr;
        csr.offsets.assign(static_cast<std::size_t>(n_rows) + 1, 0);
        for (const auto& [row, item] : pairs) {
            BL_ASSERT(row >= 0 && row < n_rows);
            (void)item;
            ++csr.offsets[static_cast<std::size_t>(row) + 1];
        }
        for (std::size_t r = 0; r < static_cast<std::size_t>(n_rows); ++r)
            csr.offsets[r + 1] += csr.offsets[r];
        csr.items.resize(static_cast<std::size_t>(csr.offsets.back()));
        std::vector<Index> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
        for (const auto& [row, item] : pairs)
            csr.items[static_cast<std::size_t>(cursor[row]++)] = item;
        return csr;
    }
};

} // namespace bookleaf::util
