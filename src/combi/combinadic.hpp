// Combinadics: the bijection between lexicographic indices and
// k-combinations (paper Section VIII-D; Buckles & Lybanon, ACM TOMS
// Algorithm 515; Mifsud, CACM Algorithm 154).
//
// This is what lets every simulated GPU thread compute *its own* first
// combination directly from its flat work index, with no shared state and
// no precomputed combination table — the paper's "equal work division
// among all available threads".
//
// Convention: combinations are over [0, n), emitted as strictly increasing
// k-tuples, ordered lexicographically.  Index 0 is {0, 1, ..., k-1}.
#pragma once

#include <cstdint>
#include <span>

namespace lgg::combi {

/// Unrank: the `index`-th (0-based) k-combination of [0, n) in
/// lexicographic order, written into `out` (size k; no allocation, so the
/// simulated kernels call it per thread).  Throws lgg::Error if
/// index >= C(n, k) or out.size() != k.
void combination_from_index(std::uint64_t index, std::uint32_t n,
                            std::uint32_t k, std::span<std::uint32_t> out);

/// Rank: lexicographic index of a strictly increasing combination over
/// [0, n).  Inverse of combination_from_index.
std::uint64_t index_from_combination(std::span<const std::uint32_t> combo,
                                     std::uint32_t n);

/// Advance `combo` (strictly increasing over [0, n)) to its lexicographic
/// successor (Mifsud's Algorithm 154).  Returns false when `combo` was the
/// last combination (it is left unchanged).  This is the paper's
/// Section VIII-B "generate on the fly, one by one" strategy.
bool next_combination(std::span<std::uint32_t> combo, std::uint32_t n);

}  // namespace lgg::combi
