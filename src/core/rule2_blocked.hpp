#pragma once
// Blocked Rule 2 pair engine, shared by the flat dense pass (rules.cpp) and
// the per-tile kernels (tiles.cpp). For a marked node v with candidate
// covers c_0 < c_1 < ... < c_{m-1} (its marked neighbors), Rule 2 asks
// whether any pair (u, w) covers N(v); the classic loop streams the
// coverage row N(w) once per *pair* and tests the full N(w) ⊆ N(u) ∪ N(v)
// union row for the refined form's competitor coverage. This engine keeps
// two per-candidate residual caches instead, built lazily on first use:
//
//   rem1[i] = N(v) \ N(c_i)     "what c_i leaves uncovered of v's hood"
//   rem2[i] = N(c_i) \ N(v)     "what v leaves uncovered of c_i's hood"
//
// and reduces every coverage question to a residual containment:
//
//   pair (u=c_i, w=c_j) covers v   ⟺  rem1[i] ⊆ N(c_j)
//   w covers competitor u (cov_u)  ⟺  rem2[i] ⊆ N(c_j)
//   u covers competitor w (cov_w)  ⟺  rem2[j] ⊆ N(c_i)
//
// (the last because N(w) ⊆ N(u) ∪ N(v) ⟺ N(w) \ N(v) ⊆ N(u)). Candidate
// pairs are walked in blocks of at most 64 rows of the i dimension: the
// block's rem1 rows are materialized once (row-major, so they sit
// contiguous and L1-resident), then each coverage row N(c_j) streams once
// per block — not once per pair — through a single subset_rows call that
// answers "which rem1 rows fit inside N(c_j)?" as a 64-bit mask, so the
// O(m²) per-pair subset tests become O(m) batch calls per block. rem2
// rows stay lazy with popcount-vs-degree gates and nonzero-range scans,
// since the refined case analysis only reads them for pairs that already
// cover v.
//
// The pair decision is existential (v yields iff SOME pair fires), so the
// loop-order change is decision-identical to the classic nested loop, and
// the residual forms of cov_u / cov_w are algebraically the same booleans
// the refined case analysis always consumed. `Env` supplies the geometry:
//
//   const simd::Word* vrow()               N(v) row words
//   const simd::Word* row(std::size_t i)   N(c_i) row words
//   std::size_t degree(std::size_t i)      |N(c_i)| (gate; called lazily)
//   bool min3(std::size_t i, std::size_t j)        key.is_min_of_three
//   bool refined_cases(i, j, bool cov_u, bool cov_w)

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"

namespace pacds {

/// Reusable scratch for one executor lane (or one tile) of the blocked
/// engine. Only capacity persists between calls.
struct Rule2BlockLane {
  std::vector<simd::Word> uni;       ///< union-screen residual (ping)
  std::vector<simd::Word> uni2;      ///< union-screen residual (pong)
  std::vector<simd::Word> rem;       ///< rem1 rows N(v) \ N(c_i), row-major
  std::vector<simd::Word> rem2;      ///< rem2 rows N(c_i) \ N(v), row-major
  std::vector<std::uint32_t> deg;    ///< candidate degree, lazy (kUnset32)
  std::vector<std::uint32_t> pop2;   ///< popcount per rem2 row
  std::vector<std::uint32_t> lo2;    ///< nonzero range per rem2 row
  std::vector<std::uint32_t> hi2;
  std::vector<std::uint8_t> built2;  ///< rem2 row materialized yet?
};

namespace detail {

inline constexpr std::uint32_t kUnset32 = 0xffffffffu;

/// Scans dst[0..nwords) for its nonzero word range; pop > 0 guaranteed.
inline void nonzero_range(const simd::Word* dst, std::size_t nwords,
                          std::uint32_t& lo, std::uint32_t& hi) {
  std::size_t first = 0;
  while (dst[first] == 0) ++first;
  std::size_t last = nwords - 1;
  while (dst[last] == 0) --last;
  lo = static_cast<std::uint32_t>(first);
  hi = static_cast<std::uint32_t>(last);
}

}  // namespace detail

/// True iff some candidate pair covers v. `m` candidates, rows of `nwords`
/// words; `simple` selects the min-of-three form, otherwise the refined
/// case analysis runs.
template <typename Env>
bool rule2_blocked_fires(const Env& env, std::size_t m, std::size_t nwords,
                         bool simple, Rule2BlockLane& lane) {
  if (m < 2 || nwords == 0) return false;
  const simd::Word* vrow = env.vrow();
  // Union screen: peel candidate hoods off N(v) until nothing is left. If
  // a residue survives all m candidates, some neighbor of v is adjacent to
  // NO candidate, so no pair can cover v — the whole pair loop is skipped.
  // (Any pair cover N(v) ⊆ N(u) ∪ N(w) is inside the full union, so the
  // screen never skips a firing node.) Most nodes that keep their mark do
  // so precisely because such a neighbor exists, which makes this the
  // common exit; nodes that might fire usually zero the residue within a
  // few candidates (andnot_into returns the residue popcount, so each peel
  // is one fused pass over the row).
  {
    if (lane.uni.size() < nwords) {
      lane.uni.resize(nwords);
      lane.uni2.resize(nwords);
    }
    const simd::Word* cur = vrow;
    simd::Word* front = lane.uni.data();
    simd::Word* back = lane.uni2.data();
    std::size_t residue = 1;
    for (std::size_t i = 0; i < m; ++i) {
      residue = simd::andnot_into(front, cur, env.row(i), nwords);
      if (residue == 0) break;
      cur = front;
      std::swap(front, back);
    }
    if (residue != 0) return false;
  }
  if (lane.rem.size() < m * nwords) {
    lane.rem.resize(m * nwords);
    lane.rem2.resize(m * nwords);
  }
  if (lane.deg.size() < m) {
    lane.deg.resize(m);
    lane.pop2.resize(m);
    lane.lo2.resize(m);
    lane.hi2.resize(m);
    lane.built2.resize(m);
  }
  for (std::size_t i = 0; i < m; ++i) {
    lane.built2[i] = 0;
    lane.deg[i] = detail::kUnset32;
  }
  const auto degree = [&](std::size_t i) {
    if (lane.deg[i] == detail::kUnset32) {
      lane.deg[i] = static_cast<std::uint32_t>(env.degree(i));
    }
    return lane.deg[i];
  };
  const auto build2 = [&](std::size_t i) {
    if (lane.built2[i] == 0) {
      simd::Word* dst = lane.rem2.data() + i * nwords;
      lane.pop2[i] = static_cast<std::uint32_t>(
          simd::andnot_into(dst, env.row(i), vrow, nwords));
      if (lane.pop2[i] != 0) {
        detail::nonzero_range(dst, nwords, lane.lo2[i], lane.hi2[i]);
      }
      lane.built2[i] = 1;
    }
  };
  /// rem2[a] ⊆ N(c_b)? (== "c_b covers competitor c_a's hood beyond v's").
  const auto covers = [&](std::size_t a, std::size_t b) {
    build2(a);
    if (lane.pop2[a] > degree(b)) return false;
    return lane.pop2[a] == 0 ||
           simd::is_subset(lane.rem2.data() + a * nwords + lane.lo2[a],
                           env.row(b) + lane.lo2[a],
                           lane.hi2[a] - lane.lo2[a] + 1);
  };
  // Tile the i dimension in blocks of at most 64 rows so the batch mask
  // fits one word. rem1 rows are row-major in lane.rem, so a block's rows
  // [b0, b1) sit contiguous at rem.data() + b0 * nwords and stay
  // L1-resident while each N(c_j) streams once per block. Rows build
  // incrementally (row i materializes the first time some j > i needs it),
  // so a pair that fires early never pays for the rows after it.
  std::size_t block = std::clamp<std::size_t>(2048 / nwords, 4, 64);
  if (block > m) block = m;
  for (std::size_t b0 = 0; b0 < m; b0 += block) {
    const std::size_t b1 = std::min(m, b0 + block);
    std::size_t built_hi = b0;  // rows [b0, built_hi) are materialized
    for (std::size_t j = b0 + 1; j < m; ++j) {
      const std::size_t iend = std::min(j, b1);
      while (built_hi < iend) {
        simd::andnot_into(lane.rem.data() + built_hi * nwords, vrow,
                          env.row(built_hi), nwords);
        ++built_hi;
      }
      // Bit r set  ⟺  rem1[b0 + r] ⊆ N(c_j)  ⟺  pair (c_{b0+r}, c_j)
      // covers N(v).
      std::uint64_t fires = simd::subset_rows(lane.rem.data() + b0 * nwords,
                                              iend - b0, nwords, env.row(j));
      while (fires != 0) {
        const std::size_t i =
            b0 + static_cast<std::size_t>(std::countr_zero(fires));
        fires &= fires - 1;
        if (simple) {
          if (env.min3(i, j)) return true;
          continue;
        }
        const bool cov_u = covers(i, j);
        const bool cov_w = covers(j, i);
        if (env.refined_cases(i, j, cov_u, cov_w)) return true;
      }
    }
  }
  return false;
}

}  // namespace pacds
