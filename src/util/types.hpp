#pragma once
/// \file types.hpp
/// \brief Fundamental integer types, the edge record and constants used
/// across the library.

#include <cstdint>

namespace bmh {

/// Vertex identifier. 32-bit: the paper's largest instance has ~51M vertices
/// per side, which fits comfortably; laptop-scale reproductions are smaller.
using vid_t = std::int32_t;

/// Edge identifier / CSR offset. 64-bit so that edge counts beyond 2^31 work.
using eid_t = std::int64_t;

/// A single (row, column) structural nonzero. count_scatter's staging holds
/// its items as edges too, the key in `row` and the value in `col`.
struct Edge {
  vid_t row;
  vid_t col;
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Sentinel meaning "no vertex" / "unmatched" (the paper's NIL).
inline constexpr vid_t kNil = -1;

/// The proven approximation ratio of OneSidedMatch: 1 - 1/e.
inline constexpr double kOneSidedGuarantee = 0.63212055882855767;

/// The conjectured approximation ratio of TwoSidedMatch: 2(1 - rho) where
/// rho is the unique root of x e^x = 1 (rho ~= 0.5671432904097838).
inline constexpr double kTwoSidedGuarantee = 0.86571341918044583;

} // namespace bmh
