// Matrix distribution on the 3D grid (Fig. 1).
//
// A-style (used for A, C, and the per-layer D): rows are split into q
// parts by grid row i; columns are split into q parts by grid column j and
// each part further into l layer slices by k — so layer k holds an
// n x (n/l) slice of A that respects the 2D block boundaries (Fig. 1c-e).
//
// B-style: the mirror image — rows get the (part j -> then -> layer slice)
// treatment keyed by grid *row* i, columns are split into q parts by grid
// column j (Fig. 1f-h). With these two layouts the stage-s broadcasts in
// SUMMA2D align exactly: A's column slice (part s, sub k) meets B's row
// slice (part s, sub k).
//
// All partition boundaries use part_low (floor) arithmetic, so nothing
// requires divisibility; nested splits compose exactly (see common/math.hpp).
#pragma once

#include <utility>
#include <vector>

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"

namespace casp {

/// A contiguous global index range [start, start + count).
struct LocalRange {
  Index start = 0;
  Index count = 0;
};

/// One rank's piece of a matrix distributed on the 3D grid, with the global
/// coordinates it covers. Local indices are 0-based within the ranges.
struct DistMat3D {
  CscMat local;
  Index global_rows = 0;
  Index global_cols = 0;
  /// Total nonzeros of the *global* matrix. Grid-independent (both styles
  /// partition every nonzero exactly once), so checkpoint job identities
  /// built from it survive a resume on a different grid shape.
  Index global_nnz = 0;
  LocalRange rows;
  LocalRange cols;
};

// Global ranges owned by rank (i, j, k) of the grid:
LocalRange a_style_row_range(const Grid3D& grid, Index global_rows);
LocalRange a_style_col_range(const Grid3D& grid, Index global_cols);
LocalRange b_style_row_range(const Grid3D& grid, Index global_rows);
LocalRange b_style_col_range(const Grid3D& grid, Index global_cols);

/// Extract the submatrix [r0, r1) x [c0, c1) with reindexed (local)
/// coordinates. O(entries in the column range).
CscMat extract_block(const CscMat& m, Index r0, Index r1, Index c0, Index c1);

/// Each rank extracts its block from a replicated global matrix.
/// (Real deployments would scatter from parallel I/O; for experiments the
/// generator output is available everywhere and extraction is exact.)
DistMat3D distribute_a_style(const Grid3D& grid, const CscMat& global);
DistMat3D distribute_b_style(const Grid3D& grid, const CscMat& global);

/// Layer-balanced inner index (DESIGN.md § 5m). Returns (A·Q, Qᵀ·B) for a
/// permutation Q of the inner index k, so the product is exactly A·B with
/// C's layout unchanged, while every layer of a `ranks` x `layers` grid
/// gets an equal share of the multiply. The weight of k is
/// nnz(A(:,k)) * nnz(B(k,:)); in descending weight (ties by index) each k
/// goes to the least-loaded layer that still has a free slot (ties to the
/// lowest layer), a layer's slots being its A-style column / B-style row
/// slices. Inside a layer the ks keep their original order, so shapes and
/// DistMat3D ranges are those of A and B. Deterministic; O(nnz) apart from
/// an O(n log n) sort of the weights. At layers == 1 every split already
/// spans all layers, and A and B come back untouched.
std::pair<CscMat, CscMat> balance_inner_layers(CscMat a, CscMat b, int ranks,
                                               int layers);

// Reassembly. Each rank ships its packed CSC block with the block's global
// origin (packed_block_size bytes); the receiver reads its own block in
// place and assembles the global matrix in O(nnz + ncols) with no triple
// sort: blocks are taken in row-start order, colptr is the sum of the
// per-column counts, and each block's column segment is copied to a
// per-column cursor with the row offset added. Only a column whose row ids
// are not strictly increasing (sort_final = false, or a merge kind that
// left a duplicate row) is canonicalized, on its own: sorted, duplicates
// summed, as TripleMat::canonicalize would. The result is therefore
// bit-identical to CscMat::from_triples over the same entries. The old
// triple path's bounds checks stay as CASP_CHECKs: every block lies inside
// the global shape, and blocks sharing a column own disjoint rows. Both
// variants work for either style, since DistMat3D carries its global
// ranges.

/// Collective: reassemble onto every rank (tests, MCL's replicated
/// iterate, result verification) — an allgather of the packed blocks.
CscMat gather_dist(Grid3D& grid, const DistMat3D& dist);

/// Collective: reassemble onto world rank 0 only — a gather of the packed
/// blocks, so delivery moves about (p-1)/p of one copy of the matrix
/// instead of p copies. Every other rank returns an empty CscMat.
CscMat gather_dist_root(Grid3D& grid, const DistMat3D& dist);

/// As above, consuming `dist`: with one rank whose block has canonical
/// columns (sort_final on), that block is moved into the result instead of
/// assembled into a copy. Otherwise it is the gather above.
CscMat gather_dist_root(Grid3D& grid, DistMat3D&& dist);

/// Bytes one rank ships in either gather: its packed CSC block plus the
/// block's (row, col) origin.
Bytes packed_block_size(const DistMat3D& dist);

}  // namespace casp
