#include "grid/dist.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "sparse/serialize.hpp"

namespace casp {

LocalRange a_style_row_range(const Grid3D& grid, Index global_rows) {
  const Index q = grid.q();
  return {part_low(grid.row(), q, global_rows),
          part_size(grid.row(), q, global_rows)};
}

LocalRange a_style_col_range(const Grid3D& grid, Index global_cols) {
  const Index q = grid.q();
  const Index l = grid.layers();
  const Index part_start = part_low(grid.col(), q, global_cols);
  const Index psize = part_size(grid.col(), q, global_cols);
  return {part_start + part_low(grid.layer(), l, psize),
          part_size(grid.layer(), l, psize)};
}

LocalRange b_style_row_range(const Grid3D& grid, Index global_rows) {
  const Index q = grid.q();
  const Index l = grid.layers();
  const Index part_start = part_low(grid.row(), q, global_rows);
  const Index psize = part_size(grid.row(), q, global_rows);
  return {part_start + part_low(grid.layer(), l, psize),
          part_size(grid.layer(), l, psize)};
}

LocalRange b_style_col_range(const Grid3D& grid, Index global_cols) {
  const Index q = grid.q();
  return {part_low(grid.col(), q, global_cols),
          part_size(grid.col(), q, global_cols)};
}

CscMat extract_block(const CscMat& m, Index r0, Index r1, Index c0, Index c1) {
  CASP_CHECK(0 <= r0 && r0 <= r1 && r1 <= m.nrows());
  CASP_CHECK(0 <= c0 && c0 <= c1 && c1 <= m.ncols());
  const Index ncols = c1 - c0;
  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  std::vector<Index> rowids;
  std::vector<Value> vals;
  for (Index j = c0; j < c1; ++j) {
    const auto rows = m.col_rowids(j);
    const auto values = m.col_vals(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (rows[k] >= r0 && rows[k] < r1) {
        rowids.push_back(rows[k] - r0);
        vals.push_back(values[k]);
      }
    }
    colptr[static_cast<std::size_t>(j - c0) + 1] =
        static_cast<Index>(rowids.size());
  }
  return CscMat(r1 - r0, ncols, std::move(colptr), std::move(rowids),
                std::move(vals));
}

DistMat3D distribute_a_style(const Grid3D& grid, const CscMat& global) {
  DistMat3D d;
  d.global_rows = global.nrows();
  d.global_cols = global.ncols();
  d.global_nnz = global.nnz();
  d.rows = a_style_row_range(grid, global.nrows());
  d.cols = a_style_col_range(grid, global.ncols());
  d.local = extract_block(global, d.rows.start, d.rows.start + d.rows.count,
                          d.cols.start, d.cols.start + d.cols.count);
  return d;
}

DistMat3D distribute_b_style(const Grid3D& grid, const CscMat& global) {
  DistMat3D d;
  d.global_rows = global.nrows();
  d.global_cols = global.ncols();
  d.global_nnz = global.nnz();
  d.rows = b_style_row_range(grid, global.nrows());
  d.cols = b_style_col_range(grid, global.ncols());
  d.local = extract_block(global, d.rows.start, d.rows.start + d.rows.count,
                          d.cols.start, d.cols.start + d.cols.count);
  return d;
}

namespace {

/// Position -> original inner index k of the layer-balanced order.
std::vector<Index> balanced_inner_order(const CscMat& a, const CscMat& b,
                                        Index q, Index l) {
  const Index n = a.ncols();
  const auto nu = static_cast<std::size_t>(n);
  std::vector<Index> b_row_nnz(nu, 0);
  for (const Index r : b.rowids()) ++b_row_nnz[static_cast<std::size_t>(r)];
  std::vector<Index> weight(nu);
  for (Index k = 0; k < n; ++k)
    weight[static_cast<std::size_t>(k)] =
        a.col_nnz(k) * b_row_nnz[static_cast<std::size_t>(k)];
  std::vector<Index> heaviest(nu);
  std::iota(heaviest.begin(), heaviest.end(), Index{0});
  std::stable_sort(heaviest.begin(), heaviest.end(), [&](Index x, Index y) {
    return weight[static_cast<std::size_t>(x)] >
           weight[static_cast<std::size_t>(y)];
  });

  // A layer's slots: its slice of each of the q column parts.
  const auto lu = static_cast<std::size_t>(l);
  std::vector<Index> free_slots(lu, 0);
  for (Index j = 0; j < q; ++j)
    for (Index t = 0; t < l; ++t)
      free_slots[static_cast<std::size_t>(t)] +=
          part_size(t, l, part_size(j, q, n));
  std::vector<Index> load(lu, 0);
  std::vector<Index> layer_of(nu);
  for (const Index k : heaviest) {
    std::size_t best = lu;
    for (std::size_t t = 0; t < lu; ++t)
      if (free_slots[t] > 0 && (best == lu || load[t] < load[best])) best = t;
    layer_of[static_cast<std::size_t>(k)] = static_cast<Index>(best);
    load[best] += weight[static_cast<std::size_t>(k)];
    --free_slots[best];
  }

  // Each layer's ks, ascending, fill its slices part by part.
  std::vector<std::vector<Index>> members(lu);
  for (Index k = 0; k < n; ++k)
    members[static_cast<std::size_t>(layer_of[static_cast<std::size_t>(k)])]
        .push_back(k);
  std::vector<Index> order(nu);
  for (Index t = 0; t < l; ++t) {
    const std::vector<Index>& mine = members[static_cast<std::size_t>(t)];
    std::size_t next = 0;
    for (Index j = 0; j < q; ++j) {
      const Index part = part_size(j, q, n);
      const Index lo = part_low(j, q, n) + part_low(t, l, part);
      for (Index c = 0; c < part_size(t, l, part); ++c)
        order[static_cast<std::size_t>(lo + c)] = mine[next++];
    }
  }
  return order;
}

/// Column pos of the result is column order[pos] of m.
CscMat gather_columns(const CscMat& m, const std::vector<Index>& order) {
  std::vector<Index> colptr(order.size() + 1, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos)
    colptr[pos + 1] = colptr[pos] + m.col_nnz(order[pos]);
  std::vector<Index> rowids;
  std::vector<Value> vals;
  rowids.reserve(static_cast<std::size_t>(m.nnz()));
  vals.reserve(static_cast<std::size_t>(m.nnz()));
  for (const Index k : order) {
    const auto rows = m.col_rowids(k);
    const auto values = m.col_vals(k);
    rowids.insert(rowids.end(), rows.begin(), rows.end());
    vals.insert(vals.end(), values.begin(), values.end());
  }
  return CscMat(m.nrows(), static_cast<Index>(order.size()),
                std::move(colptr), std::move(rowids), std::move(vals));
}

}  // namespace

std::pair<CscMat, CscMat> balance_inner_layers(CscMat a, CscMat b, int ranks,
                                               int layers) {
  CASP_CHECK_MSG(Grid3D::valid_shape(ranks, layers),
                 "balance_inner_layers: " << ranks << " ranks x " << layers
                                          << " layers is not a grid");
  CASP_CHECK_MSG(a.ncols() == b.nrows(),
                 "balance_inner_layers: inner dimensions " << a.ncols()
                     << " and " << b.nrows() << " differ");
  if (layers == 1) return {std::move(a), std::move(b)};
  const std::vector<Index> order =
      balanced_inner_order(a, b, exact_isqrt(ranks / layers), layers);

  // A·Q gathers A's columns in the new order; Qᵀ·B = (Bᵀ·Q)ᵀ, whose
  // transposes leave every column sorted.
  return {gather_columns(a, order),
          gather_columns(b.transpose(), order).transpose()};
}

namespace {

/// One rank's block as the assembly reads it: its global origin and a
/// read-only view of the local CSC arrays (in place for the caller's own
/// block, inside the received payload for every other block).
struct Block {
  Index row_start = 0;
  Index col_start = 0;
  CscView local;
};

/// Words shipped ahead of each packed block: its global (row, col) origin.
constexpr std::size_t kOriginWords = 2;

Payload pack_block(const DistMat3D& dist) {
  const Index origin[kOriginWords] = {dist.rows.start, dist.cols.start};
  return pack_csc_payload(dist.local, origin);
}

Block own_block(const DistMat3D& dist) {
  const CscMat& m = dist.local;
  return {dist.rows.start, dist.cols.start,
          CscView(m.nrows(), m.ncols(), m.colptr(), m.rowids(), m.vals(),
                  Payload{})};
}

Block received_block(const Payload& p) {
  Index origin[kOriginWords] = {};
  CASP_CHECK_MSG(p.size() >= sizeof(origin),
                 "gather_dist: block shorter than its origin header");
  std::memcpy(origin, p.data(), sizeof(origin));
  return {origin[0], origin[1],
          unpack_csc_view(
              p.subview(sizeof(origin), p.size() - sizeof(origin)))};
}

bool overlaps(Index a, Index a_count, Index b, Index b_count) {
  return a < b + b_count && b < a + a_count;
}

/// Canonicalizes one output column in place exactly as
/// TripleMat::canonicalize does for its entries: sorted by row, duplicate
/// rows summed (zeros kept). Returns the column's new length.
std::size_t canonicalize_column(Index* rows, Value* vals, std::size_t n) {
  std::vector<std::pair<Index, Value>> entries(n);
  for (std::size_t k = 0; k < n; ++k) entries[k] = {rows[k], vals[k]};
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  std::size_t out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (out > 0 && rows[out - 1] == entries[k].first) {
      vals[out - 1] += entries[k].second;
      continue;
    }
    rows[out] = entries[k].first;
    vals[out] = entries[k].second;
    ++out;
  }
  return out;
}

CscMat assemble(Index nrows, Index ncols, std::vector<Block> blocks) {
  for (const Block& b : blocks)
    CASP_CHECK_MSG(b.row_start >= 0 && b.col_start >= 0 &&
                       b.row_start + b.local.nrows() <= nrows &&
                       b.col_start + b.local.ncols() <= ncols,
                   "gather_dist: block at (" << b.row_start << ","
                       << b.col_start << ") of " << b.local.nrows() << "x"
                       << b.local.ncols() << " escapes the " << nrows << "x"
                       << ncols << " matrix");
  for (std::size_t x = 0; x < blocks.size(); ++x)
    for (std::size_t y = x + 1; y < blocks.size(); ++y) {
      const Block& a = blocks[x];
      const Block& b = blocks[y];
      CASP_CHECK_MSG(
          !overlaps(a.col_start, a.local.ncols(), b.col_start,
                    b.local.ncols()) ||
              !overlaps(a.row_start, a.local.nrows(), b.row_start,
                        b.local.nrows()),
          "gather_dist: blocks at (" << a.row_start << "," << a.col_start
              << ") and (" << b.row_start << "," << b.col_start
              << ") share a column and overlap in rows");
    }
  // Row-start order: blocks sharing a column then fill it top to bottom.
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const Block& a, const Block& b) {
                     return a.row_start < b.row_start;
                   });

  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (const Block& b : blocks)
    for (Index j = 0; j < b.local.ncols(); ++j) {
      const Index n = b.local.col_nnz(j);
      CASP_CHECK_MSG(n >= 0, "gather_dist: corrupt block colptr");
      colptr[static_cast<std::size_t>(b.col_start + j) + 1] += n;
    }
  std::partial_sum(colptr.begin(), colptr.end(), colptr.begin());

  const auto nnz = static_cast<std::size_t>(colptr.back());
  std::vector<Index> rowids(nnz);
  std::vector<Value> vals(nnz);
  std::vector<Index> cursor(colptr.begin(), colptr.end() - 1);
  for (const Block& b : blocks)
    for (Index j = 0; j < b.local.ncols(); ++j) {
      const auto rows = b.local.col_rowids(j);
      const auto values = b.local.col_vals(j);
      Index& at = cursor[static_cast<std::size_t>(b.col_start + j)];
      Index* out = rowids.data() + at;
      for (std::size_t k = 0; k < rows.size(); ++k)
        out[k] = rows[k] + b.row_start;
      std::copy(values.begin(), values.end(), vals.data() + at);
      at += static_cast<Index>(rows.size());
    }

  // A column is already canonical when each of its block segments is row
  // sorted. One that is not (sort_final = false, or a merge kind that left
  // a duplicate) is canonicalized on its own and the tail slides down.
  std::size_t out = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(ncols); ++c) {
    const auto lo = static_cast<std::size_t>(colptr[c]);
    const auto hi = static_cast<std::size_t>(colptr[c + 1]);
    colptr[c] = static_cast<Index>(out);
    Index* first = rowids.data() + lo;
    std::size_t n = hi - lo;
    if (std::adjacent_find(first, first + n, std::greater_equal<>()) !=
        first + n)
      n = canonicalize_column(first, vals.data() + lo, n);
    if (out != lo) {
      std::copy(first, first + n, rowids.data() + out);
      std::copy(vals.data() + lo, vals.data() + lo + n, vals.data() + out);
    }
    out += n;
  }
  colptr.back() = static_cast<Index>(out);
  rowids.resize(out);
  vals.resize(out);
  // The constructor's validation adds the per-entry global row bounds.
  return CscMat(nrows, ncols, std::move(colptr), std::move(rowids),
                std::move(vals));
}

/// Assembles from one received handle per rank; the caller's own block is
/// read in place.
CscMat assemble_gathered(const vmpi::Comm& world, const DistMat3D& dist,
                         const std::vector<Payload>& handles) {
  std::vector<Block> blocks;
  blocks.reserve(handles.size());
  for (std::size_t r = 0; r < handles.size(); ++r)
    blocks.push_back(static_cast<int>(r) == world.rank()
                         ? own_block(dist)
                         : received_block(handles[r]));
  return assemble(dist.global_rows, dist.global_cols, std::move(blocks));
}

}  // namespace

Bytes packed_block_size(const DistMat3D& dist) {
  return kOriginWords * sizeof(Index) + packed_size(dist.local);
}

CscMat gather_dist(Grid3D& grid, const DistMat3D& dist) {
  vmpi::Comm& world = grid.world();
  return assemble_gathered(world, dist,
                           world.allgather_payload(pack_block(dist)));
}

CscMat gather_dist_root(Grid3D& grid, const DistMat3D& dist) {
  vmpi::Comm& world = grid.world();
  // Rank 0 reads its own block in place, so it ships nothing to itself.
  const std::vector<Payload> handles = world.gather_payload(
      world.rank() == 0 ? Payload{} : pack_block(dist));
  if (world.rank() != 0) return CscMat{};
  return assemble_gathered(world, dist, handles);
}

CscMat gather_dist_root(Grid3D& grid, DistMat3D&& dist) {
  // One rank: its block is the whole matrix. A block whose columns are
  // already canonical (strictly increasing rows) is the result as it is.
  if (grid.world().size() == 1 && dist.local.columns_sorted()) {
    CASP_CHECK(dist.local.nrows() == dist.global_rows &&
               dist.local.ncols() == dist.global_cols);
    return std::move(dist.local);
  }
  return gather_dist_root(grid, std::as_const(dist));
}

}  // namespace casp
