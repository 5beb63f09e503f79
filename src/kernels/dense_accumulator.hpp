// Dense row accumulator — the one dense accumulator of the local kernels.
//
// A value per row of the block, an occupancy bitmap over those rows, and
// the rows in first-touch order (Gilbert-Moler-Schreiber SPA). Azad et al.
// pick the accumulator by how dense the output block is; a block's row
// range is small enough to index directly, and then a column comes out in
// row order by scanning the bitmap words it touched, with no comparison
// sort. The SPA Local-Multiply kernel and the hash merge's dense path
// (kernels/merge.cpp) both use this class.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace casp {

class DenseRowAccumulator {
 public:
  explicit DenseRowAccumulator(Index nrows)
      : vals_(static_cast<std::size_t>(nrows)),
        bits_((static_cast<std::size_t>(nrows) + 63) / 64, 0) {}

  /// The first touch of `row` assigns `v`; later ones fold `v` in with
  /// SR::add. That is the order the hash accumulators sum in, so both give
  /// the same value bit for bit.
  template <typename SR>
  void accumulate(Index row, Value v) {
    const auto r = static_cast<std::size_t>(row);
    std::uint64_t& word = bits_[r >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    if ((word & bit) == 0) {
      word |= bit;
      vals_[r] = v;
      touched_.push_back(row);
    } else {
      vals_[r] = SR::add(vals_[r], v);
    }
  }

  /// Stores `v` at a row not yet touched; returns false, storing nothing,
  /// when `row` is already there.
  bool insert(Index row, Value v) {
    const auto r = static_cast<std::size_t>(row);
    std::uint64_t& word = bits_[r >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    vals_[r] = v;
    touched_.push_back(row);
    return true;
  }

  /// Distinct rows held.
  Index size() const { return static_cast<Index>(touched_.size()); }

  /// Writes the held entries in first-touch order (a hash table's
  /// insertion order) and clears them.
  void emit_unsorted(Index* rowids, Value* vals) {
    for (std::size_t k = 0; k < touched_.size(); ++k) {
      const auto r = static_cast<std::size_t>(touched_[k]);
      rowids[k] = touched_[k];
      vals[k] = vals_[r];
      bits_[r >> 6] = 0;
    }
    touched_.clear();
  }

  /// Writes the held entries ascending by row and clears them. Scans the
  /// bitmap words between the lowest and highest touched row when there
  /// are no more of them than entries; a wider span sorts the touched rows
  /// instead. Both give the same order. The outputs may alias the arrays
  /// the entries were read from.
  void emit_sorted(Index* rowids, Value* vals) {
    if (touched_.empty()) return;
    const auto [lo, hi] = std::minmax_element(touched_.begin(), touched_.end());
    const auto lo_word = static_cast<std::size_t>(*lo) >> 6;
    const auto hi_word = static_cast<std::size_t>(*hi) >> 6;
    if (hi_word - lo_word < touched_.size()) {
      std::size_t k = 0;
      for (std::size_t w = lo_word; w <= hi_word; ++w) {
        std::uint64_t word = bits_[w];
        if (word == 0) continue;
        bits_[w] = 0;
        const auto base = static_cast<Index>(w << 6);
        do {
          const Index row = base + std::countr_zero(word);
          rowids[k] = row;
          vals[k] = vals_[static_cast<std::size_t>(row)];
          ++k;
          word &= word - 1;
        } while (word != 0);
      }
      touched_.clear();
    } else {
      std::sort(touched_.begin(), touched_.end());
      emit_unsorted(rowids, vals);
    }
  }

  /// Drops the held entries without writing them.
  void clear() {
    for (const Index row : touched_)
      bits_[static_cast<std::size_t>(row) >> 6] = 0;
    touched_.clear();
  }

 private:
  std::vector<Value> vals_;
  std::vector<std::uint64_t> bits_;
  std::vector<Index> touched_;
};

}  // namespace casp
