// Copyright 2026 The dpcube Authors.
//
// The contingency table x in R^N (N = 2^d): the database representation on
// which all linear queries operate. Two forms are provided:
//
//  * DenseTable   — the full 2^d cell vector. Practical up to d ~ 24.
//  * SparseCounts — (cell, count) pairs over occupied cells only. Real
//    datasets occupy far fewer cells than 2^d; marginals and Fourier
//    coefficients are computed from the occupied cells (a workload's
//    worth at once by marginal::WorkloadProjection), which is how the
//    library scales to the Adult-size 23-bit domain without
//    materialising x.

#ifndef DPCUBE_DATA_CONTINGENCY_TABLE_H_
#define DPCUBE_DATA_CONTINGENCY_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "data/dataset.h"

namespace dpcube {
namespace data {

/// Dense contingency table: cell c holds the number of tuples encoding to c.
class DenseTable {
 public:
  /// Zero table over a d-bit domain (d <= 26 to bound memory).
  static Result<DenseTable> Zero(int d);

  /// Builds the table from a dataset (fails if the encoded domain is too
  /// large to materialise densely).
  static Result<DenseTable> FromDataset(const Dataset& dataset);

  /// Builds from an explicit cell vector (size must be a power of two).
  static Result<DenseTable> FromCells(std::vector<double> cells);

  int d() const { return d_; }
  std::uint64_t domain_size() const { return std::uint64_t{1} << d_; }

  double cell(bits::Mask c) const { return cells_[c]; }
  double& cell(bits::Mask c) { return cells_[c]; }
  const std::vector<double>& cells() const { return cells_; }
  std::vector<double>& mutable_cells() { return cells_; }

  /// Total tuple count (sum of all cells).
  double Total() const;

 private:
  DenseTable(int d, std::vector<double> cells)
      : d_(d), cells_(std::move(cells)) {}
  int d_;
  std::vector<double> cells_;
};

/// Sparse contingency table: sorted (cell, count) pairs, zero cells omitted.
class SparseCounts {
 public:
  struct Entry {
    bits::Mask cell = 0;
    double count = 0.0;
  };

  /// Aggregates a dataset's encoded rows.
  static SparseCounts FromDataset(const Dataset& dataset);

  /// From a dense table (drops zero cells).
  static SparseCounts FromDense(const DenseTable& dense);

  int d() const { return d_; }
  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t num_occupied() const { return entries_.size(); }

  /// Total tuple count.
  double Total() const;

  /// Materialises the dense table (requires d small enough).
  Result<DenseTable> ToDense() const;

  /// Fourier coefficient <f^alpha, x> = 2^{-d/2} sum_cells count *
  /// (-1)^{<alpha, cell>}, in O(num_occupied): one scan per coefficient.
  /// The strategies measure a whole workload's coefficients through
  /// marginal::WorkloadProjection instead; this is the direct reference
  /// it is tested against.
  double FourierCoefficient(bits::Mask alpha) const;

 private:
  SparseCounts(int d, std::vector<Entry> entries)
      : d_(d), entries_(std::move(entries)) {}
  int d_;
  std::vector<Entry> entries_;  // Sorted by cell, unique.
};

}  // namespace data
}  // namespace dpcube

#endif  // DPCUBE_DATA_CONTINGENCY_TABLE_H_
