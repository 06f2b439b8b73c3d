// Copyright 2026 The dpcube Authors.
//
// WorkloadProjection must reproduce the per-query scans it replaces: on
// integer counts every marginal and coefficient is bit-equal to
// ComputeMarginal / SparseCounts::FourierCoefficient, whichever route
// the data's shape selects. Each case asserts the route it reaches, so a
// change to the cost rule that stops exercising one route fails here.

#include "marginal/projection.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "marginal/fourier_index.h"

namespace dpcube {
namespace marginal {
namespace {

bool BitEqual(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Every marginal and every coefficient of the projection against the
// direct scans: bit-equal when `tolerance` is 0, else within it.
void ExpectMatchesScans(const WorkloadProjection& projection,
                        const data::SparseCounts& counts,
                        const Workload& workload, double tolerance = 0.0) {
  ASSERT_EQ(projection.marginals().size(), workload.num_marginals());
  for (std::size_t i = 0; i < workload.num_marginals(); ++i) {
    const MarginalTable expected = ComputeMarginal(counts, workload.mask(i));
    const MarginalTable& got = projection.marginals()[i];
    ASSERT_EQ(got.alpha(), expected.alpha());
    ASSERT_EQ(got.d(), expected.d());
    ASSERT_EQ(got.num_cells(), expected.num_cells());
    for (std::size_t g = 0; g < got.num_cells(); ++g) {
      if (tolerance == 0.0) {
        ASSERT_TRUE(BitEqual(got.value(g), expected.value(g)))
            << "marginal " << workload.mask(i) << " cell " << g << ": "
            << got.value(g) << " vs " << expected.value(g);
      } else {
        ASSERT_NEAR(got.value(g), expected.value(g), tolerance);
      }
    }
  }
  const FourierIndex index(workload);
  const linalg::Vector coefficients = projection.FourierCoefficients(index);
  ASSERT_EQ(coefficients.size(), index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const double expected = counts.FourierCoefficient(index.mask(i));
    if (tolerance == 0.0) {
      ASSERT_TRUE(BitEqual(coefficients[i], expected))
          << "coefficient " << index.mask(i) << ": " << coefficients[i]
          << " vs " << expected;
    } else {
      ASSERT_NEAR(coefficients[i], expected, tolerance);
    }
  }
}

data::SparseCounts NltcsCounts(std::size_t rows) {
  Rng rng(31);
  return data::SparseCounts::FromDataset(data::MakeNltcsLike(rows, &rng));
}

// 50k NLTCS-like rows fill about a quarter of the 16-bit domain: the
// shared 2^16 table is the cheaper route. Checked at 1 and 8 threads,
// since the 2^16 transform runs blocked in parallel above one.
TEST(WorkloadProjectionTest, DenseRouteMatchesScans) {
  const data::SparseCounts counts = NltcsCounts(50000);
  const Workload workload = WorkloadQk(data::NltcsSchema(), 2);
  for (int threads : {1, 8}) {
    ThreadPool::ResetSharedPoolForTests(threads);
    const WorkloadProjection projection(counts, workload);
    ASSERT_TRUE(projection.dense()) << "threads=" << threads;
    ExpectMatchesScans(projection, counts, workload);
  }
  ThreadPool::ResetSharedPoolForTests(2);
}

// 2k rows occupy under 2% of the same domain: one scan per mask.
TEST(WorkloadProjectionTest, SparseRouteMatchesScans) {
  const data::SparseCounts counts = NltcsCounts(2000);
  const Workload workload = WorkloadQk(data::NltcsSchema(), 2);
  const WorkloadProjection projection(counts, workload);
  ASSERT_FALSE(projection.dense());
  ExpectMatchesScans(projection, counts, workload);
}

// A 23-bit domain is never projected densely at census sizes.
TEST(WorkloadProjectionTest, AdultShapeTakesSparseRoute) {
  Rng rng(32);
  const data::Dataset dataset = data::MakeAdultLike(5000, &rng);
  const data::SparseCounts counts = data::SparseCounts::FromDataset(dataset);
  const Workload workload = WorkloadQk(dataset.schema(), 2);
  const WorkloadProjection projection(counts, workload);
  ASSERT_FALSE(projection.dense());
  ExpectMatchesScans(projection, counts, workload);
}

// Q2*: the 3-way masks cover the 2-way ones, so most coefficients have
// several covering marginals; each must still match the direct scan.
TEST(WorkloadProjectionTest, NestedWorkloadOnBothRoutes) {
  const Workload workload = WorkloadQkStar(data::NltcsSchema(), 2);
  for (const std::size_t rows : {2000, 50000}) {
    const data::SparseCounts counts = NltcsCounts(rows);
    const WorkloadProjection projection(counts, workload);
    EXPECT_EQ(projection.dense(), rows == 50000) << "rows=" << rows;
    ExpectMatchesScans(projection, counts, workload);
  }
}

TEST(WorkloadProjectionTest, EmptyTable) {
  const data::Dataset empty(data::NltcsSchema());
  const data::SparseCounts counts = data::SparseCounts::FromDataset(empty);
  ASSERT_EQ(counts.num_occupied(), 0u);
  const Workload workload = WorkloadQk(data::NltcsSchema(), 2);
  const WorkloadProjection projection(counts, workload);
  EXPECT_FALSE(projection.dense());
  ExpectMatchesScans(projection, counts, workload);
  for (const MarginalTable& m : projection.marginals()) {
    EXPECT_EQ(m.Total(), 0.0);
  }
}

TEST(WorkloadProjectionTest, SingleOccupiedCell) {
  data::Dataset one(data::NltcsSchema());
  ASSERT_TRUE(
      one.AppendRow({1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0}).ok());
  const data::SparseCounts counts = data::SparseCounts::FromDataset(one);
  ASSERT_EQ(counts.num_occupied(), 1u);
  // Three masks over two bits: 2^2 cells <= 8 x 1 occupied cell, and
  // 2 * 2^2 < 3 masks x 1 cell fails, so this is the sparse route; the
  // apex alone (U = 0) is a one-cell dense table.
  const Workload pairs(16, {0b01, 0b10, 0b11});
  const WorkloadProjection sparse(counts, pairs);
  EXPECT_FALSE(sparse.dense());
  ExpectMatchesScans(sparse, counts, pairs);
  const Workload apex(16, {0});
  const WorkloadProjection dense(counts, apex);
  EXPECT_TRUE(dense.dense());
  ExpectMatchesScans(dense, counts, apex);
}

// Mask 0 (the grand total, coefficient f^0) inside a larger workload,
// on both routes.
TEST(WorkloadProjectionTest, MaskZero) {
  std::vector<bits::Mask> masks = WorkloadQk(data::NltcsSchema(), 2).masks();
  masks.insert(masks.begin(), 0);
  const Workload workload(16, masks);
  for (const std::size_t rows : {2000, 50000}) {
    const data::SparseCounts counts = NltcsCounts(rows);
    const WorkloadProjection projection(counts, workload);
    EXPECT_EQ(projection.dense(), rows == 50000) << "rows=" << rows;
    ExpectMatchesScans(projection, counts, workload);
    ASSERT_EQ(projection.marginals()[0].num_cells(), 1u);
    EXPECT_EQ(projection.marginals()[0].value(0), counts.Total());
  }
}

// Non-integral counts: the routes add in a different order than the
// scans, so they agree to rounding rather than bit for bit.
TEST(WorkloadProjectionTest, FractionalTableWithinRounding) {
  Rng rng(33);
  // Every cell of a 6-bit domain occupied: dense.
  std::vector<double> full(64);
  for (double& v : full) v = 0.25 + 10.0 * rng.NextDouble();
  auto full_table = data::DenseTable::FromCells(full);
  ASSERT_TRUE(full_table.ok());
  const data::SparseCounts full_counts =
      data::SparseCounts::FromDense(full_table.value());
  const Workload pairs = AllKWayBits(6, 2);
  const WorkloadProjection dense(full_counts, pairs);
  ASSERT_TRUE(dense.dense());
  ExpectMatchesScans(dense, full_counts, pairs, 1e-9);

  // A few dozen cells of a 12-bit domain: sparse.
  std::vector<double> few(std::size_t{1} << 12, 0.0);
  for (int i = 0; i < 40; ++i) {
    few[rng.NextUint64() % few.size()] = 0.5 + 7.0 * rng.NextDouble();
  }
  auto few_table = data::DenseTable::FromCells(few);
  ASSERT_TRUE(few_table.ok());
  const data::SparseCounts few_counts =
      data::SparseCounts::FromDense(few_table.value());
  const Workload triples = AllKWayBits(12, 3);
  const WorkloadProjection sparse(few_counts, triples);
  ASSERT_FALSE(sparse.dense());
  ExpectMatchesScans(sparse, few_counts, triples, 1e-9);
}

}  // namespace
}  // namespace marginal
}  // namespace dpcube
