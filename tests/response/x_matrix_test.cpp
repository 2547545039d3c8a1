#include "response/x_matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "response/response_matrix.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

TEST(XMatrix, AddAndQuery) {
  XMatrix xm({2, 3}, 4);
  xm.add_x(1, 0);
  xm.add_x(1, 2);
  xm.add_x(5, 3);
  EXPECT_TRUE(xm.is_x(1, 0));
  EXPECT_FALSE(xm.is_x(1, 1));
  EXPECT_EQ(xm.total_x(), 3u);
  EXPECT_EQ(xm.x_count(1), 2u);
  EXPECT_EQ(xm.x_count(0), 0u);
}

TEST(XMatrix, AddIsIdempotent) {
  XMatrix xm({1, 2}, 2);
  xm.add_x(0, 1);
  xm.add_x(0, 1);
  EXPECT_EQ(xm.total_x(), 1u);
}

TEST(XMatrix, AddCellInsertsARowOnceAndRejectsADuplicate) {
  XMatrix xm({2, 3}, 70);
  BitVec row(70);
  row.set(1);
  row.set(69);
  EXPECT_TRUE(xm.add_cell(4, std::move(row)));
  EXPECT_EQ(xm.total_x(), 2u);
  EXPECT_TRUE(xm.is_x(4, 69));

  BitVec again(70);
  again.set(3);
  EXPECT_FALSE(xm.add_cell(4, std::move(again)));
  EXPECT_EQ(xm.total_x(), 2u);
  EXPECT_FALSE(xm.is_x(4, 3));

  BitVec one(70);
  one.set(0);
  EXPECT_THROW((void)xm.add_cell(6, BitVec(one)), std::invalid_argument);
  EXPECT_THROW((void)xm.add_cell(0, BitVec(69, true)), std::invalid_argument);
  EXPECT_THROW((void)xm.add_cell(0, BitVec(70)), std::invalid_argument);
  EXPECT_EQ(xm.x_cells(), std::vector<std::size_t>{4});
}

TEST(XMatrix, XCellsSortedAndStable) {
  XMatrix xm({3, 3}, 2);
  xm.add_x(7, 0);
  xm.add_x(2, 1);
  xm.add_x(4, 0);
  EXPECT_EQ(xm.x_cells(), (std::vector<std::size_t>{2, 4, 7}));
  xm.add_x(0, 0);
  EXPECT_EQ(xm.x_cells(), (std::vector<std::size_t>{0, 2, 4, 7}));
  EXPECT_EQ(xm.num_x_cells(), 4u);

  // rows() is the same ascending listing, paired with each cell's row.
  const std::vector<XMatrix::Row> rows = xm.rows();
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].cell, xm.x_cells()[i]);
    EXPECT_EQ(rows[i].patterns, &xm.patterns_of(rows[i].cell));
  }
}

TEST(XMatrix, PatternsOfReturnsEmptyForCleanCell) {
  XMatrix xm({1, 3}, 5);
  EXPECT_EQ(xm.patterns_of(2).size(), 5u);
  EXPECT_TRUE(xm.patterns_of(2).none());
}

TEST(XMatrix, XCountInSubset) {
  XMatrix xm({1, 2}, 6);
  for (const std::size_t p : {0u, 2u, 4u}) xm.add_x(0, p);
  BitVec subset(6);
  subset.set(0);
  subset.set(1);
  subset.set(2);
  EXPECT_EQ(xm.x_count_in(0, subset), 2u);
  EXPECT_THROW(xm.x_count_in(0, BitVec(5)), std::invalid_argument);
}

TEST(XMatrix, TotalXInSubset) {
  XMatrix xm({1, 3}, 4);
  xm.add_x(0, 0);
  xm.add_x(1, 0);
  xm.add_x(1, 3);
  BitVec subset(4);
  subset.set(0);
  EXPECT_EQ(xm.total_x_in(subset), 2u);
  subset.set(3);
  EXPECT_EQ(xm.total_x_in(subset), 3u);
}

TEST(XMatrix, DensityMatchesDefinition) {
  XMatrix xm({2, 5}, 10);
  for (std::size_t p = 0; p < 5; ++p) xm.add_x(3, p);
  EXPECT_DOUBLE_EQ(xm.x_density(), 5.0 / 100.0);
}

TEST(XMatrix, BoundsChecked) {
  XMatrix xm({1, 2}, 2);
  EXPECT_THROW(xm.add_x(2, 0), std::invalid_argument);
  EXPECT_THROW(xm.add_x(0, 2), std::invalid_argument);
  EXPECT_THROW(xm.patterns_of(5), std::invalid_argument);
}

TEST(XMatrix, FromResponseMatchesDense) {
  Rng rng(3);
  ResponseMatrix rm({3, 4}, 6);
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t c = 0; c < 12; ++c) {
      const double roll = rng.uniform();
      rm.set(p, c, roll < 0.2 ? Lv::kX : (roll < 0.6 ? Lv::k1 : Lv::k0));
    }
  }
  const XMatrix xm = XMatrix::from_response(rm);
  EXPECT_EQ(xm.total_x(), rm.total_x());
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t c = 0; c < 12; ++c) {
      EXPECT_EQ(xm.is_x(c, p), rm.is_x(p, c));
    }
  }
}

}  // namespace
}  // namespace xh
