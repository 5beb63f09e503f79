#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "sparse/mm_io.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

TEST(MatrixMarket, WriteReadRoundTrip) {
  CscMat m = testing::random_matrix(25, 19, 3.0, 5);
  std::ostringstream out;
  write_matrix_market(out, m.to_triples());
  std::istringstream in(out.str());
  TripleMat back = read_matrix_market(in);
  testing::expect_mat_near(CscMat::from_triples(std::move(back)), m, 1e-15);
}

TEST(MatrixMarket, ReadsGeneralRealWithComments) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment line\n"
      "% another\n"
      "3 4 2\n"
      "1 1 2.5\n"
      "3 4 -1.0\n");
  const TripleMat m = read_matrix_market(in);
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 4);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.entries()[0], (Triple{0, 0, 2.5}));
  EXPECT_EQ(m.entries()[1], (Triple{2, 3, -1.0}));
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 1.0\n"
      "2 1 2.0\n"
      "3 2 3.0\n");
  TripleMat m = read_matrix_market(in);
  m.canonicalize();
  EXPECT_EQ(m.nnz(), 5);  // diagonal stays single; off-diagonals mirrored
}

TEST(MatrixMarket, PatternEntriesReadAsOnes) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const TripleMat m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.entries()[0].val, 1.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::istringstream in("not a banner\n1 1 0\n");
    EXPECT_THROW(read_matrix_market(in), InvalidArgument);
  }
  {
    std::istringstream in("%%MatrixMarket matrix array real general\n");
    EXPECT_THROW(read_matrix_market(in), InvalidArgument);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n");  // truncated
    EXPECT_THROW(read_matrix_market(in), InvalidArgument);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "5 1 1.0\n");  // out of bounds
    EXPECT_THROW(read_matrix_market(in), std::logic_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n"
        "1 1 1.0 0.0\n");  // unsupported field
    EXPECT_THROW(read_matrix_market(in), InvalidArgument);
  }
}

TEST(MatrixMarket, ReadsTabSeparatedCrlfLines) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "3 4 2\r\n"
      "1\t2\t2.5\r\n"
      " 3 \t4  -1.0\t\r\n");
  const TripleMat m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.entries()[0], (Triple{0, 1, 2.5}));
  EXPECT_EQ(m.entries()[1], (Triple{2, 3, -1.0}));
}

TEST(MatrixMarket, AcceptsExplicitPlusSigns) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 +1.5e+00\n"
      "+2 +2 -2.5E-01\n");
  const TripleMat m = read_matrix_market(in);
  ASSERT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.entries()[0], (Triple{0, 0, 1.5}));
  EXPECT_EQ(m.entries()[1], (Triple{1, 1, -0.25}));
}

TEST(MatrixMarket, RejectsBadEntryLinesAndMissingValues) {
  const std::string head =
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n";
  for (const char* line : {"1 x 1.0\n", "\n", "1\n", "+-1 1 1.0\n",
                           "1 1\n", "1 1 \t\r\n", "1 1 abc\n"}) {
    std::istringstream in(head + line);
    EXPECT_THROW(read_matrix_market(in), InvalidArgument) << line;
  }
}

TEST(MatrixMarket, SeventeenDigitRoundTripIsBitExact) {
  CscMat m = testing::random_matrix(40, 31, 4.0, 7);
  // Full-precision mantissas: only a 17-digit write reads back exactly.
  for (Value& v : m.vals_mutable()) v = v / 3.0 + 1e-7;
  const TripleMat written = m.to_triples();
  std::ostringstream out;
  write_matrix_market(out, written);
  std::istringstream in(out.str());
  const TripleMat back = read_matrix_market(in);
  ASSERT_EQ(back.nnz(), written.nnz());
  for (std::size_t k = 0; k < written.entries().size(); ++k)
    EXPECT_EQ(back.entries()[k], written.entries()[k]) << "entry " << k;
}

TEST(MatrixMarket, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/casp_mm_test.mtx";
  CscMat m = testing::random_matrix(12, 12, 2.0, 6);
  write_matrix_market_file(path, m.to_triples());
  TripleMat back = read_matrix_market_file(path);
  testing::expect_mat_near(CscMat::from_triples(std::move(back)), m, 1e-15);
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"),
               InvalidArgument);
}

}  // namespace
}  // namespace casp
