#include <gtest/gtest.h>

#include "math/matrix.h"

namespace capman::math {
namespace {

TEST(Matrix, IdentityDiagonal) {
  const Matrix m = Matrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, LinfDistance) {
  Matrix a(2, 2, 0.0);
  Matrix b(2, 2, 0.0);
  b(1, 0) = 0.7;
  b(0, 1) = -0.2;
  EXPECT_DOUBLE_EQ(a.linf_distance(b), 0.7);
  EXPECT_DOUBLE_EQ(b.linf_distance(a), 0.7);
}

TEST(Matrix, AllIn) {
  Matrix m(3, 3, 0.5);
  EXPECT_TRUE(m.all_in(0.0, 1.0));
  m(2, 2) = 1.5;
  EXPECT_FALSE(m.all_in(0.0, 1.0));
}

TEST(Matrix, FillOverwrites) {
  Matrix m = Matrix::identity(3);
  m.fill(0.25);
  EXPECT_TRUE(m.all_in(0.25, 0.25));
}

}  // namespace
}  // namespace capman::math
