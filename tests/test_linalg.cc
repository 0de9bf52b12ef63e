/**
 * @file
 * Unit tests for the small linear-algebra helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/linalg.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace gcm::stats;
using gcm::GcmError;

TEST(Linalg, CholeskyLogDetIdentity)
{
    SymmetricMatrix m(3);
    for (std::size_t i = 0; i < 3; ++i)
        m.at(i, i) = 1.0;
    EXPECT_NEAR(choleskyLogDet(m), 0.0, 1e-12);
}

TEST(Linalg, CholeskyLogDetDiagonal)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 4.0;
    m.at(1, 1) = 9.0;
    EXPECT_NEAR(choleskyLogDet(m), std::log(36.0), 1e-12);
}

TEST(Linalg, CholeskyLogDetGeneral)
{
    // det([[2,1],[1,2]]) = 3.
    SymmetricMatrix m(2);
    m.at(0, 0) = 2.0;
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 1.0;
    m.at(1, 1) = 2.0;
    EXPECT_NEAR(choleskyLogDet(m), std::log(3.0), 1e-12);
}

TEST(Linalg, NonPositiveDefiniteThrows)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 1.0;
    m.at(0, 1) = 2.0;
    m.at(1, 0) = 2.0;
    m.at(1, 1) = 1.0; // eigenvalues 3, -1
    EXPECT_THROW(choleskyLogDet(m), GcmError);
}

TEST(Linalg, CovarianceDiagonalIsVariance)
{
    const std::vector<std::vector<double>> vars = {
        {1, 2, 3, 4}, {2, 2, 2, 2}};
    const auto cov = covarianceMatrix(vars);
    EXPECT_NEAR(cov.at(0, 0), 5.0 / 3.0, 1e-12); // var of 1..4
    EXPECT_NEAR(cov.at(1, 1), 0.0, 1e-12);
    EXPECT_NEAR(cov.at(0, 1), 0.0, 1e-12);
}

TEST(Linalg, CovarianceOfPerfectlyCorrelated)
{
    const std::vector<std::vector<double>> vars = {
        {1, 2, 3}, {2, 4, 6}};
    const auto cov = covarianceMatrix(vars);
    EXPECT_NEAR(cov.at(0, 1), 2.0 * cov.at(0, 0), 1e-12);
}

TEST(Linalg, CovarianceRidgeAddsToDiagonal)
{
    const std::vector<std::vector<double>> vars = {{1, 2, 3}};
    const auto plain = covarianceMatrix(vars, 0.0);
    const auto ridged = covarianceMatrix(vars, 0.5);
    EXPECT_NEAR(ridged.at(0, 0) - plain.at(0, 0), 0.5, 1e-12);
}

TEST(Linalg, Submatrix)
{
    SymmetricMatrix m(3);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j)
            m.at(i, j) = static_cast<double>(i * 3 + j);
    }
    const auto sub = m.submatrix({0, 2});
    EXPECT_EQ(sub.size(), 2u);
    EXPECT_DOUBLE_EQ(sub.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(sub.at(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(sub.at(1, 1), 8.0);
}

TEST(Linalg, CholeskyInverseTimesMatrixIsIdentity)
{
    // A ridged sample covariance with more variables than samples,
    // the shape MIS inverts.
    gcm::Rng rng(29);
    std::vector<std::vector<double>> vars(12);
    for (auto &v : vars) {
        for (int i = 0; i < 8; ++i)
            v.push_back(rng.normal());
    }
    const auto a = covarianceMatrix(vars, 0.05);
    const auto p = choleskyInverse(a);
    ASSERT_EQ(p.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < a.size(); ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < a.size(); ++k)
                s += a.at(i, k) * p.at(k, j);
            EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-9);
            EXPECT_EQ(p.at(i, j), p.at(j, i));
        }
    }
}

TEST(Linalg, CholeskyInverseOfDiagonal)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 4.0;
    m.at(1, 1) = 0.5;
    const auto p = choleskyInverse(m);
    EXPECT_DOUBLE_EQ(p.at(0, 0), 0.25);
    EXPECT_DOUBLE_EQ(p.at(1, 1), 2.0);
    EXPECT_EQ(p.at(0, 1), 0.0);
}

TEST(Linalg, CholeskyInverseNonPositiveDefiniteThrows)
{
    SymmetricMatrix m(2);
    m.at(0, 0) = 1.0;
    m.at(0, 1) = 2.0;
    m.at(1, 0) = 2.0;
    m.at(1, 1) = 1.0; // eigenvalues 3, -1
    EXPECT_THROW(choleskyInverse(m), GcmError);
}
