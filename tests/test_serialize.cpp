// Save/Load round-trips of the preprocessed BePI model.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/bepi.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(Serialize, RoundTripPreservesQueries) {
  Graph g = test::SmallRmat(150, 650, 0.25, 1039);
  BepiOptions options;
  options.mode = BepiMode::kPreconditioned;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());

  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  auto loaded = BepiSolver::Load(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (index_t seed : {0, 42, 149}) {
    auto r1 = original.Query(seed);
    auto r2 = loaded->Query(seed);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_LT(DistL2(*r1, *r2), 1e-12) << "seed " << seed;
  }
}

TEST(Serialize, RoundTripAllModes) {
  Graph g = test::SmallRmat(90, 380, 0.2, 1049);
  for (BepiMode mode : {BepiMode::kBasic, BepiMode::kSparsified,
                        BepiMode::kPreconditioned}) {
    BepiOptions options;
    options.mode = mode;
    BepiSolver original(options);
    ASSERT_TRUE(original.Preprocess(g).ok());
    std::stringstream stream;
    ASSERT_TRUE(original.Save(stream).ok());
    auto loaded = BepiSolver::Load(stream);
    ASSERT_TRUE(loaded.ok()) << BepiModeName(mode);
    EXPECT_EQ(loaded->name(), original.name());
    auto r1 = original.Query(7);
    auto r2 = loaded->Query(7);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_LT(DistL2(*r1, *r2), 1e-12);
  }
}

TEST(Serialize, LoadedModelSupportsPpr) {
  Graph g = test::SmallRmat(80, 330, 0.2, 1051);
  BepiOptions options;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());
  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  auto loaded = BepiSolver::Load(stream);
  ASSERT_TRUE(loaded.ok());
  auto q = PersonalizationVector(80, {{1, 1.0}, {50, 2.0}});
  ASSERT_TRUE(q.ok());
  auto r1 = original.QueryVector(*q);
  auto r2 = loaded->QueryVector(*q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(DistL2(*r1, *r2), 1e-12);
}

TEST(Serialize, FileRoundTrip) {
  Graph g = test::SmallRmat(60, 250, 0.2, 1061);
  BepiOptions options;
  BepiSolver original(options);
  ASSERT_TRUE(original.Preprocess(g).ok());
  const std::string path = testing::TempDir() + "/bepi_model_test.txt";
  ASSERT_TRUE(original.SaveFile(path).ok());
  auto loaded = BepiSolver::LoadFile(path);
  ASSERT_TRUE(loaded.ok());
  auto r1 = original.Query(3);
  auto r2 = loaded->Query(3);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(DistL2(*r1, *r2), 1e-12);
}

TEST(Serialize, SaveRequiresPreprocess) {
  BepiSolver solver(BepiOptions{});
  std::stringstream stream;
  EXPECT_EQ(solver.Save(stream).code(), StatusCode::kFailedPrecondition);
}

TEST(Serialize, LoadRejectsGarbage) {
  {
    std::stringstream empty;
    EXPECT_EQ(BepiSolver::Load(empty).status().code(), StatusCode::kIoError);
  }
  {
    std::stringstream wrong("NOT-A-MODEL\n");
    EXPECT_EQ(BepiSolver::Load(wrong).status().code(), StatusCode::kIoError);
  }
  {
    std::stringstream truncated("BEPI-MODEL v5\n%section options 48 0");
    EXPECT_FALSE(BepiSolver::Load(truncated).ok());
  }
  {
    // Inconsistent partition sizes behind a valid checksum: n1 + n2 + n3
    // (bytes 8..32 of the perm section) no longer adds up to n.
    Graph g = test::SmallRmat(30, 120, 0.2, 1057);
    BepiSolver original(BepiOptions{});
    ASSERT_TRUE(original.Preprocess(g).ok());
    std::stringstream stream;
    ASSERT_TRUE(original.Save(stream).ok());
    auto loaded = BepiSolver::Load(test::ReframeSection(
        stream.str(), BepiSolver::kModelMagic, "perm", [](std::string* p) {
          std::uint64_t n1 = 0;
          std::memcpy(&n1, p->data() + 8, sizeof(n1));
          ++n1;
          std::memcpy(p->data() + 8, &n1, sizeof(n1));
        }));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("partition sizes"),
              std::string::npos)
        << loaded.status().ToString();
  }
  EXPECT_EQ(BepiSolver::LoadFile("/nonexistent/model").status().code(),
            StatusCode::kIoError);
}

TEST(Serialize, LoadRejectsTamperedPermutation) {
  Graph g = test::SmallRmat(40, 160, 0.2, 1063);
  BepiSolver original(BepiOptions{});
  ASSERT_TRUE(original.Preprocess(g).ok());
  std::stringstream stream;
  ASSERT_TRUE(original.Save(stream).ok());
  // Repeat an id in the permutation behind a valid checksum: the section
  // is n, n1, n2, n3 and the index width (8 bytes each), then the entries
  // from the next 64-byte boundary.
  const std::string tampered = test::ReframeSection(
      stream.str(), BepiSolver::kModelMagic, "perm", [](std::string* p) {
        std::uint64_t width = 0;
        std::memcpy(&width, p->data() + 32, sizeof(width));
        ASSERT_LE(64 + 2 * width, p->size());
        std::memcpy(p->data() + 64 + width, p->data() + 64, width);
      });
  auto loaded = BepiSolver::Load(tampered);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("permutation"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace bepi
