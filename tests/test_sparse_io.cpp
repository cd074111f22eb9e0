#include <gtest/gtest.h>

#include <sstream>

#include "common/faultinject.hpp"
#include "graph/io.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

TEST(EdgeList, RoundTrip) {
  Graph g = test::SmallRmat(50, 200, 0.1, 163);
  std::stringstream ss;
  ASSERT_TRUE(WriteEdgeList(g, ss).ok());
  auto back = ReadEdgeList(ss, g.num_nodes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  EXPECT_EQ(CsrMatrix::MaxAbsDiff(g.adjacency(), back->adjacency()), 0.0);
}

TEST(EdgeList, InfersNodeCount) {
  std::stringstream ss("0 5\n3 2\n");
  auto g = ReadEdgeList(ss);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 6);
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(EdgeList, SkipsCommentsAndRejectsGarbage) {
  std::stringstream ok("# comment\n% other comment\n0 1\n");
  EXPECT_TRUE(ReadEdgeList(ok).ok());
  std::stringstream bad("0 x\n");
  EXPECT_EQ(ReadEdgeList(bad).status().code(), StatusCode::kIoError);
  std::stringstream negative("0 -2\n");
  EXPECT_EQ(ReadEdgeList(negative).status().code(), StatusCode::kIoError);
}

TEST(EdgeList, RejectsTrailingGarbageAndPartialLines) {
  for (const char* text : {"0 1 2\n", "0 1 x\n", "0\n", "0 1.5\n", "0 1e3\n",
                           "+0 1\n", "0 2x\n", "nan 1\n"}) {
    std::stringstream ss(text);
    EXPECT_EQ(ReadEdgeList(ss).status().code(), StatusCode::kIoError) << text;
  }
  // Extra blanks between and around tokens stay legal.
  std::stringstream padded("  0 \t 1  \n\n   \n");
  EXPECT_TRUE(ReadEdgeList(padded).ok());
}

TEST(EdgeList, RejectsOverflowingIds) {
  std::stringstream ss("0 99999999999999999999999999\n");
  auto g = ReadEdgeList(ss);
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("overflow"), std::string::npos);
}

TEST(EdgeList, RejectsIdsBeyondDeclaredNodeCount) {
  std::stringstream ss("0 1\n2 7\n");
  auto g = ReadEdgeList(ss, /*num_nodes=*/5);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  // The message pinpoints the offending line.
  EXPECT_NE(g.status().ToString().find("line 2"), std::string::npos);
}

TEST(EdgeList, ErrorsCarryLineNumbers) {
  std::stringstream ss("# header\n0 1\nbroken line\n");
  auto g = ReadEdgeList(ss);
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("line 3"), std::string::npos);
}

TEST(EdgeList, InjectedIoFaultSurfacesMidStream) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kEdgeListRead, /*skip=*/2,
                              /*count=*/1);
  std::stringstream ss("0 1\n1 2\n2 3\n3 4\n");
  auto g = ReadEdgeList(ss);
  FaultInjector::Global().Reset();
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("line 3"), std::string::npos);
}

TEST(EdgeListFile, MissingFile) {
  EXPECT_EQ(ReadEdgeListFile("/nonexistent/graph.txt").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace bepi
