// Tests for edge-list serialization: round trips and parse errors.

#include "io/edgelist.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "test_graphs.hpp"

namespace pacds {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;

TEST(EdgelistTest, SerializeFormat) {
  const Graph g = path_graph(3);
  EXPECT_EQ(edgelist_to_string(g), "3 2\n0 1\n1 2\n");
}

TEST(EdgelistTest, RoundTrip) {
  for (const Graph& g :
       {path_graph(6), cycle_graph(7), complete_graph(5), Graph(4)}) {
    const Graph parsed = edgelist_from_string(edgelist_to_string(g));
    EXPECT_EQ(parsed, g);
  }
}

TEST(EdgelistTest, CommentsAndBlankLinesSkipped) {
  const Graph g = edgelist_from_string(
      "# a comment\n\n3 2\n# another\n0 1\n\n1 2\n");
  EXPECT_EQ(g, path_graph(3));
}

TEST(EdgelistTest, MissingHeaderThrows) {
  EXPECT_THROW((void)edgelist_from_string(""), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("# only comments\n"),
               std::runtime_error);
}

TEST(EdgelistTest, BadHeaderThrows) {
  EXPECT_THROW((void)edgelist_from_string("3\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("-1 0\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("a b\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("3 1 9\n0 1\n"), std::runtime_error);
}

TEST(EdgelistTest, VertexCountAboveNodeIdRangeThrows) {
  // Each count would wrap when narrowed to NodeId: to 1 host, to 3 hosts
  // (so edge {0, 2} would fit), and to a negative count.
  for (const char* text :
       {"4294967297 0\n", "4294967299 1\n0 2\n", "2147483648 0\n"}) {
    try {
      (void)edgelist_from_string(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "edge list parse error at line 1: vertex count ", 0),
                0u)
          << e.what();
    }
  }
}

TEST(EdgelistTest, TruncatedEdgesThrow) {
  EXPECT_THROW((void)edgelist_from_string("3 2\n0 1\n"), std::runtime_error);
}

TEST(EdgelistTest, BadEdgeLinesThrow) {
  EXPECT_THROW((void)edgelist_from_string("3 1\n0\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("3 1\n0 1 2\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("3 1\n0 5\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("3 1\n1 1\n"), std::runtime_error);
  EXPECT_THROW((void)edgelist_from_string("3 2\n0 1\n1 0\n"),
               std::runtime_error);
}

TEST(EdgelistTest, ErrorMessagesCarryLineNumbers) {
  try {
    (void)edgelist_from_string("3 1\n0 5\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(EdgelistTest, StreamInterface) {
  std::istringstream is("2 1\n0 1\n");
  const Graph g = read_edgelist(is);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  std::ostringstream os;
  write_edgelist(os, g);
  EXPECT_EQ(os.str(), "2 1\n0 1\n");
}

TEST(EdgelistTest, EmptyGraphRoundTrip) {
  const Graph g = edgelist_from_string("0 0\n");
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(edgelist_to_string(g), "0 0\n");
}

}  // namespace
}  // namespace pacds
