#include <sstream>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/io.h"
#include "test_util.h"

namespace mpcg {
namespace {

using testing::make_family;

TEST(GraphIo, RoundTripUnweighted) {
  const Graph g = make_family("gnp_sparse", 120, 3);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const auto loaded = read_edge_list(buffer);
  ASSERT_EQ(loaded.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.graph.num_edges(), g.num_edges());
  EXPECT_FALSE(loaded.weights.has_value());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded.graph.edge(e).u, g.edge(e).u);
    EXPECT_EQ(loaded.graph.edge(e).v, g.edge(e).v);
  }
}

TEST(GraphIo, RoundTripWeighted) {
  const Graph g = make_family("gnp_sparse", 80, 5);
  Rng rng(5);
  const auto w = uniform_weights(g, 0.5, 2.0, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g, &w);
  const auto loaded = read_edge_list(buffer);
  ASSERT_TRUE(loaded.weights.has_value());
  ASSERT_EQ(loaded.weights->size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR((*loaded.weights)[e], w[e], 1e-6);
  }
}

TEST(GraphIo, SkipsComments) {
  std::stringstream in("# a comment\n3 2\n# another\n0 1\n1 2\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_vertices(), 3U);
  EXPECT_EQ(loaded.graph.num_edges(), 2U);
}

TEST(GraphIo, RejectsMalformedHeader) {
  std::stringstream in("nonsense\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsTruncatedEdgeList) {
  std::stringstream in("4 3\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeEndpoint) {
  std::stringstream in("2 1\n0 5\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsVertexCountBeyondVertexIds) {
  // 2^32 + 1 vertices: ids would need 33 bits. Rejected from the header,
  // before anything is allocated for them.
  std::stringstream in("4294967297 1\n0 1\n");
  try {
    (void)read_edge_list(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2^32"), std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, RejectsExtraRowTokens) {
  for (const char* text : {"3 1\n0 1 x\n", "3 1\n0 1 7 9\n",
                           "3 1\n0 1x\n", "3 1\n0 1 2.5 #\n"}) {
    std::stringstream in(text);
    EXPECT_THROW((void)read_edge_list(in), std::runtime_error) << text;
  }
  // Trailing whitespace (a CRLF file's \r included) is not a token.
  std::stringstream crlf("3 2\r\n0 1 \r\n1 2\t\r\n");
  EXPECT_EQ(read_edge_list(crlf).graph.num_edges(), 2U);
  std::stringstream weighted("3 1\n0 1 2.5 \r\n");
  EXPECT_TRUE(read_edge_list(weighted).weights.has_value());
}

TEST(GraphIo, RejectsMixedWeightedness) {
  std::stringstream in("3 2\n0 1 2.5\n1 2\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, WeightSizeMismatchThrows) {
  const Graph g = path_graph(3);
  std::vector<double> w{1.0};
  std::stringstream out;
  EXPECT_THROW(write_edge_list(out, g, &w), std::invalid_argument);
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = path_graph(5);
  const std::string path = ::testing::TempDir() + "/mpcg_io_test.txt";
  write_edge_list_file(path, g);
  const auto loaded = read_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_edges(), 4U);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW((void)read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(GraphIo, DedupesAndDropsSelfLoopsLikeBuilder) {
  std::stringstream in("3 4\n0 1\n1 0\n2 2\n1 2\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 2U);
}

}  // namespace
}  // namespace mpcg
