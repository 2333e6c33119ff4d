// Tests for SNAP text graph serialization.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"

namespace tcim::graph {
namespace {

TEST(SnapReader, ParsesBasicEdgeList) {
  std::istringstream in("0 1\n1 2\n0 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(SnapReader, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# Directed graph (each unordered pair of nodes is saved once)\n"
      "% another comment style\n"
      "\n"
      "   \t \n"
      "0\t1\n"
      "# trailing comment\n"
      "1\t2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, RemapsSparseIds) {
  std::istringstream in("1000000 42\n42 99999\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  // Remap is by sorted original id: 42->0, 99999->1, 1000000->2.
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(SnapReader, RemapsIdsBeyond32Bits) {
  // Raw ids are parsed as 64-bit values and remapped densely, so ids
  // past 2^32 neither truncate nor collide.
  std::istringstream in("4294967296 7\n7 4294967297\n4294967297 4294967296\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  // Remap is by sorted original id: 7->0, 2^32->1, 2^32+1->2.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(SnapReader, EmptyOrCommentOnlyInputGivesEmptyGraph) {
  for (const char* text : {"", "\n\n", "# nodes: 0 edges: 0\n% empty\n"}) {
    std::istringstream in(text);
    const Graph g = ReadSnapEdgeList(in);
    EXPECT_EQ(g.num_vertices(), 0u) << '"' << text << '"';
    EXPECT_EQ(g.num_edges(), 0u) << '"' << text << '"';
  }
}

TEST(SnapReader, DropsDuplicatesAndSelfLoops) {
  std::istringstream in("0 1\n1 0\n0 1\n2 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SnapReader, ThrowsOnGarbage) {
  std::istringstream in("0 1\nnot numbers\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
}

TEST(SnapReader, ThrowsOnMissingSecondId) {
  std::istringstream in("0\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
}

TEST(SnapReader, IgnoresExtraColumns) {
  std::istringstream in("0 1 1588893600\n1 2 1588893700\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, RejectsTrailingJunkGluedToAnId) {
  // "1 2garbage" must not silently parse as edge (1, 2).
  std::istringstream second("1 2garbage\n");
  EXPECT_THROW(ReadSnapEdgeList(second), std::runtime_error);
  std::istringstream first("1x 2\n");
  EXPECT_THROW(ReadSnapEdgeList(first), std::runtime_error);
}

TEST(SnapReader, RejectsNonNumericExtraColumns) {
  std::istringstream in("0 1 ok-then\n");
  EXPECT_THROW(ReadSnapEdgeList(in), std::runtime_error);
  std::istringstream glued("0 1 123abc\n");
  EXPECT_THROW(ReadSnapEdgeList(glued), std::runtime_error);
}

TEST(SnapReader, AcceptsRealValuedWeightColumns) {
  // Weighted edge lists carry float weights; they are numeric extra
  // columns, not junk.
  std::istringstream in("0 1 0.75\n1 2 -3.5e-2 7\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapReader, JunkErrorsNameTheLine) {
  std::istringstream in("0 1\n# fine\n2 3oops\n");
  try {
    (void)ReadSnapEdgeList(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SnapReader, AcceptsCrlfLineEndings) {
  std::istringstream in("# comment\r\n0\t1\r\n1 2 1588893600\r\n\r\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(SnapReader, BothCommentStylesAnywhere) {
  std::istringstream in(
      "% matrix-market style header\n"
      "0 1\n"
      "  # indented snap comment\n"
      "  % indented percent comment\n"
      "1 2\n");
  const Graph g = ReadSnapEdgeList(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapRoundTrip, WriteThenReadPreservesGraph) {
  const Graph original = HolmeKim(200, 1000, 0.5, 3);
  std::stringstream buffer;
  WriteSnapEdgeList(original, buffer);
  const Graph restored = ReadSnapEdgeList(buffer);
  ASSERT_EQ(restored.num_vertices(), original.num_vertices());
  ASSERT_EQ(restored.num_edges(), original.num_edges());
  EXPECT_TRUE(std::equal(original.adjacency().begin(),
                         original.adjacency().end(),
                         restored.adjacency().begin()));
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(ReadSnapEdgeListFile("/nonexistent/path.txt"),
               std::runtime_error);
}

TEST(FileIo, WriteAndReadBackFiles) {
  const Graph original = ErdosRenyi(50, 120, 6);
  const std::string text_path = ::testing::TempDir() + "/tcim_io_test.txt";
  {
    std::ofstream out(text_path);
    WriteSnapEdgeList(original, out);
  }
  const Graph from_text = ReadSnapEdgeListFile(text_path);
  EXPECT_EQ(from_text.num_edges(), original.num_edges());
}

}  // namespace
}  // namespace tcim::graph
