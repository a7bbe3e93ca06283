#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/graph.h"
#include "graph/graph_database.h"
#include "graph/io.h"

namespace graphsig::graph {
namespace {

Graph MakePath3() {
  // 0(a) -1- 1(b) -2- 2(c)
  Graph g(0);
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 2);
  return g;
}

TEST(GraphTest, AddVertexAndEdge) {
  Graph g = MakePath3();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.vertex_label(1), 1);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(GraphTest, EdgeLabelBetween) {
  Graph g = MakePath3();
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 1);
  EXPECT_EQ(g.EdgeLabelBetween(1, 0), 1);
  EXPECT_EQ(g.EdgeLabelBetween(0, 2), -1);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 0));
}

TEST(GraphTest, VerticesWithinRadius) {
  // Star with center 0 plus a pendant chain 1-4.
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(0, 2, 0);
  g.AddEdge(0, 3, 0);
  g.AddEdge(1, 4, 0);
  auto r0 = g.VerticesWithinRadius(0, 0);
  EXPECT_EQ(r0.size(), 1u);
  auto r1 = g.VerticesWithinRadius(0, 1);
  EXPECT_EQ(r1.size(), 4u);
  auto r2 = g.VerticesWithinRadius(0, 2);
  EXPECT_EQ(r2.size(), 5u);
  auto from4 = g.VerticesWithinRadius(4, 1);
  EXPECT_EQ(from4.size(), 2u);
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = MakePath3();
  Graph sub = g.InducedSubgraph({1, 2});
  EXPECT_EQ(sub.num_vertices(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_EQ(sub.vertex_label(0), 1);
  EXPECT_EQ(sub.vertex_label(1), 2);
  EXPECT_EQ(sub.EdgeLabelBetween(0, 1), 2);
}

TEST(GraphTest, InducedSubgraphDropsOutsideEdges) {
  Graph g = MakePath3();
  Graph sub = g.InducedSubgraph({0, 2});
  EXPECT_EQ(sub.num_edges(), 0);
}

TEST(GraphTest, Connectivity) {
  Graph g = MakePath3();
  EXPECT_TRUE(g.IsConnected());
  g.AddVertex(9);
  EXPECT_FALSE(g.IsConnected());
  Graph empty;
  EXPECT_TRUE(empty.IsConnected());
}

TEST(GraphDatabaseTest, LabelCounts) {
  GraphDatabase db;
  db.Add(MakePath3());
  db.Add(MakePath3());
  auto vcounts = db.VertexLabelCounts();
  EXPECT_EQ(vcounts[0], 2);
  EXPECT_EQ(vcounts[1], 2);
  auto ecounts = db.EdgeLabelCounts();
  EXPECT_EQ(ecounts[1], 2);
  EXPECT_EQ(ecounts[2], 2);
  EXPECT_EQ(db.TotalVertices(), 6);
  EXPECT_EQ(db.TotalEdges(), 4);
}

TEST(GraphDatabaseTest, SubsetAndFilterByTag) {
  GraphDatabase db;
  Graph a = MakePath3();
  a.set_tag(1);
  a.set_id(10);
  Graph b = MakePath3();
  b.set_id(20);
  db.Add(a);
  db.Add(b);
  GraphDatabase active = db.FilterByTag(1);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active.graph(0).id(), 10);
  GraphDatabase sub = db.Subset({1});
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.graph(0).id(), 20);
}

TEST(IoTest, RoundTripNumericLabels) {
  GraphDatabase db;
  Graph g = MakePath3();
  g.set_id(5);
  g.set_tag(1);
  db.Add(g);
  std::ostringstream os;
  WriteGSpanText(db, os);
  auto parsed = ParseGSpanText(os.str(), nullptr, nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().graph(0), g);
}

TEST(IoTest, SymbolicLabelsInterned) {
  const char* text =
      "t # 0\n"
      "v 0 C\n"
      "v 1 N\n"
      "e 0 1 single\n";
  LabelDictionary vdict, edict;
  auto parsed = ParseGSpanText(text, &vdict, &edict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Graph& g = parsed.value().graph(0);
  EXPECT_EQ(vdict.Name(g.vertex_label(0)), "C");
  EXPECT_EQ(vdict.Name(g.vertex_label(1)), "N");
  EXPECT_EQ(edict.Name(g.edge(0).label), "single");
}

TEST(IoTest, RejectsMalformedInput) {
  LabelDictionary vd, ed;
  EXPECT_FALSE(ParseGSpanText("v 0 C\n", &vd, &ed).ok());  // v before t
  EXPECT_FALSE(ParseGSpanText("t # 0\nv 1 C\n", &vd, &ed).ok());  // not dense
  EXPECT_FALSE(
      ParseGSpanText("t # 0\nv 0 C\ne 0 0 1\n", &vd, &ed).ok());  // loop
  EXPECT_FALSE(
      ParseGSpanText("t # 0\nv 0 C\nv 1 C\ne 0 1 1\ne 1 0 1\n", &vd, &ed)
          .ok());  // duplicate edge
  EXPECT_FALSE(
      ParseGSpanText("t # 0\nv 0 C\nv 1 C\ne 0 5 1\n", &vd, &ed).ok());
  EXPECT_FALSE(ParseGSpanText("x 1 2\n", &vd, &ed).ok());
  EXPECT_FALSE(ParseGSpanText("t # 0\nv 0 C\n", nullptr, nullptr).ok());
}

TEST(IoTest, CommentsAndBlankLinesIgnored) {
  const char* text =
      "# header comment\n"
      "\n"
      "t # 3\n"
      "v 0 7\n"
      "\n"
      "# trailing\n";
  auto parsed = ParseGSpanText(text, nullptr, nullptr);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value().graph(0).id(), 3);
}

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary d;
  Label c = d.Intern("C");
  EXPECT_EQ(d.Intern("C"), c);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.Find("C").value(), c);
  EXPECT_FALSE(d.Find("Zz").has_value());
}

}  // namespace
}  // namespace graphsig::graph
