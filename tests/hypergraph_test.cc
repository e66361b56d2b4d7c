// Conflict hypergraph unit tests.
#include "hypergraph/hypergraph.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

RowId V(uint32_t row) { return RowId{0, row}; }

TEST(HypergraphTest, AddEdgeBasics) {
  ConflictHypergraph g;
  auto e = g.AddEdge({V(1), V(2)}, 0);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.edge(e).size(), 2u);
  EXPECT_EQ(g.edge_constraint(e), 0u);
  EXPECT_TRUE(g.IsConflicting(V(1)));
  EXPECT_TRUE(g.IsConflicting(V(2)));
  EXPECT_FALSE(g.IsConflicting(V(3)));
}

TEST(HypergraphTest, EdgesAreCanonicalized) {
  ConflictHypergraph g;
  auto e1 = g.AddEdge({V(2), V(1)}, 0);
  auto e2 = g.AddEdge({V(1), V(2)}, 1);  // duplicate vertex set
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.edge(e1), (std::vector<RowId>{V(1), V(2)}));
}

TEST(HypergraphTest, DuplicateVerticesCollapse) {
  ConflictHypergraph g;
  auto e = g.AddEdge({V(3), V(3)}, 0);
  EXPECT_EQ(g.edge(e).size(), 1u);  // unary self-conflict
}

TEST(HypergraphTest, IncidenceLists) {
  ConflictHypergraph g;
  g.AddEdge({V(1), V(2)}, 0);
  g.AddEdge({V(1), V(3)}, 0);
  g.AddEdge({V(4)}, 1);
  EXPECT_EQ(g.IncidentEdges(V(1)).size(), 2u);
  EXPECT_EQ(g.IncidentEdges(V(2)).size(), 1u);
  EXPECT_EQ(g.IncidentEdges(V(9)).size(), 0u);
  EXPECT_EQ(g.NumConflictingVertices(), 4u);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(HypergraphTest, EdgeInside) {
  ConflictHypergraph g;
  auto e = g.AddEdge({V(1), V(2), V(3)}, 0);
  VertexSet all = {V(1), V(2), V(3), V(4)};
  VertexSet partial = {V(1), V(2)};
  EXPECT_TRUE(g.EdgeInside(e, all));
  EXPECT_FALSE(g.EdgeInside(e, partial));
}

TEST(HypergraphTest, ContainsFullEdge) {
  ConflictHypergraph g;
  g.AddEdge({V(1), V(2)}, 0);
  g.AddEdge({V(3), V(4), V(5)}, 0);
  EXPECT_TRUE(g.ContainsFullEdge({V(1), V(2), V(9)}));
  EXPECT_FALSE(g.ContainsFullEdge({V(1), V(3), V(4)}));
  EXPECT_TRUE(g.ContainsFullEdge({V(3), V(4), V(5)}));
  EXPECT_FALSE(g.ContainsFullEdge({}));
  EXPECT_FALSE(g.ContainsFullEdge({V(9)}));
}

TEST(HypergraphTest, UnarySelfLoopAlwaysInside) {
  ConflictHypergraph g;
  g.AddEdge({V(7)}, 0);
  EXPECT_TRUE(g.ContainsFullEdge({V(7)}));
}

TEST(HypergraphTest, ConflictingVerticesList) {
  ConflictHypergraph g;
  g.AddEdge({V(1), V(2)}, 0);
  g.AddEdge({V(2), V(3)}, 0);
  std::vector<RowId> vs = g.ConflictingVertices();
  std::sort(vs.begin(), vs.end());
  EXPECT_EQ(vs, (std::vector<RowId>{V(1), V(2), V(3)}));
}

TEST(HypergraphTest, CrossTableVertices) {
  ConflictHypergraph g;
  g.AddEdge({RowId{0, 1}, RowId{1, 1}}, 0);
  EXPECT_TRUE(g.IsConflicting(RowId{0, 1}));
  EXPECT_TRUE(g.IsConflicting(RowId{1, 1}));
  EXPECT_FALSE(g.IsConflicting(RowId{2, 1}));
}

TEST(HypergraphTest, StatsString) {
  ConflictHypergraph g;
  g.AddEdge({V(1), V(2)}, 0);
  std::string s = g.StatsString();
  EXPECT_NE(s.find("1 edges"), std::string::npos);
  EXPECT_NE(s.find("2 conflicting"), std::string::npos);
}

TEST(HypergraphTest, PerTableConflictCounts) {
  ConflictHypergraph g;
  g.AddEdge({RowId{0, 1}, RowId{2, 1}}, 0);
  g.AddEdge({RowId{0, 1}, RowId{0, 2}}, 0);
  EXPECT_EQ(g.NumConflictingVertices(0), 2u);
  EXPECT_EQ(g.NumConflictingVertices(1), 0u);
  EXPECT_EQ(g.NumConflictingVertices(2), 1u);
  EXPECT_EQ(g.NumConflictingVertices(9), 0u);  // never seen
  g.RemoveIncidentEdges(RowId{0, 1});
  EXPECT_EQ(g.NumConflictingVertices(0), 0u);
  EXPECT_EQ(g.NumConflictingVertices(2), 0u);
}

/// Each table's conflicting-vertex count must equal a recount from the
/// live edges.
void ExpectCountsMatchEdges(const ConflictHypergraph& g) {
  std::set<RowId> vertices;
  for (const auto& [vs, constraint] : g.CanonicalEdges()) {
    vertices.insert(vs.begin(), vs.end());
  }
  std::vector<size_t> recount(4, 0);
  for (const RowId& v : vertices) ++recount[v.table];
  for (uint32_t t = 0; t < recount.size(); ++t) {
    ASSERT_EQ(g.NumConflictingVertices(t), recount[t]) << "table " << t;
  }
}

TEST(HypergraphTest, PerTableCountsSurviveRandomMutations) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    auto vertex = [&rng] {
      uint32_t table = static_cast<uint32_t>(rng.Uniform(3));
      return RowId{table, static_cast<uint32_t>(rng.Uniform(10))};
    };
    auto random_edge = [&] {
      std::vector<RowId> vs;
      size_t arity = 1 + rng.Uniform(3);
      for (size_t i = 0; i < arity; ++i) vs.push_back(vertex());
      return vs;
    };
    auto mutate = [&](ConflictHypergraph* g, int steps) {
      for (int s = 0; s < steps; ++s) {
        switch (rng.Uniform(4)) {
          case 0: {
            std::vector<RowId> vs = random_edge();
            g->AddEdge(std::move(vs), static_cast<uint32_t>(rng.Uniform(2)));
            break;
          }
          case 1:
            if (g->NumEdgeSlots() > 0) {
              g->RemoveEdge(static_cast<ConflictHypergraph::EdgeId>(
                  rng.Uniform(g->NumEdgeSlots())));
            }
            break;
          case 2:
            g->RemoveIncidentEdges(vertex());
            break;
          default: {
            std::vector<EdgeBuffer> buffers(2);
            for (EdgeBuffer& b : buffers) {
              for (int i = 0; i < 3; ++i) {
                std::vector<RowId> vs = random_edge();
                b.Add(std::move(vs), static_cast<uint32_t>(rng.Uniform(2)));
              }
            }
            g->BulkLoad(std::move(buffers));
            break;
          }
        }
        ExpectCountsMatchEdges(*g);
        if (::testing::Test::HasFatalFailure()) return;
      }
    };
    ConflictHypergraph g;
    mutate(&g, 60);
    // Both sides of a Share() mutate independently.
    ConflictHypergraph shared = g.Share();
    mutate(&g, 40);
    mutate(&shared, 40);
    ConflictHypergraph deep = shared.DeepCopy();
    mutate(&deep, 40);
    ExpectCountsMatchEdges(g);
    ExpectCountsMatchEdges(shared);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hippo
