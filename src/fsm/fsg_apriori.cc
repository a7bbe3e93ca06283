#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "fsm/dfs_code.h"
#include "fsm/miner.h"
#include "graph/isomorphism.h"
#include "util/check.h"
#include "util/timer.h"

namespace graphsig::fsm {
namespace {

using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

// Cap on embeddings enumerated per (pattern, graph) during candidate
// generation. Extensions are structural, so a handful of embeddings per
// occurrence already exposes them; the cap guards pathological symmetry.
constexpr uint64_t kEmbeddingCap = 256;

// Candidate generation enumerates extensions from at most this many
// supporting graphs per pattern. Candidates are purely structural and a
// frequent extension occurs in >= min_support of the parent's supporting
// graphs, so a few dozen generators see it with near-certainty; support
// counting afterwards is always exact.
constexpr size_t kGenerationSample = 32;

struct Candidate {
  Graph graph;
  std::vector<int32_t> tids;  // superset of possible supporting graphs
};

// Intersection of two ascending id lists.
std::vector<int32_t> Intersect(const std::vector<int32_t>& a,
                               const std::vector<int32_t>& b) {
  std::vector<int32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// All connected k-edge sub-patterns reachable by deleting one edge of a
// (k+1)-edge pattern; used for the apriori downward-closure check.
std::vector<Graph> OneEdgeDeletions(const Graph& g) {
  std::vector<Graph> out;
  for (int32_t drop = 0; drop < g.num_edges(); ++drop) {
    Graph reduced;
    reduced.set_id(g.id());
    // Copy all vertices, then all edges but `drop`; strip any vertex that
    // becomes isolated (a deleted leaf edge leaves one).
    std::vector<int32_t> degree(g.num_vertices(), 0);
    for (int32_t e = 0; e < g.num_edges(); ++e) {
      if (e == drop) continue;
      ++degree[g.edge(e).u];
      ++degree[g.edge(e).v];
    }
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (degree[v] > 0) keep.push_back(v);
    }
    if (keep.empty()) continue;  // the 1-edge pattern has no 0-edge parent
    std::vector<VertexId> map(g.num_vertices(), -1);
    for (size_t i = 0; i < keep.size(); ++i) {
      map[keep[i]] = static_cast<VertexId>(i);
      reduced.AddVertex(g.vertex_label(keep[i]));
    }
    for (int32_t e = 0; e < g.num_edges(); ++e) {
      if (e == drop) continue;
      const graph::EdgeRecord& rec = g.edge(e);
      reduced.AddEdge(map[rec.u], map[rec.v], rec.label);
    }
    if (!reduced.IsConnected()) continue;  // not a valid apriori parent
    out.push_back(std::move(reduced));
  }
  return out;
}

}  // namespace

MineResult MineFrequentApriori(const GraphDatabase& db,
                               const MinerConfig& config) {
  GS_CHECK_GE(config.min_support, 1);
  util::WallTimer timer;
  MineResult result;
  bool stopped = false;

  auto over_budget = [&]() {
    return timer.ElapsedSeconds() > config.budget_seconds;
  };
  auto emit = [&](const Pattern& p) {
    if (p.graph.num_edges() >= config.min_edges) {
      result.patterns.push_back(p);
      if (result.patterns.size() >= config.max_patterns) stopped = true;
    }
  };

  if (config.include_single_vertices && config.min_edges <= 0) {
    std::map<Label, std::vector<int32_t>> by_label;
    for (size_t gid = 0; gid < db.size() && !stopped; ++gid) {
      std::set<Label> seen(db.graph(gid).vertex_labels().begin(),
                           db.graph(gid).vertex_labels().end());
      for (Label l : seen) by_label[l].push_back(static_cast<int32_t>(gid));
    }
    for (const auto& [label, gids] : by_label) {
      if (static_cast<int64_t>(gids.size()) < config.min_support) continue;
      Pattern p;
      p.graph.AddVertex(label);
      p.support = static_cast<int64_t>(gids.size());
      p.supporting = gids;
      emit(p);
      if (stopped) break;
    }
  }

  // --- Level 1: frequent single-edge patterns.
  std::map<std::tuple<Label, Label, Label>, std::vector<int32_t>> triples;
  for (size_t gid = 0; gid < db.size(); ++gid) {
    const Graph& g = db.graph(gid);
    std::set<std::tuple<Label, Label, Label>> seen;
    for (const graph::EdgeRecord& e : g.edges()) {
      Label a = g.vertex_label(e.u);
      Label b = g.vertex_label(e.v);
      if (a > b) std::swap(a, b);
      seen.insert({a, e.label, b});
    }
    for (const auto& t : seen) {
      triples[t].push_back(static_cast<int32_t>(gid));
    }
  }

  std::map<std::string, Pattern> current;  // canonical code -> pattern
  for (const auto& [t, gids] : triples) {
    ++result.states_expanded;
    if (static_cast<int64_t>(gids.size()) < config.min_support) continue;
    Pattern p;
    p.graph.AddVertex(std::get<0>(t));
    p.graph.AddVertex(std::get<2>(t));
    p.graph.AddEdge(0, 1, std::get<1>(t));
    p.support = static_cast<int64_t>(gids.size());
    p.supporting = gids;
    if (!stopped) emit(p);
    current.emplace(CanonicalCode(p.graph), std::move(p));
  }

  // --- Level-wise growth.
  int32_t level = 1;
  while (!current.empty() && level < config.max_edges && !stopped &&
         !over_budget()) {
    // Candidate generation: grow every frequent pattern by one edge using
    // its embeddings, dedupe by canonical code, tighten TID lists by
    // intersecting across generating parents.
    std::map<std::string, Candidate> candidates;
    for (const auto& [key, p] : current) {
      if (stopped || over_budget()) break;
      size_t generators = 0;
      for (int32_t gid : p.supporting) {
        if (generators++ >= kGenerationSample) break;
        const Graph& host = db.graph(gid);
        auto embeddings =
            graph::FindAllEmbeddings(p.graph, host, kEmbeddingCap);
        for (const auto& emb : embeddings) {
          std::vector<VertexId> inverse(host.num_vertices(), -1);
          for (size_t pv = 0; pv < emb.size(); ++pv) {
            inverse[emb[pv]] = static_cast<VertexId>(pv);
          }
          for (const graph::EdgeRecord& e : host.edges()) {
            VertexId pu = inverse[e.u];
            VertexId pv = inverse[e.v];
            Graph grown = p.graph;
            if (pu >= 0 && pv >= 0) {
              if (grown.HasEdge(pu, pv)) continue;  // already in pattern
              grown.AddEdge(pu, pv, e.label);
            } else if (pu >= 0) {
              VertexId nv = grown.AddVertex(host.vertex_label(e.v));
              grown.AddEdge(pu, nv, e.label);
            } else if (pv >= 0) {
              VertexId nv = grown.AddVertex(host.vertex_label(e.u));
              grown.AddEdge(pv, nv, e.label);
            } else {
              continue;  // edge does not touch the embedding
            }
            std::string ckey = CanonicalCode(grown);
            auto it = candidates.find(ckey);
            if (it == candidates.end()) {
              candidates.emplace(ckey,
                                 Candidate{std::move(grown), p.supporting});
            } else {
              it->second.tids = Intersect(it->second.tids, p.supporting);
            }
          }
        }
        if (over_budget()) break;
      }
    }

    // Downward-closure pruning: every connected one-edge-deleted
    // sub-pattern must itself be frequent at the previous level.
    std::map<std::string, Pattern> next;
    for (auto& [ckey, cand] : candidates) {
      if (stopped || over_budget()) break;
      ++result.states_expanded;
      bool closed_downward = true;
      for (const Graph& parent : OneEdgeDeletions(cand.graph)) {
        if (current.find(CanonicalCode(parent)) == current.end()) {
          closed_downward = false;
          break;
        }
      }
      if (!closed_downward) continue;

      // Support counting against the TID list.
      Pattern p;
      p.graph = std::move(cand.graph);
      for (int32_t gid : cand.tids) {
        if (graph::IsSubgraphIsomorphic(p.graph, db.graph(gid))) {
          p.supporting.push_back(gid);
        }
      }
      p.support = static_cast<int64_t>(p.supporting.size());
      if (p.support < config.min_support) continue;
      emit(p);
      next.emplace(ckey, std::move(p));
    }
    current = std::move(next);
    ++level;
  }

  result.completed = !stopped && !over_budget();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace graphsig::fsm
