#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "fsm/dfs_code.h"
#include "fsm/miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/timer.h"

namespace graphsig::fsm {

int64_t SupportFromPercent(double percent, size_t db_size) {
  GS_CHECK_GE(percent, 0.0);
  int64_t s = static_cast<int64_t>(
      std::ceil(percent * static_cast<double>(db_size) / 100.0));
  return std::max<int64_t>(s, 1);
}

namespace {

using graph::AdjEntry;
using graph::Graph;
using graph::GraphDatabase;
using graph::Label;
using graph::VertexId;

// One edge of an embedding chain. `edge` points into an adjacency list
// of the database graph, which outlives the run; `prev` points into the
// miner's arena. Walking prev links reconstructs the full embedding of
// the code. Trivially destructible by design: chains live in the task's
// Arena and are freed by rewinding, never destroyed.
struct Emb {
  int32_t gid;
  VertexId from;        // graph vertex the instance starts at
  const AdjEntry* edge;  // instance: (to, label, edge_index)
  const Emb* prev;
};

using Projected = std::vector<const Emb*>;

// Expanded view of one embedding: which graph edges/vertices it uses and
// where each DFS id landed.
struct History {
  std::vector<bool> edge_used;
  std::vector<bool> vertex_used;
  std::vector<VertexId> dfs_to_g;

  History(const Graph& g, const DfsCode& code, const Emb* emb) {
    edge_used.assign(g.num_edges(), false);
    vertex_used.assign(g.num_vertices(), false);
    std::vector<const Emb*> chain;
    for (const Emb* e = emb; e != nullptr; e = e->prev) chain.push_back(e);
    std::reverse(chain.begin(), chain.end());
    GS_CHECK_EQ(chain.size(), code.size());
    dfs_to_g.assign(code.NumVertices(), -1);
    for (size_t i = 0; i < chain.size(); ++i) {
      const Emb* e = chain[i];
      edge_used[e->edge->edge_index] = true;
      vertex_used[e->from] = true;
      vertex_used[e->edge->to] = true;
      if (i == 0) dfs_to_g[code[0].from] = e->from;
      if (code[i].IsForward()) dfs_to_g[code[i].to] = e->edge->to;
    }
  }
};

struct DfsEdgeCmp {
  bool operator()(const DfsEdge& a, const DfsEdge& b) const {
    return DfsEdgeLess(a, b);
  }
};

class GSpanMiner {
 public:
  GSpanMiner(const GraphDatabase& db, const MinerConfig& config)
      : db_(db), config_(config) {}

  MineResult Run() {
    util::WallTimer timer;
    if (config_.include_single_vertices && config_.min_edges <= 0) {
      ReportSingleVertices();
    }

    // Frequent 1-edge seeds, grouped by (from_label, elabel, to_label)
    // with from_label <= to_label; both orientations are kept as
    // embeddings when the endpoint labels are equal. Root embeddings are
    // allocated before any Project frame marks the arena, so they outlive
    // every rewind.
    std::map<std::tuple<Label, Label, Label>, Projected> roots;
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      const Graph& g = db_.graph(gid);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const AdjEntry& adj : g.neighbors(v)) {
          if (g.vertex_label(v) > g.vertex_label(adj.to)) continue;
          roots[{g.vertex_label(v), adj.label, g.vertex_label(adj.to)}]
              .push_back(NewEmb(static_cast<int32_t>(gid), v, &adj, nullptr));
        }
      }
    }

    DfsCode code;
    for (const auto& [key, projected] : roots) {
      if (stopped_) break;
      code.Push({0, 1, std::get<0>(key), std::get<1>(key),
                 std::get<2>(key)});
      Project(code, projected);
      code.Pop();
    }

    result_.seconds = timer.ElapsedSeconds();
    result_.completed = !stopped_;
    result_.embedding_arena_bytes = arena_.bytes_requested();
    return std::move(result_);
  }

 private:
  void ReportSingleVertices() {
    std::map<Label, std::vector<int32_t>> by_label;
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      const graph::Graph& g = db_.graph(gid);
      std::map<Label, bool> seen;
      for (Label l : g.vertex_labels()) {
        if (!seen[l]) {
          seen[l] = true;
          by_label[l].push_back(static_cast<int32_t>(gid));
        }
      }
    }
    for (const auto& [label, gids] : by_label) {
      if (static_cast<int64_t>(gids.size()) < config_.min_support) continue;
      Pattern p;
      p.graph.AddVertex(label);
      p.support = static_cast<int64_t>(gids.size());
      p.supporting = gids;
      Emit(std::move(p));
      if (stopped_) return;
    }
  }

  const Emb* NewEmb(int32_t gid, VertexId from, const AdjEntry* edge,
                    const Emb* prev) {
    Emb* e = arena_.AllocateArray<Emb>(1);
    *e = {gid, from, edge, prev};
    return e;
  }

  static std::vector<int32_t> DistinctGids(const Projected& projected) {
    std::vector<int32_t> gids;
    for (const Emb* e : projected) gids.push_back(e->gid);
    std::sort(gids.begin(), gids.end());
    gids.erase(std::unique(gids.begin(), gids.end()), gids.end());
    return gids;
  }

  void Emit(Pattern p) {
    result_.patterns.push_back(std::move(p));
    if (result_.patterns.size() >= config_.max_patterns) stopped_ = true;
  }

  void Project(DfsCode& code, const Projected& projected) {
    if (stopped_) return;
    std::vector<int32_t> gids = DistinctGids(projected);
    if (static_cast<int64_t>(gids.size()) < config_.min_support) return;
    if (!IsMinimalDfsCode(code)) return;

    ++result_.states_expanded;
    if ((result_.states_expanded & 0x3f) == 0 &&
        budget_timer_.ElapsedSeconds() > config_.budget_seconds) {
      stopped_ = true;
      return;
    }

    if (static_cast<int32_t>(code.size()) >= config_.min_edges) {
      Pattern p;
      p.graph = code.ToGraph();
      p.support = static_cast<int64_t>(gids.size());
      p.supporting = std::move(gids);
      Emit(std::move(p));
      if (stopped_) return;
    }
    if (static_cast<int32_t>(code.size()) >= config_.max_edges) return;

    const std::vector<int> rmpath = code.BuildRmPath();
    const int32_t maxtoc = code[rmpath[0]].to;
    const Label rm_vertex_label = code[rmpath[0]].to_label;
    const Label min_label = code[0].from_label;

    // Child embeddings live in this frame's arena region and are freed by
    // rewinding once all child branches have been explored (chains only
    // point parent-ward, so a rewind never strands a live chain).
    const util::Arena::Mark frame_mark = arena_.Position();
    std::map<DfsEdge, Projected, DfsEdgeCmp> extensions;

    for (const Emb* emb : projected) {
      const Graph& g = db_.graph(emb->gid);
      History h(g, code, emb);
      const VertexId rm_g = h.dfs_to_g[maxtoc];

      // Backward extensions off the rightmost vertex, closing onto a
      // rightmost-path vertex (root side first).
      for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1; --j) {
        const DfsEdge& e1 = code[rmpath[j]];
        const VertexId to_g = h.dfs_to_g[e1.from];
        for (const AdjEntry& adj : g.neighbors(rm_g)) {
          if (adj.to != to_g) continue;
          if (h.edge_used[adj.edge_index]) continue;
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label &&
               e1.to_label <= rm_vertex_label)) {
            DfsEdge key{maxtoc, e1.from, rm_vertex_label, adj.label,
                        e1.from_label};
            extensions[key].push_back(NewEmb(emb->gid, rm_g, &adj, emb));
          }
        }
      }

      // Pure forward from the rightmost vertex.
      for (const AdjEntry& adj : g.neighbors(rm_g)) {
        if (h.vertex_used[adj.to]) continue;
        const Label tolabel = g.vertex_label(adj.to);
        if (tolabel < min_label) continue;
        DfsEdge key{maxtoc, maxtoc + 1, rm_vertex_label, adj.label,
                    tolabel};
        extensions[key].push_back(NewEmb(emb->gid, rm_g, &adj, emb));
      }

      // Forward branching off the rightmost path.
      for (size_t j = 0; j < rmpath.size(); ++j) {
        const DfsEdge& e1 = code[rmpath[j]];
        const VertexId from_g = h.dfs_to_g[e1.from];
        for (const AdjEntry& adj : g.neighbors(from_g)) {
          if (h.vertex_used[adj.to]) continue;
          const Label tolabel = g.vertex_label(adj.to);
          if (tolabel < min_label) continue;
          if (e1.edge_label < adj.label ||
              (e1.edge_label == adj.label && e1.to_label <= tolabel)) {
            DfsEdge key{e1.from, maxtoc + 1, e1.from_label, adj.label,
                        tolabel};
            extensions[key].push_back(NewEmb(emb->gid, from_g, &adj, emb));
          }
        }
      }
    }

    for (const auto& [edge, child_projected] : extensions) {
      if (stopped_) break;
      code.Push(edge);
      Project(code, child_projected);
      code.Pop();
    }
    arena_.Rewind(frame_mark);
  }

  const GraphDatabase& db_;
  const MinerConfig config_;
  MineResult result_;
  util::Arena arena_;  // embedding-chain storage (task-scoped)
  util::WallTimer budget_timer_;
  bool stopped_ = false;
};

}  // namespace

MineResult MineFrequentGSpan(const GraphDatabase& db,
                             const MinerConfig& config) {
  GS_CHECK_GE(config.min_support, 1);
  GS_TRACE_SPAN_NAMED(span, "mine/fsm/gspan");
  GSpanMiner miner(db, config);
  MineResult result = miner.Run();
  // Candidate totals come straight out of the single-threaded search,
  // so they are deterministic work counters (DESIGN.md §12).
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const candidates =
      registry.GetCounter("gspan/candidates");
  static obs::Counter* const patterns =
      registry.GetCounter("gspan/patterns");
  static obs::Counter* const arena_bytes =
      registry.GetCounter("gspan/embeddings_arena_bytes");
  candidates->Add(result.states_expanded);
  patterns->Add(result.patterns.size());
  arena_bytes->Add(result.embedding_arena_bytes);
  span.AddWork(result.states_expanded);
  return result;
}

}  // namespace graphsig::fsm
