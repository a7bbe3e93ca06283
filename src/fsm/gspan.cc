#include <algorithm>
#include <cmath>
#include <cstdint>
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

  // The embedding of a one-edge code: DFS ids 0 and 1 at `a` and `b`,
  // joined by edge `edge_index`.
  History(const Graph& g, VertexId a, VertexId b, int32_t edge_index)
      : edge_used(g.num_edges(), false),
        vertex_used(g.num_vertices(), false),
        dfs_to_g{a, b} {
    edge_used[edge_index] = true;
    vertex_used[a] = vertex_used[b] = true;
  }

  // Expands an embedding chain of `code`.
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

  // This embedding grown by `edge`, which takes half-edge `adj`.
  History Extended(const DfsEdge& edge, const AdjEntry& adj) const {
    History next = *this;
    next.edge_used[adj.edge_index] = true;
    if (edge.IsForward()) {
      next.vertex_used[adj.to] = true;
      next.dfs_to_g.push_back(adj.to);
    }
    return next;
  }
};

// gSpan's rightmost-path extension rule: reports every legal one-edge
// child of `code` at embedding `h` in `g` as fn(edge, from, adj), where
// `from` is the graph vertex the new edge leaves and `adj` its half-edge.
// Three loops, in this order: backward from the rightmost vertex onto
// the rightmost path (root side first), pure forward from the rightmost
// vertex, and forward off the rightmost path (rightmost side first). A
// forward edge never reaches a vertex labelled below the root, since
// such a code could not be minimal.
template <typename Fn>
void ForEachExtension(const Graph& g, const DfsCode& code,
                      const std::vector<int>& rmpath, const History& h,
                      Fn&& fn) {
  const int32_t maxtoc = code[rmpath[0]].to;
  const Label rm_vertex_label = code[rmpath[0]].to_label;
  const Label min_label = code[0].from_label;
  const VertexId rm_g = h.dfs_to_g[maxtoc];

  for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1; --j) {
    const DfsEdge& e1 = code[rmpath[j]];
    const VertexId to_g = h.dfs_to_g[e1.from];
    for (const AdjEntry& adj : g.neighbors(rm_g)) {
      if (adj.to != to_g) continue;
      if (h.edge_used[adj.edge_index]) continue;
      // The new backward edge must not precede the rightmost-path edge
      // it closes on.
      if (e1.edge_label < adj.label ||
          (e1.edge_label == adj.label && e1.to_label <= rm_vertex_label)) {
        fn(DfsEdge{maxtoc, e1.from, rm_vertex_label, adj.label,
                   e1.from_label},
           rm_g, adj);
      }
    }
  }

  for (const AdjEntry& adj : g.neighbors(rm_g)) {
    if (h.vertex_used[adj.to]) continue;
    const Label tolabel = g.vertex_label(adj.to);
    if (tolabel < min_label) continue;
    fn(DfsEdge{maxtoc, maxtoc + 1, rm_vertex_label, adj.label, tolabel},
       rm_g, adj);
  }

  for (size_t j = 0; j < rmpath.size(); ++j) {
    const DfsEdge& e1 = code[rmpath[j]];
    const VertexId from_g = h.dfs_to_g[e1.from];
    for (const AdjEntry& adj : g.neighbors(from_g)) {
      if (h.vertex_used[adj.to]) continue;
      const Label tolabel = g.vertex_label(adj.to);
      if (tolabel < min_label) continue;
      // The branch must not precede the rightmost-path edge it shares a
      // source with.
      if (e1.edge_label < adj.label ||
          (e1.edge_label == adj.label && e1.to_label <= tolabel)) {
        fn(DfsEdge{e1.from, maxtoc + 1, e1.from_label, adj.label, tolabel},
           from_g, adj);
      }
    }
  }
}

// Grows the minimum DFS code of the connected graph `g` into the empty
// `code` one edge at a time, over dense embeddings of the code into `g`
// itself: each edge is the DfsEdgeLess-smallest extension any embedding
// reports. With a `target`, the candidate at each position is the
// target's edge there instead, and growth stops at the first position
// where an embedding reports a smaller edge or none reports the
// candidate; the result says whether `code` reached `*target`, whose
// graph `g` must be. Without a target it always returns true.
bool GrowMinDfsCode(const Graph& g, const DfsCode* target, DfsCode* code) {
  // Seed with every directed edge carrying the smallest (from_label,
  // edge_label, to_label) triple.
  using Triple = std::tuple<Label, Label, Label>;
  Triple best{INT32_MAX, INT32_MAX, INT32_MAX};
  for (const graph::EdgeRecord& e : g.edges()) {
    Triple ab{g.vertex_label(e.u), e.label, g.vertex_label(e.v)};
    Triple ba{g.vertex_label(e.v), e.label, g.vertex_label(e.u)};
    best = std::min(best, std::min(ab, ba));
  }
  const DfsEdge first{0, 1, std::get<0>(best), std::get<1>(best),
                      std::get<2>(best)};
  if (target != nullptr && (*target)[0] != first) return false;
  code->Push(first);

  std::vector<History> embs;
  for (int32_t ei = 0; ei < g.num_edges(); ++ei) {
    const graph::EdgeRecord& e = g.edge(ei);
    for (int dir = 0; dir < 2; ++dir) {
      const VertexId a = dir == 0 ? e.u : e.v;
      const VertexId b = dir == 0 ? e.v : e.u;
      if (Triple{g.vertex_label(a), e.label, g.vertex_label(b)} == best) {
        embs.emplace_back(g, a, b, ei);
      }
    }
  }

  std::vector<History> next_embs;
  while (static_cast<int32_t>(code->size()) < g.num_edges()) {
    const std::vector<int> rmpath = code->BuildRmPath();
    DfsEdge next{};
    if (target != nullptr) {
      // One pass decides: a smaller extension anywhere means the target
      // is not minimal, and the embeddings that take its edge carry on.
      next = (*target)[code->size()];
      for (const History& h : embs) {
        bool smaller = false;
        ForEachExtension(
            g, *code, rmpath, h,
            [&](const DfsEdge& edge, VertexId, const AdjEntry& adj) {
              if (DfsEdgeLess(edge, next)) {
                smaller = true;
              } else if (edge == next) {
                next_embs.push_back(h.Extended(edge, adj));
              }
            });
        if (smaller) return false;
      }
      if (next_embs.empty()) return false;
    } else {
      // Pass 1 picks the smallest extension, pass 2 grows the embeddings
      // that take it.
      bool found = false;
      for (const History& h : embs) {
        ForEachExtension(g, *code, rmpath, h,
                         [&](const DfsEdge& edge, VertexId, const AdjEntry&) {
                           if (!found || DfsEdgeLess(edge, next)) {
                             next = edge;
                             found = true;
                           }
                         });
      }
      GS_CHECK(found);  // a connected graph always extends
      for (const History& h : embs) {
        ForEachExtension(
            g, *code, rmpath, h,
            [&](const DfsEdge& edge, VertexId, const AdjEntry& adj) {
              if (edge == next) next_embs.push_back(h.Extended(edge, adj));
            });
      }
    }
    code->Push(next);
    embs.swap(next_embs);
    next_embs.clear();
  }
  return true;
}

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

    // Child embeddings live in this frame's arena region and are freed by
    // rewinding once all child branches have been explored (chains only
    // point parent-ward, so a rewind never strands a live chain).
    const util::Arena::Mark frame_mark = arena_.Position();
    std::map<DfsEdge, Projected, DfsEdgeCmp> extensions;

    for (const Emb* emb : projected) {
      const Graph& g = db_.graph(emb->gid);
      ForEachExtension(g, code, rmpath, History(g, code, emb),
                       [&](const DfsEdge& edge, VertexId from,
                           const AdjEntry& adj) {
                         extensions[edge].push_back(
                             NewEmb(emb->gid, from, &adj, emb));
                       });
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

DfsCode BuildMinDfsCode(const Graph& g) {
  GS_CHECK_GT(g.num_vertices(), 0);
  GS_CHECK(g.IsConnected());
  DfsCode code;
  if (g.num_edges() == 0) {
    GS_CHECK_EQ(g.num_vertices(), 1);
    return code;  // single vertex: empty code
  }
  GrowMinDfsCode(g, nullptr, &code);
  return code;
}

bool IsMinimalDfsCode(const DfsCode& code) {
  if (code.empty()) return true;
  DfsCode min_code;
  return GrowMinDfsCode(code.ToGraph(), &code, &min_code);
}

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
