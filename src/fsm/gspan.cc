#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <tuple>

#include "fsm/dfs_code.h"
#include "fsm/maximal.h"
#include "fsm/miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
using graph::Label;
using graph::VertexId;

// The graphs one run mines, borrowed: gid k is *db[k].
using GraphSpan = std::span<const Graph* const>;

// One edge of an embedding chain. `edge` points into an adjacency list
// of the database graph, which outlives the run; `prev` points at the
// parent embedding one level up. Walking prev links reconstructs the
// full embedding of the code. Embeddings live by value in per-level
// arrays, each of which stays put while chains into it are in use.
struct Emb {
  int32_t gid;
  VertexId from;        // graph vertex the instance starts at
  const AdjEntry* edge;  // instance: (to, label, edge_index)
  const Emb* prev;
};

// Expanded view of one embedding chain: which graph edges and vertices
// it uses, and where each DFS id landed. One instance is reloaded per
// embedding: a vertex or edge is in use iff its stamp is the current
// one, so a load costs the chain's length, not the graph's size. Stamps
// are 64-bit, so they never wrap.
class StampedHistory {
 public:
  // Covers graphs of up to `max_vertices` vertices and `max_edges` edges.
  StampedHistory(int32_t max_vertices, int32_t max_edges)
      : vertex_stamp_(max_vertices, 0), edge_stamp_(max_edges, 0) {}

  // Expands `emb`, an embedding chain of `code`, whose pattern has
  // `num_vertices` DFS ids.
  void Load(const DfsCode& code, int32_t num_vertices, const Emb* emb) {
    ++stamp_;
    dfs_to_g_.resize(num_vertices);
    // The chain runs from code[size - 1] back to code[0], one link each.
    size_t i = code.size();
    for (const Emb* e = emb; e != nullptr; e = e->prev) {
      GS_CHECK_GT(i, 0u);
      --i;
      edge_stamp_[e->edge->edge_index] = stamp_;
      vertex_stamp_[e->from] = stamp_;
      vertex_stamp_[e->edge->to] = stamp_;
      if (i == 0) dfs_to_g_[code[0].from] = e->from;
      if (code[i].IsForward()) dfs_to_g_[code[i].to] = e->edge->to;
    }
    GS_CHECK_EQ(i, 0u);
  }

  bool edge_used(int32_t edge_index) const {
    return edge_stamp_[edge_index] == stamp_;
  }
  bool vertex_used(VertexId v) const { return vertex_stamp_[v] == stamp_; }
  VertexId dfs_to_g(int32_t dfs_id) const { return dfs_to_g_[dfs_id]; }

 private:
  std::vector<uint64_t> vertex_stamp_;
  std::vector<uint64_t> edge_stamp_;
  std::vector<VertexId> dfs_to_g_;
  uint64_t stamp_ = 0;
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
                      const std::vector<int>& rmpath,
                      const StampedHistory& h, Fn&& fn) {
  const int32_t maxtoc = code[rmpath[0]].to;
  const Label rm_vertex_label = code[rmpath[0]].to_label;
  const Label min_label = code[0].from_label;
  const VertexId rm_g = h.dfs_to_g(maxtoc);

  for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1; --j) {
    const DfsEdge& e1 = code[rmpath[j]];
    const VertexId to_g = h.dfs_to_g(e1.from);
    for (const AdjEntry& adj : g.neighbors(rm_g)) {
      if (adj.to != to_g) continue;
      if (h.edge_used(adj.edge_index)) continue;
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
    if (h.vertex_used(adj.to)) continue;
    const Label tolabel = g.vertex_label(adj.to);
    if (tolabel < min_label) continue;
    fn(DfsEdge{maxtoc, maxtoc + 1, rm_vertex_label, adj.label, tolabel},
       rm_g, adj);
  }

  for (size_t j = 0; j < rmpath.size(); ++j) {
    const DfsEdge& e1 = code[rmpath[j]];
    const VertexId from_g = h.dfs_to_g(e1.from);
    for (const AdjEntry& adj : g.neighbors(from_g)) {
      if (h.vertex_used(adj.to)) continue;
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
// `code` one edge at a time, over the embeddings of the code into `g`
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

  // levels[k] holds the embeddings of the code's first k + 1 edges; their
  // prev links point into levels[k - 1], whose buffer a move keeps.
  std::vector<std::vector<Emb>> levels(1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const AdjEntry& adj : g.neighbors(v)) {
      if (Triple{g.vertex_label(v), adj.label, g.vertex_label(adj.to)} ==
          best) {
        levels[0].push_back({0, v, &adj, nullptr});
      }
    }
  }

  StampedHistory h(g.num_vertices(), g.num_edges());
  while (static_cast<int32_t>(code->size()) < g.num_edges()) {
    const std::vector<int> rmpath = code->BuildRmPath();
    const int32_t num_vertices = code->NumVertices();
    std::vector<Emb> grown;
    DfsEdge next{};
    if (target != nullptr) {
      // One pass decides: a smaller extension anywhere means the target
      // is not minimal, and the embeddings that take its edge carry on.
      next = (*target)[code->size()];
      for (const Emb& emb : levels.back()) {
        h.Load(*code, num_vertices, &emb);
        bool smaller = false;
        ForEachExtension(
            g, *code, rmpath, h,
            [&](const DfsEdge& edge, VertexId from, const AdjEntry& adj) {
              if (DfsEdgeLess(edge, next)) {
                smaller = true;
              } else if (edge == next) {
                grown.push_back({0, from, &adj, &emb});
              }
            });
        if (smaller) return false;
      }
      if (grown.empty()) return false;
    } else {
      // Keep the embeddings that take the smallest extension seen so far.
      for (const Emb& emb : levels.back()) {
        h.Load(*code, num_vertices, &emb);
        ForEachExtension(
            g, *code, rmpath, h,
            [&](const DfsEdge& edge, VertexId from, const AdjEntry& adj) {
              if (grown.empty() || DfsEdgeLess(edge, next)) {
                next = edge;
                grown.clear();
              } else if (edge != next) {
                return;
              }
              grown.push_back({0, from, &adj, &emb});
            });
      }
      GS_CHECK(!grown.empty());  // a connected graph always extends
    }
    code->Push(next);
    levels.push_back(std::move(grown));
  }
  return true;
}

// The children of one search node. Every extension its embeddings report
// is appended with the index of its DFS edge in an open-addressing key
// table; each key counts its reports and its support (distinct gids,
// which arrive in non-decreasing order because every projection keeps
// its parent's gid order). Group() then orders only the frequent keys
// and copies their embeddings group by group, in report order, so each
// child projection is one contiguous span of this frame.
class Frame {
 public:
  struct Child {
    DfsEdge edge;
    int64_t support;
    std::span<const Emb> projected;
  };

  Frame() : slots_(kInitialSlots, -1) {}

  void Clear() {
    for (const Key& key : keys_) slots_[key.slot] = -1;
    keys_.clear();
    reports_.clear();
    report_keys_.clear();
  }

  void Add(const DfsEdge& edge, const Emb& emb) {
    const int32_t k = FindOrInsert(edge);
    Key& key = keys_[k];
    ++key.count;
    if (key.last_gid != emb.gid) {
      key.last_gid = emb.gid;
      ++key.support;
    }
    reports_.push_back(emb);
    report_keys_.push_back(k);
  }

  size_t num_reports() const { return reports_.size(); }

  // Fills children() with the keys of support >= min_support, ordered by
  // `less` over their DFS edges.
  template <typename Less>
  void Group(int64_t min_support, Less less) {
    children_.clear();
    frequent_.clear();
    for (int32_t k = 0; k < static_cast<int32_t>(keys_.size()); ++k) {
      if (keys_[k].support >= min_support) frequent_.push_back(k);
    }
    if (frequent_.empty()) return;
    std::sort(frequent_.begin(), frequent_.end(),
              [&](int32_t a, int32_t b) {
                return less(keys_[a].edge, keys_[b].edge);
              });
    size_t total = 0;
    for (int32_t k : frequent_) {
      keys_[k].next = total;
      total += keys_[k].count;
    }
    grouped_.resize(total);
    for (int32_t k : frequent_) {
      const Key& key = keys_[k];
      children_.push_back(
          {key.edge, key.support, {grouped_.data() + key.next, key.count}});
    }
    for (size_t i = 0; i < reports_.size(); ++i) {
      Key& key = keys_[report_keys_[i]];
      if (key.support >= min_support) grouped_[key.next++] = reports_[i];
    }
  }

  const std::vector<Child>& children() const { return children_; }

 private:
  static constexpr size_t kInitialSlots = 32;  // a power of two

  struct Key {
    DfsEdge edge;
    size_t slot;          // its index in slots_
    int32_t last_gid;     // gid of its latest report
    int64_t support = 0;  // distinct gids among its reports
    size_t count = 0;     // its reports
    size_t next = 0;      // Group(): where its next embedding goes
  };

  static size_t Hash(const DfsEdge& e) {
    uint64_t h = static_cast<uint32_t>(e.from);
    for (int32_t field : {e.to, e.from_label, e.edge_label, e.to_label}) {
      h = h * 0x9E3779B97F4A7C15ull + static_cast<uint32_t>(field);
    }
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >> 32);
  }

  // Linear probing at load factor <= 1/2.
  int32_t FindOrInsert(const DfsEdge& edge) {
    const size_t mask = slots_.size() - 1;
    size_t s = Hash(edge) & mask;
    for (; slots_[s] >= 0; s = (s + 1) & mask) {
      if (keys_[slots_[s]].edge == edge) return slots_[s];
    }
    if (2 * (keys_.size() + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      return FindOrInsert(edge);
    }
    const int32_t k = static_cast<int32_t>(keys_.size());
    slots_[s] = k;
    keys_.push_back({edge, s, -1});
    return k;
  }

  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, -1);
    const size_t mask = num_slots - 1;
    for (int32_t k = 0; k < static_cast<int32_t>(keys_.size()); ++k) {
      size_t s = Hash(keys_[k].edge) & mask;
      while (slots_[s] >= 0) s = (s + 1) & mask;
      slots_[s] = k;
      keys_[k].slot = s;
    }
  }

  std::vector<int32_t> slots_;        // key index, or -1 if empty
  std::vector<Key> keys_;             // in first-report order
  std::vector<Emb> reports_;          // child embeddings, report order
  std::vector<int32_t> report_keys_;  // key index of each report
  std::vector<int32_t> frequent_;     // Group(): frequent keys, ordered
  std::vector<Emb> grouped_;          // Group(): reports of frequent keys
  std::vector<Child> children_;
};

// A history that covers every graph of `db`.
StampedHistory HistoryFor(GraphSpan db) {
  int32_t max_vertices = 0;
  int32_t max_edges = 0;
  for (const Graph* g : db) {
    max_vertices = std::max(max_vertices, g->num_vertices());
    max_edges = std::max(max_edges, g->num_edges());
  }
  return StampedHistory(max_vertices, max_edges);
}

class GSpanMiner {
 public:
  // With `maximal_only`, a pattern that has a frequent child is counted
  // but not built: it embeds in that child, so it cannot be maximal.
  GSpanMiner(GraphSpan db, const MinerConfig& config, bool maximal_only)
      : db_(db),
        config_(config),
        maximal_only_(maximal_only),
        history_(HistoryFor(db)) {}

  // Frequent patterns found so far, built or not.
  size_t num_found() const { return num_found_; }

  MineResult Run() {
    util::WallTimer timer;
    if (config_.include_single_vertices && config_.min_edges <= 0) {
      ReportSingleVertices();
    }

    // Frequent 1-edge seeds, grouped by (from_label, elabel, to_label)
    // with from_label <= to_label; both orientations are kept as
    // embeddings when the endpoint labels are equal. They form the frame
    // of the empty code, in gid order.
    Frame& roots = FrameAt(0);
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      const Graph& g = *db_[gid];
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (const AdjEntry& adj : g.neighbors(v)) {
          const Label from_label = g.vertex_label(v);
          const Label to_label = g.vertex_label(adj.to);
          if (from_label > to_label) continue;
          roots.Add({0, 1, from_label, adj.label, to_label},
                    {static_cast<int32_t>(gid), v, &adj, nullptr});
        }
      }
    }
    result_.embeddings_built += roots.num_reports();
    roots.Group(config_.min_support, [](const DfsEdge& a, const DfsEdge& b) {
      return std::tie(a.from_label, a.edge_label, a.to_label) <
             std::tie(b.from_label, b.edge_label, b.to_label);
    });

    DfsCode code;
    for (const Frame::Child& child : roots.children()) {
      if (stopped_) break;
      code.Push(child.edge);
      Project(code, child.projected, child.support);
      code.Pop();
    }

    result_.seconds = timer.ElapsedSeconds();
    result_.completed = !stopped_;
    return std::move(result_);
  }

 private:
  void ReportSingleVertices() {
    std::map<Label, std::vector<int32_t>> by_label;
    for (size_t gid = 0; gid < db_.size(); ++gid) {
      const Graph& g = *db_[gid];
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
      result_.patterns.push_back(std::move(p));
      Found();
      if (stopped_) return;
    }
  }

  // The frame for the children of codes with `depth` edges. A deque, so
  // growing it keeps every frame, and the spans into it, in place.
  Frame& FrameAt(size_t depth) {
    while (frames_.size() <= depth) frames_.emplace_back();
    return frames_[depth];
  }

  // Counts one more frequent pattern toward max_patterns.
  void Found() {
    if (++num_found_ >= config_.max_patterns) stopped_ = true;
  }

  // Builds `code`'s pattern from its embeddings `projected`.
  void Emit(const DfsCode& code, std::span<const Emb> projected,
            int64_t support) {
    Pattern p;
    p.graph = code.ToGraph();
    p.support = support;
    for (const Emb& e : projected) {
      if (p.supporting.empty() || p.supporting.back() != e.gid) {
        p.supporting.push_back(e.gid);
      }
    }
    GS_CHECK_EQ(static_cast<int64_t>(p.supporting.size()), support);
    result_.patterns.push_back(std::move(p));
  }

  // Explores `code`, a frequent extension with `support` distinct gids
  // among its embeddings `projected`, which are in non-decreasing gid
  // order.
  void Project(DfsCode& code, std::span<const Emb> projected,
               int64_t support) {
    if (stopped_) return;
    if (!IsMinimalDfsCode(code)) return;

    ++result_.states_expanded;
    if ((result_.states_expanded & 0x3f) == 0 &&
        budget_timer_.ElapsedSeconds() > config_.budget_seconds) {
      stopped_ = true;
      return;
    }

    // The pattern counts toward the cap before its children are looked
    // at, so a capped run stops at the same pattern in either mode.
    const bool reported =
        static_cast<int32_t>(code.size()) >= config_.min_edges;
    if (reported) Found();
    if (stopped_ || static_cast<int32_t>(code.size()) >= config_.max_edges) {
      if (reported) Emit(code, projected, support);
      return;
    }

    const std::vector<int> rmpath = code.BuildRmPath();
    const int32_t num_vertices = code.NumVertices();
    Frame& frame = FrameAt(code.size());
    frame.Clear();
    for (const Emb& emb : projected) {
      const Graph& g = *db_[emb.gid];
      history_.Load(code, num_vertices, &emb);
      ForEachExtension(g, code, rmpath, history_,
                       [&](const DfsEdge& edge, VertexId from,
                           const AdjEntry& adj) {
                         frame.Add(edge, {emb.gid, from, &adj, &emb});
                       });
    }
    result_.embeddings_built += frame.num_reports();
    frame.Group(config_.min_support, DfsEdgeLess);
    // A pattern with a frequent child is not maximal: a maximal-only run
    // builds neither its graph nor its supporting list.
    if (reported && !(maximal_only_ && !frame.children().empty())) {
      Emit(code, projected, support);
    }

    // The children's own frames sit deeper, so this frame's spans stay
    // valid while each child's subtree runs.
    for (const Frame::Child& child : frame.children()) {
      if (stopped_) break;
      code.Push(child.edge);
      Project(code, child.projected, child.support);
      code.Pop();
    }
  }

  const GraphSpan db_;
  const MinerConfig config_;
  const bool maximal_only_;
  MineResult result_;
  StampedHistory history_;
  std::deque<Frame> frames_;  // frames_[d]: children of a d-edge code
  util::WallTimer budget_timer_;
  size_t num_found_ = 0;
  bool stopped_ = false;
};

// One gSpan run under the "mine/fsm/gspan" span. Candidate and pattern
// totals come straight out of the single-threaded search, so they are
// deterministic work counters (DESIGN.md §12); a pattern the maximal
// mode skips still counts.
MineResult RunGSpan(GraphSpan db, const MinerConfig& config,
                    bool maximal_only) {
  GS_CHECK_GE(config.min_support, 1);
  GS_TRACE_SPAN_NAMED(span, "mine/fsm/gspan");
  GSpanMiner miner(db, config, maximal_only);
  MineResult result = miner.Run();
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const candidates =
      registry.GetCounter("gspan/candidates");
  static obs::Counter* const patterns =
      registry.GetCounter("gspan/patterns");
  static obs::Counter* const embeddings =
      registry.GetCounter("gspan/embeddings");
  candidates->Add(result.states_expanded);
  patterns->Add(miner.num_found());
  embeddings->Add(result.embeddings_built);
  span.AddWork(result.states_expanded);
  return result;
}

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

MineResult MineFrequentGSpan(const graph::GraphDatabase& db,
                             const MinerConfig& config) {
  const std::vector<const Graph*> graphs = db.GraphPointers();
  return RunGSpan(graphs, config, /*maximal_only=*/false);
}

MineResult MineMaximalGSpan(std::span<const Graph* const> db,
                            const MinerConfig& config) {
  MineResult result = RunGSpan(db, config, /*maximal_only=*/true);
  result.patterns = FilterMaximal(std::move(result.patterns));
  return result;
}

}  // namespace graphsig::fsm
