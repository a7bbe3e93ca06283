#include "graph/io.h"

#include <cctype>
#include <sstream>

#include "util/check.h"
#include "util/strings.h"

namespace graphsig::graph {

namespace {

bool LooksNumeric(const std::string& token) {
  if (token.empty()) return false;
  size_t i = (token[0] == '-') ? 1 : 0;
  if (i == token.size()) return false;
  for (; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) return false;
  }
  return true;
}

// Resolves a label token to an id: numeric tokens parse directly,
// symbolic tokens intern through `dict`.
util::Result<Label> ResolveLabel(const std::string& token,
                                 LabelDictionary* dict, int line_no) {
  if (LooksNumeric(token)) {
    auto parsed = util::ParseInt(token);
    if (!parsed.ok()) return parsed.status();
    return static_cast<Label>(parsed.value());
  }
  if (dict == nullptr) {
    return util::Status::ParseError(util::StrPrintf(
        "line %d: symbolic label '%s' but no dictionary supplied", line_no,
        token.c_str()));
  }
  return dict->Intern(token);
}

}  // namespace

Label LabelDictionary::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  Label id = static_cast<Label>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::optional<Label> LabelDictionary::Find(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& LabelDictionary::Name(Label id) const {
  GS_CHECK(Contains(id));
  return names_[id];
}

util::Result<GraphDatabase> ParseGSpanText(std::string_view text,
                                           LabelDictionary* vertex_dict,
                                           LabelDictionary* edge_dict) {
  GraphDatabase db;
  Graph current;
  bool in_graph = false;
  int line_no = 0;

  auto flush = [&]() {
    if (in_graph) db.Add(std::move(current));
    current = Graph();
    in_graph = false;
  };

  std::string text_copy(text);
  std::istringstream stream(text_copy);
  std::string line;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> tokens = util::SplitTokens(trimmed);
    const std::string& kind = tokens[0];

    if (kind == "t") {
      // "t # <id> [tag]"
      if (tokens.size() < 3 || tokens[1] != "#") {
        return util::Status::ParseError(
            util::StrPrintf("line %d: malformed 't' line", line_no));
      }
      flush();
      auto id = util::ParseInt(tokens[2]);
      if (!id.ok()) return id.status();
      current.set_id(id.value());
      if (tokens.size() >= 4) {
        auto tag = util::ParseInt(tokens[3]);
        if (!tag.ok()) return tag.status();
        current.set_tag(static_cast<int32_t>(tag.value()));
      }
      in_graph = true;
    } else if (kind == "v") {
      if (!in_graph) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: 'v' before any 't'", line_no));
      }
      if (tokens.size() != 3) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: malformed 'v' line", line_no));
      }
      auto vid = util::ParseInt(tokens[1]);
      if (!vid.ok()) return vid.status();
      if (vid.value() != current.num_vertices()) {
        return util::Status::ParseError(util::StrPrintf(
            "line %d: vertex ids must be dense ascending (got %lld, "
            "expected %d)",
            line_no, static_cast<long long>(vid.value()),
            current.num_vertices()));
      }
      auto label = ResolveLabel(tokens[2], vertex_dict, line_no);
      if (!label.ok()) return label.status();
      current.AddVertex(label.value());
    } else if (kind == "e") {
      if (!in_graph) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: 'e' before any 't'", line_no));
      }
      if (tokens.size() != 4) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: malformed 'e' line", line_no));
      }
      auto u = util::ParseInt(tokens[1]);
      auto v = util::ParseInt(tokens[2]);
      if (!u.ok()) return u.status();
      if (!v.ok()) return v.status();
      auto label = ResolveLabel(tokens[3], edge_dict, line_no);
      if (!label.ok()) return label.status();
      if (u.value() < 0 || u.value() >= current.num_vertices() ||
          v.value() < 0 || v.value() >= current.num_vertices()) {
        return util::Status::ParseError(util::StrPrintf(
            "line %d: edge endpoint out of range", line_no));
      }
      if (u.value() == v.value()) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: self-loop rejected", line_no));
      }
      VertexId uu = static_cast<VertexId>(u.value());
      VertexId vv = static_cast<VertexId>(v.value());
      if (current.HasEdge(uu, vv)) {
        return util::Status::ParseError(
            util::StrPrintf("line %d: duplicate edge rejected", line_no));
      }
      current.AddEdge(uu, vv, label.value());
    } else {
      return util::Status::ParseError(util::StrPrintf(
          "line %d: unknown record type '%s'", line_no, kind.c_str()));
    }
  }
  flush();
  return db;
}

void WriteGSpanText(const GraphDatabase& db, std::ostream& os,
                    const LabelDictionary* vertex_dict,
                    const LabelDictionary* edge_dict) {
  auto vertex_label_name = [&](Label l) -> std::string {
    if (vertex_dict != nullptr && vertex_dict->Contains(l)) {
      return vertex_dict->Name(l);
    }
    return std::to_string(l);
  };
  auto edge_label_name = [&](Label l) -> std::string {
    if (edge_dict != nullptr && edge_dict->Contains(l)) {
      return edge_dict->Name(l);
    }
    return std::to_string(l);
  };
  for (size_t i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    os << "t # " << g.id();
    if (g.tag() != 0) os << ' ' << g.tag();
    os << '\n';
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      os << "v " << v << ' ' << vertex_label_name(g.vertex_label(v)) << '\n';
    }
    for (const EdgeRecord& e : g.edges()) {
      os << "e " << e.u << ' ' << e.v << ' ' << edge_label_name(e.label)
         << '\n';
    }
  }
}

}  // namespace graphsig::graph
