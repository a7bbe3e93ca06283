#ifndef GRAPHSIG_GRAPH_IO_H_
#define GRAPHSIG_GRAPH_IO_H_

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph_database.h"
#include "util/status.h"

namespace graphsig::graph {

// Interns symbolic labels ("C", "N", "aromatic") to dense integer ids so
// the core structures stay numeric. Separate dictionaries are used for
// vertex and edge labels.
class LabelDictionary {
 public:
  // Returns the id of `name`, creating it if new.
  Label Intern(const std::string& name);
  // Returns the id of `name` if present.
  std::optional<Label> Find(const std::string& name) const;
  // Name for an interned id; aborts on unknown ids.
  const std::string& Name(Label id) const;
  bool Contains(Label id) const {
    return id >= 0 && static_cast<size_t>(id) < names_.size();
  }
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, Label> ids_;
};

// Parses the line-oriented gSpan transaction format:
//
//   t # <graph-id> [tag]
//   v <vertex-id> <label>
//   e <u> <v> <label>
//
// Vertex ids must be dense and ascending within each graph. Labels may be
// integers or symbols; symbols are interned through the dictionaries
// (which must then be non-null). Lines starting with '#' and blank lines
// are ignored.
util::Result<GraphDatabase> ParseGSpanText(std::string_view text,
                                           LabelDictionary* vertex_dict,
                                           LabelDictionary* edge_dict);

// Writes the same format. If dictionaries are given, labels are written
// symbolically; otherwise numerically. Tags are written when non-zero.
void WriteGSpanText(const GraphDatabase& db, std::ostream& os,
                    const LabelDictionary* vertex_dict = nullptr,
                    const LabelDictionary* edge_dict = nullptr);

}  // namespace graphsig::graph

#endif  // GRAPHSIG_GRAPH_IO_H_
