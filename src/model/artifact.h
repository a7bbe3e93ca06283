#ifndef GRAPHSIG_MODEL_ARTIFACT_H_
#define GRAPHSIG_MODEL_ARTIFACT_H_

// The mine-once model artifact: everything the query-serving subsystem
// (src/serve/) needs, produced offline by graphsig_index and loaded in
// O(file size) with no re-mining.
//
// Binary layout (all integers little-endian; full spec in DESIGN.md):
//
//   offset 0   magic "GSIGMDL1" (8 bytes)
//   offset 8   u32 format version (kFormatVersion)
//   offset 12  u32 section count
//   offset 16  section table: count x { u32 id, u64 offset, u64 size }
//   ...        section payloads (offsets are absolute, sizes in bytes)
//   last 4     u32 CRC-32 of every preceding byte
//
// Sections: database (1), feature space (2), significant-subgraph
// catalog (3), classifier model (4), stream provenance (5). Section 5
// records the ingest-log generation the artifact was mined at plus the
// Tarone correction parameters (DESIGN.md §16); it is only written when
// generation > 0, so artifacts from the batch pipeline are byte-for-byte
// what they always were. Unknown section ids are ignored on load so
// later format revisions can add sections without breaking old readers;
// files declaring a version newer than kFormatVersion are rejected
// outright. Loading never crashes on hostile input: corrupt,
// truncated, or wrong-version files come back as util::Status errors.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "classify/sig_knn.h"
#include "core/graphsig.h"
#include "features/feature_space.h"
#include "graph/graph_database.h"
#include "util/status.h"

namespace graphsig::model {

// Current writer version. Readers accept any version <= this.
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr char kMagic[] = "GSIGMDL1";  // 8 bytes, no terminator

struct ModelArtifact {
  // The database the catalog was mined from (provenance + retraining).
  graph::GraphDatabase database;
  // The feature space the catalog's evidence vectors live in.
  features::FeatureSpace feature_space;
  // The significant-subgraph catalog: patterns with their full evidence
  // trail (vector, p-value, supports, anchor label, db frequency).
  std::vector<core::SignificantSubgraph> catalog;
  // Trained k-NN activity model; may be empty() when the training data
  // had only one class.
  classify::SigKnnModel classifier;
  // Stream provenance (section 5). `generation` is the ingest-log
  // generation the catalog reflects; 0 means "not from the streaming
  // pipeline" and suppresses the section entirely. The Tarone fields
  // mirror GraphSigStats for the mine that produced the catalog.
  uint64_t generation = 0;
  double tarone_alpha = 0.0;
  double tarone_delta_star = 0.0;
  uint64_t tarone_family_size = 0;
  uint64_t tarone_filtered = 0;
};

// Serializes to the artifact wire format.
std::string EncodeArtifact(const ModelArtifact& artifact);

// Parses and validates (magic, version, checksum, section bounds).
util::Result<ModelArtifact> DecodeArtifact(std::string_view bytes);

// File variants. SaveArtifact writes `<path>.tmp`, fsyncs it and renames
// it over `path` (util::WriteFileAtomically), so a concurrent
// LoadArtifact, or one after a crash, sees the previous artifact or the
// whole new one, never a truncated file.
util::Status SaveArtifact(const ModelArtifact& artifact,
                          const std::string& path);
util::Result<ModelArtifact> LoadArtifact(const std::string& path);

}  // namespace graphsig::model

#endif  // GRAPHSIG_MODEL_ARTIFACT_H_
