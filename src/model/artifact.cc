#include "model/artifact.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "features/rwr.h"
#include "graph/serialize.h"
#include "util/binary.h"
#include "util/durable_file.h"
#include "util/strings.h"

namespace graphsig::model {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;

enum SectionId : uint32_t {
  kSectionDatabase = 1,
  kSectionFeatureSpace = 2,
  kSectionCatalog = 3,
  kSectionClassifier = 4,
  kSectionStream = 5,
};

constexpr size_t kMagicSize = 8;
// magic + version + section count.
constexpr size_t kHeaderSize = kMagicSize + 4 + 4;
constexpr size_t kTableEntrySize = 4 + 8 + 8;
constexpr size_t kChecksumSize = 4;

// --- field codecs -----------------------------------------------------

void EncodeFeatureVec(const features::FeatureVec& vec, ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(vec.size()));
  for (int16_t v : vec) w->WriteI16(v);
}

Status DecodeFeatureVec(ByteReader* r, features::FeatureVec* out) {
  uint32_t size;
  GS_RETURN_IF_ERROR(r->ReadU32(&size));
  if (size > r->remaining() / 2) {
    return Status::ParseError(util::StrPrintf(
        "implausible feature-vector length %u", size));
  }
  out->clear();
  out->reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    int16_t v;
    GS_RETURN_IF_ERROR(r->ReadI16(&v));
    out->push_back(v);
  }
  return Status::Ok();
}

void EncodeFeatureSpace(const features::FeatureSpace& space, ByteWriter* w) {
  w->WriteU32(static_cast<uint32_t>(space.num_vertex_features()));
  for (graph::Label label : space.vertex_features()) w->WriteI32(label);
  w->WriteU32(static_cast<uint32_t>(space.num_edge_features()));
  for (const features::EdgeType& e : space.edge_features()) {
    w->WriteI32(e.a);
    w->WriteI32(e.b);
    w->WriteI32(e.edge_label);
  }
}

Status DecodeFeatureSpace(ByteReader* r, features::FeatureSpace* out) {
  uint32_t num_vertex;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_vertex));
  if (num_vertex > r->remaining() / 4) {
    return Status::ParseError("implausible vertex-feature count");
  }
  features::FeatureSpace space;
  for (uint32_t i = 0; i < num_vertex; ++i) {
    int32_t label;
    GS_RETURN_IF_ERROR(r->ReadI32(&label));
    space.AddVertexFeature(label);
  }
  uint32_t num_edge;
  GS_RETURN_IF_ERROR(r->ReadU32(&num_edge));
  if (num_edge > r->remaining() / 12) {
    return Status::ParseError("implausible edge-feature count");
  }
  for (uint32_t i = 0; i < num_edge; ++i) {
    int32_t a, b, edge_label;
    GS_RETURN_IF_ERROR(r->ReadI32(&a));
    GS_RETURN_IF_ERROR(r->ReadI32(&b));
    GS_RETURN_IF_ERROR(r->ReadI32(&edge_label));
    space.AddEdgeFeature(a, b, edge_label);
  }
  // AddVertexFeature/AddEdgeFeature silently dedupe; a well-formed
  // section has no duplicates, so a size mismatch means corruption.
  if (space.num_vertex_features() != num_vertex ||
      space.num_edge_features() != num_edge) {
    return Status::ParseError("duplicate features in feature-space section");
  }
  *out = std::move(space);
  return Status::Ok();
}

void EncodeCatalog(const std::vector<core::SignificantSubgraph>& catalog,
                   ByteWriter* w) {
  w->WriteU64(catalog.size());
  for (const core::SignificantSubgraph& sg : catalog) {
    graph::EncodeGraph(sg.subgraph, w);
    EncodeFeatureVec(sg.vector, w);
    w->WriteF64(sg.vector_pvalue);
    w->WriteI64(sg.vector_support);
    w->WriteI32(sg.anchor_label);
    w->WriteI64(sg.set_size);
    w->WriteI64(sg.set_support);
    w->WriteI64(sg.db_frequency);
  }
}

Status DecodeCatalog(ByteReader* r,
                     std::vector<core::SignificantSubgraph>* out) {
  uint64_t count;
  GS_RETURN_IF_ERROR(r->ReadU64(&count));
  // Each entry is at least an empty graph + empty vector + 5 scalars.
  if (count > r->remaining() / 60) {
    return Status::ParseError("implausible catalog size");
  }
  out->clear();
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    core::SignificantSubgraph sg;
    GS_ASSIGN_OR_RETURN(sg.subgraph, graph::DecodeGraph(r));
    GS_RETURN_IF_ERROR(DecodeFeatureVec(r, &sg.vector));
    GS_RETURN_IF_ERROR(r->ReadF64(&sg.vector_pvalue));
    GS_RETURN_IF_ERROR(r->ReadI64(&sg.vector_support));
    GS_RETURN_IF_ERROR(r->ReadI32(&sg.anchor_label));
    GS_RETURN_IF_ERROR(r->ReadI64(&sg.set_size));
    GS_RETURN_IF_ERROR(r->ReadI64(&sg.set_support));
    GS_RETURN_IF_ERROR(r->ReadI64(&sg.db_frequency));
    out->push_back(std::move(sg));
  }
  return Status::Ok();
}

void EncodeClassifier(const classify::SigKnnModel& model, ByteWriter* w) {
  w->WriteU8(model.empty() ? 0 : 1);
  if (model.empty()) return;
  w->WriteI32(model.k);
  w->WriteF64(model.delta);
  w->WriteF64(model.rwr.restart_prob);
  // The walk's tolerance, sweep cap and window are build constants; the
  // section keeps their slots, and the loader accepts only these values.
  w->WriteF64(features::kRwrEpsilon);
  w->WriteI32(features::kRwrMaxIterations);
  w->WriteI32(model.rwr.bins);
  w->WriteI32(0);  // radius: the walk covers the whole graph
  w->WriteU8(static_cast<uint8_t>(model.rwr.featurizer));
  EncodeFeatureSpace(model.space, w);
  w->WriteU64(model.positive.size());
  for (const features::FeatureVec& v : model.positive) {
    EncodeFeatureVec(v, w);
  }
  w->WriteU64(model.negative.size());
  for (const features::FeatureVec& v : model.negative) {
    EncodeFeatureVec(v, w);
  }
}

Status DecodeVectorSet(ByteReader* r,
                       std::vector<features::FeatureVec>* out) {
  uint64_t count;
  GS_RETURN_IF_ERROR(r->ReadU64(&count));
  if (count > r->remaining() / 4) {
    return Status::ParseError("implausible vector-set size");
  }
  out->clear();
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    features::FeatureVec v;
    GS_RETURN_IF_ERROR(DecodeFeatureVec(r, &v));
    out->push_back(std::move(v));
  }
  return Status::Ok();
}

// GraphSigClassifier::Score aborts on a value it cannot run with (RWR's
// and Discretize's checks) or reads out of bounds on a vector wider than
// the query's, so the loader turns each into a ParseError instead.
Status CheckScorerParameters(const classify::SigKnnModel& model) {
  if (model.k < 1) {
    return Status::ParseError(util::StrPrintf(
        "classifier k must be >= 1, got %d", model.k));
  }
  if (!std::isfinite(model.delta) || model.delta <= 0.0) {
    return Status::ParseError(util::StrPrintf(
        "classifier delta must be finite and > 0, got %g", model.delta));
  }
  const double restart = model.rwr.restart_prob;
  if (std::isnan(restart) || restart <= 0.0 || restart > 1.0) {
    return Status::ParseError(util::StrPrintf(
        "classifier rwr.restart_prob must be in (0, 1], got %g", restart));
  }
  if (model.rwr.bins < 1) {
    return Status::ParseError(util::StrPrintf(
        "classifier rwr.bins must be >= 1, got %d", model.rwr.bins));
  }
  return Status::Ok();
}

// The walk's tolerance, sweep cap and window are this build's constants,
// so a section that asks for any other walk, such as one of 2^31 sweeps
// per query node, is refused rather than run.
Status CheckRwrConstants(double epsilon, int32_t max_iterations,
                         int32_t radius) {
  if (epsilon != features::kRwrEpsilon) {  // NaN included
    return Status::ParseError(util::StrPrintf(
        "classifier rwr.epsilon must be %g, got %g", features::kRwrEpsilon,
        epsilon));
  }
  if (max_iterations != features::kRwrMaxIterations) {
    return Status::ParseError(util::StrPrintf(
        "classifier rwr.max_iterations must be %d, got %d",
        features::kRwrMaxIterations, max_iterations));
  }
  if (radius != 0) {
    return Status::ParseError(util::StrPrintf(
        "classifier rwr.radius must be 0, got %d", radius));
  }
  return Status::Ok();
}

Status CheckVectorWidths(const std::vector<features::FeatureVec>& set,
                         size_t width, const char* name) {
  for (size_t i = 0; i < set.size(); ++i) {
    if (set[i].size() != width) {
      return Status::ParseError(util::StrPrintf(
          "classifier %s vector %zu has width %zu, feature space has %zu",
          name, i, set[i].size(), width));
    }
  }
  return Status::Ok();
}

Status DecodeClassifier(ByteReader* r, classify::SigKnnModel* out) {
  uint8_t present;
  GS_RETURN_IF_ERROR(r->ReadU8(&present));
  if (present == 0) {
    *out = classify::SigKnnModel{};
    out->space = features::FeatureSpace();
    return Status::Ok();
  }
  if (present != 1) {
    return Status::ParseError("bad classifier presence flag");
  }
  classify::SigKnnModel model;
  GS_RETURN_IF_ERROR(r->ReadI32(&model.k));
  GS_RETURN_IF_ERROR(r->ReadF64(&model.delta));
  GS_RETURN_IF_ERROR(r->ReadF64(&model.rwr.restart_prob));
  double epsilon = 0.0;
  int32_t max_iterations = 0, radius = 0;
  GS_RETURN_IF_ERROR(r->ReadF64(&epsilon));
  GS_RETURN_IF_ERROR(r->ReadI32(&max_iterations));
  GS_RETURN_IF_ERROR(r->ReadI32(&model.rwr.bins));
  GS_RETURN_IF_ERROR(r->ReadI32(&radius));
  uint8_t featurizer;
  GS_RETURN_IF_ERROR(r->ReadU8(&featurizer));
  if (featurizer > static_cast<uint8_t>(features::Featurizer::kWindowCount)) {
    return Status::ParseError("bad featurizer id in classifier section");
  }
  model.rwr.featurizer = static_cast<features::Featurizer>(featurizer);
  GS_RETURN_IF_ERROR(CheckRwrConstants(epsilon, max_iterations, radius));
  GS_RETURN_IF_ERROR(CheckScorerParameters(model));
  GS_RETURN_IF_ERROR(DecodeFeatureSpace(r, &model.space));
  if (model.space.size() == 0) {
    return Status::ParseError("classifier marked present but space empty");
  }
  GS_RETURN_IF_ERROR(DecodeVectorSet(r, &model.positive));
  GS_RETURN_IF_ERROR(DecodeVectorSet(r, &model.negative));
  GS_RETURN_IF_ERROR(
      CheckVectorWidths(model.positive, model.space.size(), "positive"));
  GS_RETURN_IF_ERROR(
      CheckVectorWidths(model.negative, model.space.size(), "negative"));
  *out = std::move(model);
  return Status::Ok();
}

void EncodeStreamSection(const ModelArtifact& artifact, ByteWriter* w) {
  w->WriteU64(artifact.generation);
  w->WriteF64(artifact.tarone_alpha);
  w->WriteF64(artifact.tarone_delta_star);
  w->WriteU64(artifact.tarone_family_size);
  w->WriteU64(artifact.tarone_filtered);
}

Status DecodeStreamSection(ByteReader* r, ModelArtifact* out) {
  GS_RETURN_IF_ERROR(r->ReadU64(&out->generation));
  if (out->generation == 0) {
    return Status::ParseError("stream section with generation 0");
  }
  GS_RETURN_IF_ERROR(r->ReadF64(&out->tarone_alpha));
  GS_RETURN_IF_ERROR(r->ReadF64(&out->tarone_delta_star));
  GS_RETURN_IF_ERROR(r->ReadU64(&out->tarone_family_size));
  GS_RETURN_IF_ERROR(r->ReadU64(&out->tarone_filtered));
  return Status::Ok();
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionDatabase:
      return "database section";
    case kSectionFeatureSpace:
      return "feature-space section";
    case kSectionCatalog:
      return "catalog section";
    case kSectionClassifier:
      return "classifier section";
    case kSectionStream:
      return "stream section";
    default:
      return "unknown section";
  }
}

Status DecodeSection(uint32_t id, std::string_view payload,
                     ModelArtifact* artifact) {
  ByteReader reader(payload, SectionName(id));
  switch (id) {
    case kSectionDatabase: {
      GS_ASSIGN_OR_RETURN(artifact->database,
                          graph::DecodeDatabase(&reader));
      break;
    }
    case kSectionFeatureSpace:
      GS_RETURN_IF_ERROR(DecodeFeatureSpace(&reader,
                                            &artifact->feature_space));
      break;
    case kSectionCatalog:
      GS_RETURN_IF_ERROR(DecodeCatalog(&reader, &artifact->catalog));
      break;
    case kSectionClassifier:
      GS_RETURN_IF_ERROR(DecodeClassifier(&reader, &artifact->classifier));
      break;
    case kSectionStream:
      GS_RETURN_IF_ERROR(DecodeStreamSection(&reader, artifact));
      break;
    default:
      // Unknown section: written by a same-major future revision; skip.
      return Status::Ok();
  }
  if (!reader.exhausted()) {
    return Status::ParseError(util::StrPrintf(
        "%s has %zu trailing bytes at offset %zu", SectionName(id),
        reader.remaining(), reader.position()));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeArtifact(const ModelArtifact& artifact) {
  // Encode each section payload first so the table offsets are known.
  struct Section {
    uint32_t id;
    std::string payload;
  };
  std::vector<Section> sections;
  {
    ByteWriter w;
    graph::EncodeDatabase(artifact.database, &w);
    sections.push_back({kSectionDatabase, std::move(w.TakeBuffer())});
  }
  {
    ByteWriter w;
    EncodeFeatureSpace(artifact.feature_space, &w);
    sections.push_back({kSectionFeatureSpace, std::move(w.TakeBuffer())});
  }
  {
    ByteWriter w;
    EncodeCatalog(artifact.catalog, &w);
    sections.push_back({kSectionCatalog, std::move(w.TakeBuffer())});
  }
  {
    ByteWriter w;
    EncodeClassifier(artifact.classifier, &w);
    sections.push_back({kSectionClassifier, std::move(w.TakeBuffer())});
  }
  if (artifact.generation > 0) {
    ByteWriter w;
    EncodeStreamSection(artifact, &w);
    sections.push_back({kSectionStream, std::move(w.TakeBuffer())});
  }

  ByteWriter out;
  out.WriteBytes(std::string_view(kMagic, kMagicSize));
  out.WriteU32(kFormatVersion);
  out.WriteU32(static_cast<uint32_t>(sections.size()));
  uint64_t offset = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& s : sections) {
    out.WriteU32(s.id);
    out.WriteU64(offset);
    out.WriteU64(s.payload.size());
    offset += s.payload.size();
  }
  for (const Section& s : sections) out.WriteBytes(s.payload);
  out.WriteU32(util::Crc32(out.buffer()));
  return std::move(out.TakeBuffer());
}

Result<ModelArtifact> DecodeArtifact(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    return Status::ParseError(util::StrPrintf(
        "artifact too short: %zu bytes", bytes.size()));
  }
  if (bytes.substr(0, kMagicSize) != std::string_view(kMagic, kMagicSize)) {
    return Status::ParseError("bad magic: not a GraphSig model artifact");
  }
  // Integrity first: a checksum mismatch means nothing else in the file
  // can be trusted, including the version and section table.
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumSize);
  ByteReader tail(bytes.substr(bytes.size() - kChecksumSize), "checksum");
  uint32_t stored_crc = 0;
  GS_RETURN_IF_ERROR(tail.ReadU32(&stored_crc));
  const uint32_t actual_crc = util::Crc32(body);
  if (stored_crc != actual_crc) {
    return Status::ParseError(util::StrPrintf(
        "checksum mismatch: stored %08x, computed %08x (corrupt or "
        "truncated artifact)", stored_crc, actual_crc));
  }

  ByteReader reader(body, "header");
  GS_RETURN_IF_ERROR(reader.Seek(kMagicSize));
  uint32_t version = 0, section_count = 0;
  GS_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version > kFormatVersion) {
    return Status::FailedPrecondition(util::StrPrintf(
        "artifact format version %u is newer than supported version %u; "
        "rebuild with this binary or upgrade", version, kFormatVersion));
  }
  if (version == 0) {
    return Status::ParseError("artifact format version 0 is invalid");
  }
  GS_RETURN_IF_ERROR(reader.ReadU32(&section_count));
  if (section_count > (body.size() - kHeaderSize) / kTableEntrySize) {
    return Status::ParseError("section table larger than file");
  }

  ModelArtifact artifact;
  reader.set_section("section table");
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    uint64_t offset = 0, size = 0;
    GS_RETURN_IF_ERROR(reader.ReadU32(&id));
    GS_RETURN_IF_ERROR(reader.ReadU64(&offset));
    GS_RETURN_IF_ERROR(reader.ReadU64(&size));
    const uint64_t table_end =
        kHeaderSize + static_cast<uint64_t>(section_count) * kTableEntrySize;
    if (offset < table_end || offset > body.size() ||
        size > body.size() - offset) {
      return Status::ParseError(util::StrPrintf(
          "section %u out of bounds: offset %llu size %llu in %zu-byte "
          "body", id, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(size), body.size()));
    }
    GS_RETURN_IF_ERROR(DecodeSection(
        id, body.substr(static_cast<size_t>(offset),
                        static_cast<size_t>(size)),
        &artifact));
  }
  return artifact;
}

Status SaveArtifact(const ModelArtifact& artifact, const std::string& path) {
  return util::WriteFileAtomically(path, EncodeArtifact(artifact));
}

Result<ModelArtifact> LoadArtifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in && !in.eof()) return Status::IoError("read failed: " + path);
  return DecodeArtifact(buffer.str());
}

}  // namespace graphsig::model
