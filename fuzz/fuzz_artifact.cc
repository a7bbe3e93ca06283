// Fuzz target for the model-artifact loader (src/model/artifact.h) — the
// primary untrusted surface: graphsig_query/serve load artifact files a
// user hands them, so DecodeArtifact must turn arbitrary bytes into a
// clean util::Status, never a crash, hang, or sanitizer report.
//
// The CRC over the whole file rejects most random mutations outright, so
// the seed corpus carries valid artifacts (CRC intact) and the fuzzer's
// structural mutations of them are what actually reach the section
// decoders. A successfully decoded artifact is re-encoded and re-decoded
// to pin the round-trip contract. One carrying a classifier is then
// served as graphsig_serve would: the classifier is rebuilt and scores
// the artifact's first database graph, so everything the decoder lets
// through must be something Score can run.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "classify/sig_knn.h"
#include "model/artifact.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto artifact = graphsig::model::DecodeArtifact(bytes);
  if (artifact.ok()) {
    const std::string encoded =
        graphsig::model::EncodeArtifact(artifact.value());
    auto again = graphsig::model::DecodeArtifact(encoded);
    GS_CHECK(again.ok());
    GS_CHECK_EQ(again.value().catalog.size(),
                artifact.value().catalog.size());
    GS_CHECK_EQ(again.value().database.size(),
                artifact.value().database.size());
    const graphsig::model::ModelArtifact& model = artifact.value();
    if (!model.classifier.empty()) {
      const auto classifier =
          graphsig::classify::GraphSigClassifier::FromModel(model.classifier);
      // Bounded so one input stays cheap: the walk runs at most
      // max_iterations sweeps from each of at most 64 sources.
      if (!model.database.empty() &&
          model.classifier.rwr.max_iterations <= 1000 &&
          model.database.graph(0).num_vertices() <= 64) {
        (void)classifier.Score(model.database.graph(0));
      }
    }
  }
  return 0;
}
