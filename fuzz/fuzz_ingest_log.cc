// Fuzz target for the ingest-log decoder (src/stream/ingest_log.h) —
// the streaming pipeline's durable-state surface: graphsig_ingest opens
// whatever file --log names, so DecodeIngestLog must turn arbitrary
// bytes into a clean util::Status (or a recovered torn-tail prefix),
// never a crash, hang, or sanitizer report. Checkpoint bytes are
// opaque: nothing decodes them.
//
// The per-record CRC rejects most random mutations outright, so the
// seed corpus carries valid logs (CRCs intact, checkpoint records from
// this build and from the older miner's format) and the fuzzer's
// structural mutations of them are what actually reach the
// batch/checkpoint payload decoders.
//
// A successfully decoded log is re-framed record by record and decoded
// again to pin the round-trip contract.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "stream/ingest_log.h"
#include "util/binary.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace stream = graphsig::stream;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto contents = stream::DecodeIngestLog(bytes);
  if (!contents.ok()) return 0;

  // The recovered prefix must re-decode to the same shape when reframed
  // through the canonical encoders.
  graphsig::util::ByteWriter w;
  w.WriteBytes(std::string_view(stream::kLogMagic, 8));
  w.WriteU32(stream::kLogFormatVersion);
  std::string image = w.buffer();
  for (const stream::LogBatch& batch : contents.value().batches) {
    image += stream::EncodeBatchRecord(batch.generation, batch.graphs);
  }
  if (contents.value().checkpoint_generation > 0) {
    image += stream::EncodeCheckpointRecord(
        contents.value().checkpoint_generation,
        contents.value().checkpoint);
  }
  auto again = stream::DecodeIngestLog(image);
  GS_CHECK(again.ok());
  GS_CHECK(!again.value().torn_tail);
  GS_CHECK_EQ(again.value().batches.size(),
              contents.value().batches.size());
  GS_CHECK_EQ(again.value().last_generation(),
              contents.value().last_generation());
  GS_CHECK_EQ(again.value().checkpoint_generation,
              contents.value().checkpoint_generation);
  GS_CHECK(again.value().checkpoint == contents.value().checkpoint);
  return 0;
}
