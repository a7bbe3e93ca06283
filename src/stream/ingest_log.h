#ifndef GRAPHSIG_STREAM_INGEST_LOG_H_
#define GRAPHSIG_STREAM_INGEST_LOG_H_

// The append-only ingest log: the durable record of every graph batch
// the streaming pipeline has accepted, plus optional checkpoint records
// (DESIGN.md §16).
//
// File layout (all integers little-endian):
//
//   offset 0  magic "GSIGLOG1" (8 bytes)
//   offset 8  u32 format version (kLogFormatVersion)
//   ...       records, each:
//               u32 CRC-32 of the rest of the record (type + size +
//                   payload)
//               u8  record type
//               u64 payload size
//               payload bytes
//
// Record types:
//   1 (batch):      u64 generation | u32 graph count | graphs
//                   (graph::EncodeGraph each)
//   2 (checkpoint): u64 generation | opaque bytes (the log does not
//                   interpret them; graphsig_ingest writes none)
//
// Generations are assigned by the log: the first batch is generation 1
// and every append increments by one. A decoded log whose batch
// generations are not exactly 1..N in order is corrupt. Checkpoints
// must be stamped with an already-appended generation; the last
// checkpoint in the file wins (earlier ones are superseded and
// skipped).
//
// Torn tails: a crash mid-append leaves a trailing partial record.
// Decoding distinguishes that (not enough bytes left for the record the
// header promises → recoverable, the valid prefix stands) from
// corruption inside a fully-present record (CRC or payload decode
// failure → hard error). IngestLog::Open truncates a torn tail away so
// the next append lands on a clean boundary. A file shorter than the
// header that is a prefix of this build's header is a header torn while
// a fresh log was created: Open rewrites the header and opens the log
// empty. A short file with any other bytes is a parse error.
//
// Decoding is fuzzed (fuzz/fuzz_ingest_log.cc): DecodeIngestLog must
// return a clean error on arbitrary hostile input, never crash.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_database.h"
#include "util/status.h"

namespace graphsig::stream {

inline constexpr char kLogMagic[] = "GSIGLOG1";  // 8 bytes, no terminator
inline constexpr uint32_t kLogFormatVersion = 1;

enum class LogRecordType : uint8_t {
  kBatch = 1,
  kCheckpoint = 2,
};

struct LogBatch {
  uint64_t generation = 0;
  std::vector<graph::Graph> graphs;
};

// Everything a decode pass recovers from a log image.
struct IngestLogContents {
  std::vector<LogBatch> batches;  // generation order, 1..batches.size()
  // Last checkpoint at or before the final batch; empty when none.
  std::string checkpoint;
  uint64_t checkpoint_generation = 0;  // 0 = no checkpoint
  // Byte length of the prefix that parsed cleanly (header + whole
  // records). Shorter than the input iff torn_tail is set.
  size_t valid_bytes = 0;
  bool torn_tail = false;

  uint64_t last_generation() const {
    return batches.empty() ? 0 : batches.back().generation;
  }
};

// Encoders for one record (shared by the log writer and tests).
std::string EncodeBatchRecord(uint64_t generation,
                              const std::vector<graph::Graph>& graphs);
std::string EncodeCheckpointRecord(uint64_t generation,
                                   std::string_view state);

// Decodes a full log image. Hostile-input safe; a trailing partial
// record sets torn_tail instead of failing.
util::Result<IngestLogContents> DecodeIngestLog(std::string_view bytes);

// The durable log. All mutation goes through appends; the in-memory
// contents mirror the file.
class IngestLog {
 public:
  // Opens `path`, creating an empty log if absent. A torn tail is
  // truncated away and a torn header rewritten (both counted in
  // stream/log_torn_tails); any other decode failure is fatal.
  static util::Result<IngestLog> Open(const std::string& path);

  const IngestLogContents& contents() const { return contents_; }
  uint64_t last_generation() const { return contents_.last_generation(); }

  // Appends `graphs` as the next batch and returns its generation. The
  // record is fsynced before this returns; on an IoError the log's
  // generation and valid_bytes do not move, and the file is cut back to
  // valid_bytes (the error says so if that fails too).
  util::Result<uint64_t> AppendBatch(
      const std::vector<graph::Graph>& graphs);

  // Appends a checkpoint record at `generation`, which must be an
  // already-appended generation.
  util::Status AppendCheckpoint(uint64_t generation,
                                std::string_view state);

  // The full database the log describes: every batch's graphs
  // concatenated in generation order.
  graph::GraphDatabase ReplayDatabase() const;

 private:
  IngestLog(std::string path, IngestLogContents contents)
      : path_(std::move(path)), contents_(std::move(contents)) {}

  util::Status AppendRecord(std::string_view record);

  std::string path_;
  IngestLogContents contents_;
};

}  // namespace graphsig::stream

#endif  // GRAPHSIG_STREAM_INGEST_LOG_H_
