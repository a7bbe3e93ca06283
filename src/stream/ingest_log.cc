#include "stream/ingest_log.h"

#include <fcntl.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "graph/serialize.h"
#include "obs/metrics.h"
#include "util/binary.h"
#include "util/durable_file.h"
#include "util/strings.h"

namespace graphsig::stream {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::Result;
using util::Status;
using util::WriteAndSync;

constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4;     // magic + version
constexpr size_t kRecordHeaderSize = 4 + 1 + 8;    // crc + type + size
constexpr size_t kMinGraphBytes = 20;  // id + tag + two counts

void CountTornTail() {
  static obs::Counter* const torn =
      obs::MetricsRegistry::Global().GetCounter("stream/log_torn_tails");
  torn->Add(1);
}

std::string FrameRecord(LogRecordType type, std::string_view payload) {
  ByteWriter body;
  body.WriteU8(static_cast<uint8_t>(type));
  body.WriteU64(payload.size());
  body.WriteBytes(payload);
  ByteWriter record;
  record.WriteU32(util::Crc32(body.buffer()));
  record.WriteBytes(body.buffer());
  return std::move(record.TakeBuffer());
}

Status DecodeBatchPayload(std::string_view payload, uint64_t expected_gen,
                          LogBatch* out) {
  ByteReader r(payload, "batch record");
  GS_RETURN_IF_ERROR(r.ReadU64(&out->generation));
  if (out->generation != expected_gen) {
    return Status::ParseError(util::StrPrintf(
        "batch generation %llu out of order (expected %llu)",
        static_cast<unsigned long long>(out->generation),
        static_cast<unsigned long long>(expected_gen)));
  }
  uint32_t count;
  GS_RETURN_IF_ERROR(r.ReadU32(&count));
  if (count > r.remaining() / kMinGraphBytes) {
    return Status::ParseError(util::StrPrintf(
        "implausible graph count %u in batch record", count));
  }
  out->graphs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    GS_ASSIGN_OR_RETURN(graph::Graph g, graph::DecodeGraph(&r));
    out->graphs.push_back(std::move(g));
  }
  if (!r.exhausted()) {
    return Status::ParseError(util::StrPrintf(
        "batch record has %zu trailing bytes", r.remaining()));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeBatchRecord(uint64_t generation,
                              const std::vector<graph::Graph>& graphs) {
  ByteWriter payload;
  payload.WriteU64(generation);
  payload.WriteU32(static_cast<uint32_t>(graphs.size()));
  for (const graph::Graph& g : graphs) graph::EncodeGraph(g, &payload);
  return FrameRecord(LogRecordType::kBatch, payload.buffer());
}

std::string EncodeCheckpointRecord(uint64_t generation,
                                   std::string_view state) {
  ByteWriter payload;
  payload.WriteU64(generation);
  payload.WriteBytes(state);
  return FrameRecord(LogRecordType::kCheckpoint, payload.buffer());
}

Result<IngestLogContents> DecodeIngestLog(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::ParseError(util::StrPrintf(
        "ingest log too short: %zu bytes", bytes.size()));
  }
  if (bytes.substr(0, kMagicSize) !=
      std::string_view(kLogMagic, kMagicSize)) {
    return Status::ParseError("bad magic: not a GraphSig ingest log");
  }
  ByteReader header(bytes, "log header");
  GS_RETURN_IF_ERROR(header.Seek(kMagicSize));
  uint32_t version = 0;
  GS_RETURN_IF_ERROR(header.ReadU32(&version));
  if (version == 0 || version > kLogFormatVersion) {
    return Status::FailedPrecondition(util::StrPrintf(
        "ingest log format version %u unsupported (max %u)", version,
        kLogFormatVersion));
  }

  IngestLogContents contents;
  size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    // A record that runs past end-of-file is a torn tail from a crashed
    // append: the valid prefix stands. Anything wrong *inside* a fully
    // present record is corruption and fails the whole decode.
    if (bytes.size() - pos < kRecordHeaderSize) {
      contents.torn_tail = true;
      break;
    }
    ByteReader r(bytes, "record header");
    GS_RETURN_IF_ERROR(r.Seek(pos));
    uint32_t stored_crc = 0;
    uint8_t type = 0;
    uint64_t payload_size = 0;
    GS_RETURN_IF_ERROR(r.ReadU32(&stored_crc));
    GS_RETURN_IF_ERROR(r.ReadU8(&type));
    GS_RETURN_IF_ERROR(r.ReadU64(&payload_size));
    if (payload_size > bytes.size() - pos - kRecordHeaderSize) {
      contents.torn_tail = true;
      break;
    }
    const std::string_view body = bytes.substr(
        pos + 4, 1 + 8 + static_cast<size_t>(payload_size));
    const uint32_t actual_crc = util::Crc32(body);
    if (stored_crc != actual_crc) {
      return Status::ParseError(util::StrPrintf(
          "record checksum mismatch at offset %zu: stored %08x, "
          "computed %08x", pos, stored_crc, actual_crc));
    }
    const std::string_view payload =
        body.substr(1 + 8, static_cast<size_t>(payload_size));
    switch (static_cast<LogRecordType>(type)) {
      case LogRecordType::kBatch: {
        LogBatch batch;
        GS_RETURN_IF_ERROR(DecodeBatchPayload(
            payload, contents.batches.size() + 1, &batch));
        contents.batches.push_back(std::move(batch));
        break;
      }
      case LogRecordType::kCheckpoint: {
        ByteReader cp(payload, "checkpoint record");
        uint64_t generation = 0;
        GS_RETURN_IF_ERROR(cp.ReadU64(&generation));
        if (generation == 0 ||
            generation > contents.last_generation()) {
          return Status::ParseError(util::StrPrintf(
              "checkpoint generation %llu exceeds last batch %llu",
              static_cast<unsigned long long>(generation),
              static_cast<unsigned long long>(
                  contents.last_generation())));
        }
        // Last checkpoint wins; earlier ones are superseded.
        contents.checkpoint.assign(payload.substr(8));
        contents.checkpoint_generation = generation;
        break;
      }
      default:
        return Status::ParseError(util::StrPrintf(
            "unknown record type %u at offset %zu", type, pos));
    }
    pos += kRecordHeaderSize + static_cast<size_t>(payload_size);
    contents.valid_bytes = pos;
  }
  if (!contents.torn_tail) contents.valid_bytes = bytes.size();
  if (contents.valid_bytes < kHeaderSize) {
    contents.valid_bytes = kHeaderSize;
  }
  return contents;
}

Result<IngestLog> IngestLog::Open(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (!in && !in.eof()) {
        return Status::IoError("read failed: " + path);
      }
      bytes = buffer.str();
    }
  }
  ByteWriter header;
  header.WriteBytes(std::string_view(kLogMagic, kMagicSize));
  header.WriteU32(kLogFormatVersion);
  if (bytes.size() < kHeaderSize &&
      std::string_view(header.buffer()).starts_with(bytes)) {
    // Fresh log, or a header torn by a crash while a fresh log was
    // created: (re)write the header, sync the directory so the file's
    // entry survives a crash too, and open the log empty.
    if (!bytes.empty()) CountTornTail();
    GS_RETURN_IF_ERROR(WriteAndSync(path, O_WRONLY | O_CREAT | O_TRUNC,
                                    header.buffer()));
    GS_RETURN_IF_ERROR(util::SyncParentDirectory(path));
    IngestLogContents contents;
    contents.valid_bytes = kHeaderSize;
    return IngestLog(path, std::move(contents));
  }
  GS_ASSIGN_OR_RETURN(IngestLogContents contents, DecodeIngestLog(bytes));
  if (contents.torn_tail) {
    // Cut the partial record off in place so the next append starts
    // clean. Nothing is rewritten, so a crash here cannot shorten the
    // valid prefix.
    CountTornTail();
    std::error_code error;
    std::filesystem::resize_file(path, contents.valid_bytes, error);
    if (error) {
      return Status::IoError("truncate failed: " + path + ": " +
                             error.message());
    }
    GS_RETURN_IF_ERROR(WriteAndSync(path, O_WRONLY, ""));
    contents.torn_tail = false;
  }
  return IngestLog(path, std::move(contents));
}

Status IngestLog::AppendRecord(std::string_view record) {
  const Status status = WriteAndSync(path_, O_WRONLY | O_APPEND, record);
  if (status.ok()) {
    contents_.valid_bytes += record.size();
    return status;
  }
  // Part of the record may have reached the file (a short write, then
  // ENOSPC), or all of it before fsync failed. Cut the file back to the
  // valid prefix, so a retried append lands where this one should have.
  std::error_code error;
  std::filesystem::resize_file(path_, contents_.valid_bytes, error);
  const Status rollback =
      error ? Status::IoError("truncate " + path_ + ": " + error.message())
            : WriteAndSync(path_, O_WRONLY, "");
  if (rollback.ok()) return status;
  return Status::IoError(status.message() +
                         "; rolling back failed too: " + rollback.message());
}

Result<uint64_t> IngestLog::AppendBatch(
    const std::vector<graph::Graph>& graphs) {
  const uint64_t generation = last_generation() + 1;
  GS_RETURN_IF_ERROR(AppendRecord(EncodeBatchRecord(generation, graphs)));
  LogBatch batch;
  batch.generation = generation;
  batch.graphs = graphs;
  contents_.batches.push_back(std::move(batch));

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const batches =
      registry.GetCounter("stream/log_batches");
  static obs::Counter* const graphs_appended =
      registry.GetCounter("stream/log_graphs");
  batches->Add(1);
  graphs_appended->Add(graphs.size());
  return generation;
}

Status IngestLog::AppendCheckpoint(uint64_t generation,
                                   std::string_view state) {
  if (generation == 0 || generation > last_generation()) {
    return Status::InvalidArgument(util::StrPrintf(
        "checkpoint generation %llu not in appended range [1, %llu]",
        static_cast<unsigned long long>(generation),
        static_cast<unsigned long long>(last_generation())));
  }
  GS_RETURN_IF_ERROR(
      AppendRecord(EncodeCheckpointRecord(generation, state)));
  contents_.checkpoint.assign(state);
  contents_.checkpoint_generation = generation;

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const checkpoints =
      registry.GetCounter("stream/log_checkpoints");
  checkpoints->Add(1);
  return Status::Ok();
}

graph::GraphDatabase IngestLog::ReplayDatabase() const {
  graph::GraphDatabase db;
  size_t total = 0;
  for (const LogBatch& batch : contents_.batches) {
    total += batch.graphs.size();
  }
  db.Reserve(total);
  for (const LogBatch& batch : contents_.batches) {
    for (const graph::Graph& g : batch.graphs) db.Add(g);
  }
  return db;
}

}  // namespace graphsig::stream
