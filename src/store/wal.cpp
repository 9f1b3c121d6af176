#include "store/wal.hpp"

#include <fstream>
#include <sstream>

#include "p4/hash.hpp"

namespace p4s::store {

namespace {

std::uint32_t payload_crc(std::string_view payload) {
  static const p4::Crc32 crc;
  return crc({reinterpret_cast<const std::uint8_t*>(payload.data()),
              payload.size()});
}

}  // namespace

WalWriter::WalWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::app), path_(path) {
  if (!out_) throw StoreError("wal: cannot open " + path);
}

void WalWriter::append(const WalRecord& record) {
  put_blob(payload_, record.index);
  put_varint(payload_, record.seq);
  put_blob(payload_, record.doc);
  ++pending_docs_;
}

void WalWriter::commit() {
  if (pending_docs_ == 0) return;
  std::string frame;
  std::string payload;
  put_varint(payload, pending_docs_);
  payload += payload_;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, payload_crc(payload));
  frame += payload;
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) throw StoreError("wal: write failed on " + path_);
  payload_.clear();
  pending_docs_ = 0;
}

WalReplay replay_wal_bytes(std::string_view data) {
  WalReplay out;
  ByteReader in(data);
  while (in.remaining() > 0) {
    const std::size_t batch_start = in.pos();
    // Any inconsistency from here on is a damaged tail: rewind to the
    // batch boundary and stop.
    const auto stop = [&] {
      out.tail_bytes_dropped = data.size() - batch_start;
      return out;
    };
    auto len = in.u32();
    auto crc = in.u32();
    if (!len || !crc || *len > kWalMaxBatchBytes || *len > in.remaining()) {
      return stop();
    }
    auto payload = in.bytes(*len);
    if (!payload) return stop();
    if (payload_crc(*payload) != *crc) return stop();
    ByteReader body(*payload);
    auto count = body.varint();
    if (!count) return stop();
    std::vector<WalRecord> batch;
    batch.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto index = body.blob();
      auto seq = body.varint();
      auto doc = body.blob();
      if (!index || !seq.has_value() || !doc) return stop();
      batch.push_back(
          {std::string(*index), *seq, std::string(*doc)});
    }
    // The batch is whole and checksummed: commit it to the replay.
    for (auto& record : batch) out.records.push_back(std::move(record));
    ++out.batches;
  }
  return out;
}

WalReplay replay_wal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};  // no log yet: empty store
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  return replay_wal_bytes(data);
}

}  // namespace p4s::store
