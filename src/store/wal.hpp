// Write-ahead log: the durability floor of the store.
//
// Appends are buffered into a batch; commit() frames the batch as
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// and appends it to the log in one write. The payload is
//
//   varint doc_count, then per doc:
//     blob index_name, varint seq, blob doc_json
//
// Recovery invariant (the property the crash-recovery matrix pins):
// replay_wal() returns exactly the documents of the longest prefix of
// *fully committed* batches. A tail cut at any byte — mid-header,
// mid-payload, or between batches — is silently dropped (reported in
// `tail_bytes_dropped`), never a partial document and never an exception.
// Anything before the damaged tail is replayed deterministically; no
// fsync is needed for that determinism, only for power-loss windows we
// don't model.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "store/codec.hpp"

namespace p4s::store {

/// One logical append: a JSON document bound for `index`, at the
/// index-local sequence number `seq` (assigned by the Store).
struct WalRecord {
  std::string index;
  std::uint64_t seq = 0;
  std::string doc;  // serialized JSON
};

/// Batches must stay well under this; a length field beyond it marks a
/// corrupt (not merely truncated) tail and also stops replay.
inline constexpr std::uint32_t kWalMaxBatchBytes = 64u << 20;

class WalWriter {
 public:
  /// Opens `path` for appending (creates it if missing).
  explicit WalWriter(const std::string& path);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffer one record into the pending batch (not yet durable).
  void append(const WalRecord& record);

  std::size_t pending_docs() const { return pending_docs_; }

  /// Frame and write the pending batch; a no-op when nothing is pending.
  /// Throws StoreError if the stream went bad.
  void commit();

 private:
  std::ofstream out_;
  std::string path_;
  std::string payload_;
  std::size_t pending_docs_ = 0;
};

struct WalReplay {
  std::vector<WalRecord> records;  // longest committed-batch prefix
  std::uint64_t batches = 0;
  /// Bytes of truncated or corrupt tail that were ignored (0 on a clean
  /// log). Non-zero is expected after a crash, not an error.
  std::uint64_t tail_bytes_dropped = 0;
};

/// Replay a log file. A missing file replays as empty (a store that never
/// appended). Never throws on truncation/corruption — see the recovery
/// invariant above.
WalReplay replay_wal(const std::string& path);

/// Replay from in-memory bytes (the truncation test matrix drives this).
WalReplay replay_wal_bytes(std::string_view data);

}  // namespace p4s::store
