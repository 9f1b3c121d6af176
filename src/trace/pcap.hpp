// Classic libpcap capture files — the 24-byte global header plus 16-byte
// per-record headers tcpdump has written since the 1990s.
//
// The writer emits the nanosecond-resolution magic (0xa1b23c4d) in
// little-endian byte order with LINKTYPE_ETHERNET, so the simulator's
// integer-nanosecond timestamps survive a round trip exactly and the
// files open in tcpdump/Wireshark/scapy unmodified. The reader accepts
// both byte orders and both timestamp resolutions (microsecond magic
// 0xa1b2c3d4, nanosecond magic 0xa1b23c4d), so real-world captures from
// foreign tools load too. Malformed or truncated files raise PcapError —
// a clean, catchable failure, never a crash.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace p4s::trace {

inline constexpr std::uint32_t kPcapMagicNano = 0xa1b23c4d;
inline constexpr std::uint32_t kPcapMagicMicro = 0xa1b2c3d4;
inline constexpr std::uint16_t kPcapVersionMajor = 2;
inline constexpr std::uint16_t kPcapVersionMinor = 4;
inline constexpr std::uint32_t kLinktypeEthernet = 1;
inline constexpr std::uint32_t kDefaultSnaplen = 65535;
/// libpcap's MAXIMUM_SNAPLEN: no record holds more, whatever the file's
/// snaplen field says.
inline constexpr std::uint32_t kMaxRecordBytes = 262144;

inline constexpr std::size_t kPcapGlobalHeaderBytes = 24;
inline constexpr std::size_t kPcapRecordHeaderBytes = 16;

/// Thrown on malformed or truncated capture files and on write failures.
class PcapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One captured frame. `orig_len` is the frame's length on the wire;
/// `bytes` holds the captured prefix (<= orig_len when the capture was
/// snaplen-truncated — ours always are, since payload bytes are virtual).
struct PcapRecord {
  SimTime ts = 0;  // nanoseconds
  std::uint32_t orig_len = 0;
  std::vector<std::uint8_t> bytes;
};

class PcapWriter {
 public:
  /// Write to a caller-owned stream (tests, in-memory captures).
  explicit PcapWriter(std::ostream& out,
                      std::uint32_t snaplen = kDefaultSnaplen);
  /// Open `path` for writing (truncates). Throws PcapError on failure.
  explicit PcapWriter(const std::string& path,
                      std::uint32_t snaplen = kDefaultSnaplen);

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Append one record. `orig_len == 0` means "frame.size()". Frames
  /// longer than the snaplen are truncated (orig_len keeps the full
  /// length). Throws PcapError if the stream went bad.
  void write(SimTime ts, std::span<const std::uint8_t> frame,
             std::uint32_t orig_len = 0);

  std::uint64_t records() const { return records_; }
  void flush();

 private:
  void write_global_header();

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  std::uint32_t snaplen_;
  std::uint64_t records_ = 0;
};

class PcapReader {
 public:
  struct FileInfo {
    bool nanosecond = false;  // else microsecond timestamps
    bool swapped = false;     // file byte order != reader byte handling
    std::uint16_t version_major = 0;
    std::uint16_t version_minor = 0;
    std::uint32_t snaplen = 0;
    std::uint32_t linktype = 0;
  };

  /// Parse the global header from a caller-owned stream. Throws PcapError
  /// on a short or unrecognizable header.
  explicit PcapReader(std::istream& in);
  /// Open `path` and parse its global header. Throws PcapError.
  explicit PcapReader(const std::string& path);

  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  const FileInfo& info() const { return info_; }

  /// Next record; nullopt at clean end of file. Timestamps are always
  /// returned in nanoseconds (microsecond files are scaled). Throws
  /// PcapError on a record truncated mid-header or mid-payload, or on an
  /// incl_len exceeding the snaplen or kMaxRecordBytes (corrupt length
  /// field).
  std::optional<PcapRecord> next();

  std::uint64_t records_read() const { return records_read_; }

 private:
  void parse_global_header();

  std::unique_ptr<std::ifstream> owned_;
  std::istream* in_;
  FileInfo info_;
  std::uint64_t records_read_ = 0;
};

}  // namespace p4s::trace
