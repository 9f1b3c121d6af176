#include "trace/pcap.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace p4s::trace {

namespace {

// The writer always emits little-endian files (stable golden bytes on
// any host); the reader byte-swaps as the magic dictates.

void put_le16(std::ostream& out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xFF),
                     static_cast<char>((v >> 8) & 0xFF)};
  out.write(b, 2);
}

void put_le32(std::ostream& out, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v & 0xFF),
                     static_cast<char>((v >> 8) & 0xFF),
                     static_cast<char>((v >> 16) & 0xFF),
                     static_cast<char>((v >> 24) & 0xFF)};
  out.write(b, 4);
}

std::uint16_t load_u16(const std::uint8_t* p, bool swapped) {
  const std::uint16_t le =
      static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  if (!swapped) return le;
  return static_cast<std::uint16_t>((le >> 8) | (le << 8));
}

std::uint32_t load_u32(const std::uint8_t* p, bool swapped) {
  const std::uint32_t le = static_cast<std::uint32_t>(p[0]) |
                           (static_cast<std::uint32_t>(p[1]) << 8) |
                           (static_cast<std::uint32_t>(p[2]) << 16) |
                           (static_cast<std::uint32_t>(p[3]) << 24);
  if (!swapped) return le;
  return ((le >> 24) & 0xFF) | ((le >> 8) & 0xFF00) | ((le << 8) & 0xFF0000) |
         (le << 24);
}

}  // namespace

// ---------------------------------------------------------------- writer

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(&out), snaplen_(snaplen) {
  write_global_header();
}

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::binary |
                                                       std::ios::trunc)),
      out_(owned_.get()),
      snaplen_(snaplen) {
  if (!*owned_) {
    throw PcapError("pcap: cannot open '" + path + "' for writing");
  }
  write_global_header();
}

void PcapWriter::write_global_header() {
  put_le32(*out_, kPcapMagicNano);
  put_le16(*out_, kPcapVersionMajor);
  put_le16(*out_, kPcapVersionMinor);
  put_le32(*out_, 0);  // thiszone (GMT offset, always 0)
  put_le32(*out_, 0);  // sigfigs (always 0 in practice)
  put_le32(*out_, snaplen_);
  put_le32(*out_, kLinktypeEthernet);
  if (!*out_) throw PcapError("pcap: write failed on global header");
}

void PcapWriter::write(SimTime ts, std::span<const std::uint8_t> frame,
                       std::uint32_t orig_len) {
  if (orig_len == 0) orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t incl_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(frame.size(), snaplen_));
  put_le32(*out_, static_cast<std::uint32_t>(ts / 1'000'000'000ULL));
  put_le32(*out_, static_cast<std::uint32_t>(ts % 1'000'000'000ULL));
  put_le32(*out_, incl_len);
  put_le32(*out_, orig_len);
  out_->write(reinterpret_cast<const char*>(frame.data()), incl_len);
  if (!*out_) throw PcapError("pcap: write failed on record");
  ++records_;
}

void PcapWriter::flush() { out_->flush(); }

// ---------------------------------------------------------------- reader

PcapReader::PcapReader(std::istream& in) : in_(&in) {
  parse_global_header();
}

PcapReader::PcapReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(owned_.get()) {
  if (!*owned_) throw PcapError("pcap: cannot open '" + path + "'");
  parse_global_header();
}

void PcapReader::parse_global_header() {
  std::array<std::uint8_t, kPcapGlobalHeaderBytes> h{};
  in_->read(reinterpret_cast<char*>(h.data()), h.size());
  if (in_->gcount() != static_cast<std::streamsize>(h.size())) {
    throw PcapError("pcap: file shorter than the 24-byte global header");
  }
  // Try the magic in both resolutions and byte orders.
  const std::uint32_t magic_le = load_u32(h.data(), /*swapped=*/false);
  const std::uint32_t magic_be = load_u32(h.data(), /*swapped=*/true);
  if (magic_le == kPcapMagicNano) {
    info_.nanosecond = true;
    info_.swapped = false;
  } else if (magic_le == kPcapMagicMicro) {
    info_.nanosecond = false;
    info_.swapped = false;
  } else if (magic_be == kPcapMagicNano) {
    info_.nanosecond = true;
    info_.swapped = true;
  } else if (magic_be == kPcapMagicMicro) {
    info_.nanosecond = false;
    info_.swapped = true;
  } else {
    throw PcapError("pcap: unrecognized magic (not a pcap capture file)");
  }
  const bool sw = info_.swapped;
  info_.version_major = load_u16(h.data() + 4, sw);
  info_.version_minor = load_u16(h.data() + 6, sw);
  info_.snaplen = load_u32(h.data() + 16, sw);
  info_.linktype = load_u32(h.data() + 20, sw);
}

std::optional<PcapRecord> PcapReader::next() {
  std::array<std::uint8_t, kPcapRecordHeaderBytes> h{};
  in_->read(reinterpret_cast<char*>(h.data()), h.size());
  const auto got = in_->gcount();
  if (got == 0) return std::nullopt;  // clean EOF
  if (got != static_cast<std::streamsize>(h.size())) {
    throw PcapError("pcap: truncated record header after " +
                    std::to_string(records_read_) + " record(s)");
  }
  const bool sw = info_.swapped;
  PcapRecord rec;
  const std::uint64_t ts_sec = load_u32(h.data(), sw);
  const std::uint64_t ts_sub = load_u32(h.data() + 4, sw);
  rec.ts = info_.nanosecond ? ts_sec * 1'000'000'000ULL + ts_sub
                            : ts_sec * 1'000'000'000ULL + ts_sub * 1'000ULL;
  const std::uint32_t incl_len = load_u32(h.data() + 8, sw);
  rec.orig_len = load_u32(h.data() + 12, sw);
  // A snaplen-exceeding incl_len means a corrupt or hostile length field;
  // bail before trying to allocate it. (Tolerate snaplen 0 files.) The
  // snaplen field is no bound of its own: it may be as corrupt.
  const std::uint32_t limit =
      info_.snaplen == 0 ? kMaxRecordBytes
                         : std::min(info_.snaplen, kMaxRecordBytes);
  if (incl_len > limit) {
    throw PcapError("pcap: record " + std::to_string(records_read_) +
                    " claims " + std::to_string(incl_len) +
                    " captured bytes, beyond the limit of " +
                    std::to_string(limit));
  }
  rec.bytes.resize(incl_len);
  in_->read(reinterpret_cast<char*>(rec.bytes.data()), incl_len);
  if (in_->gcount() != static_cast<std::streamsize>(incl_len)) {
    throw PcapError("pcap: record " + std::to_string(records_read_) +
                    " truncated mid-frame (wanted " +
                    std::to_string(incl_len) + " bytes)");
  }
  ++records_read_;
  return rec;
}

}  // namespace p4s::trace
