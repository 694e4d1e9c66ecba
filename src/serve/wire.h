// Length-prefixed binary frame protocol for the query server
// (docs/SERVING.md).
//
// The text protocol pays a full JSON render and one syscall round trip per
// lookup; the binary protocol carries batches of raw u32 addresses so one
// frame resolves hundreds of lookups straight off the engine's prefetched
// lookup_batch path. Frames share the TCP port with the text verbs: the
// server sniffs the first byte of each request — 0xB5 (never a printable
// verb letter) opens a frame header, anything else is a text line.
//
// Every frame, both directions, is a fixed 20-byte little-endian header
// followed by `payload_len` payload bytes:
//
//   offset  size  field
//        0     4  magic       0x544C42B5 ("\xB5BLT" on the wire)
//        4     1  opcode      request: kOpLpmBatch | kOpExactBatch
//                             response: echoed from the request
//        5     1  status      request: 0; response: Status
//        6     2  reserved    0
//        8     4  request_id  echoed verbatim so clients can pipeline
//       12     4  payload_len payload bytes after the header
//       16     4  epoch       request: epoch timestamp to answer from
//                             (0 = latest; needs a catalog-mode server,
//                             docs/TIMETRAVEL.md); response: echoed
//
// Request payloads:
//   kOpLpmBatch    N x u32 LE host-order addresses (payload_len = 4N)
//   kOpExactBatch  N x {u32 addr, u8 prefix_len, u8 pad[3]} (8N bytes)
//
// Response payload (status == kOk): N x 8-byte Result entries, one per
// request entry in order. status != kOk carries an empty payload.
//
// Error handling is asymmetric by design: a malformed *frame body* (bad
// opcode, ragged payload length) gets an error-status response and the
// connection survives — the stream is still framed, so the peer can
// resync. A bad *magic* means framing itself is lost and the only safe
// move is to close. An oversized payload_len is answered with kTooLarge
// and then closed (the server refuses to buffer it). An epoch the server
// cannot resolve (no catalog, predates the first epoch, or its chain
// fails to materialize) is a body-level error too: kBadEpoch with an
// empty payload, and the connection survives.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace sublet::serve::wire {

/// First header byte on the wire; must never collide with the first byte
/// of a text verb (ASCII letters) or CR/LF.
inline constexpr std::uint8_t kMagicByte0 = 0xB5;
inline constexpr std::uint32_t kMagic = 0x544C42B5u;  // LE: B5 42 4C 54

inline constexpr std::size_t kHeaderSize = 20;

enum Opcode : std::uint8_t {
  kOpLpmBatch = 1,    ///< payload: raw u32 addresses, /32 LPM each
  kOpExactBatch = 2,  ///< payload: (addr, prefix_len) pairs, exact match
};

enum Status : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,   ///< ragged payload length / invalid entry
  kTooLarge = 2,   ///< payload_len over kMaxPayload (connection closes)
  kBadOpcode = 3,  ///< unknown opcode byte
  kBadEpoch = 4,   ///< epoch unresolvable (connection survives)
};

/// Cap on addresses per frame (64x the text MLPM cap — one frame is meant
/// to replace hundreds of text round trips).
inline constexpr std::size_t kMaxFrameEntries = 65536;
/// Largest request payload the server will buffer: the exact-batch entry
/// stride times the entry cap.
inline constexpr std::size_t kMaxPayload = kMaxFrameEntries * 8;

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint8_t opcode = 0;
  std::uint8_t status = 0;
  std::uint16_t reserved = 0;
  std::uint32_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t epoch = 0;  ///< 0 = latest epoch (a snapshot server's only one)
};

/// One per-address answer. `prefix_len == kMissLen` means no covering
/// (or exactly matching) record; the other fields are zero then.
struct Result {
  std::uint32_t prefix_addr = 0;  ///< matched prefix network, host order
  std::uint8_t prefix_len = 0;
  std::uint8_t group = 0;  ///< raw leasing::InferenceGroup value
  std::uint8_t flags = 0;  ///< bit 0: leased
  std::uint8_t reserved = 0;
};
inline constexpr std::uint8_t kMissLen = 0xFF;
inline constexpr std::uint8_t kFlagLeased = 0x01;
inline constexpr std::size_t kResultSize = 8;

// ---- little-endian field access (works on either host endianness) ------

inline std::uint32_t load_u32le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

inline void store_u32le(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

/// Decode a header from `kHeaderSize` buffered bytes. Returns false when
/// the magic does not match (framing lost; caller should close).
inline bool decode_header(const char* p, FrameHeader& out) {
  out.magic = load_u32le(p);
  if (out.magic != kMagic) return false;
  out.opcode = static_cast<std::uint8_t>(p[4]);
  out.status = static_cast<std::uint8_t>(p[5]);
  out.reserved = static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[6]) |
      (static_cast<unsigned char>(p[7]) << 8));
  out.request_id = load_u32le(p + 8);
  out.payload_len = load_u32le(p + 12);
  out.epoch = load_u32le(p + 16);
  return true;
}

/// Append an encoded header to `out` (used for both directions).
inline void append_header(std::string& out, const FrameHeader& h) {
  char buf[kHeaderSize];
  store_u32le(buf, h.magic);
  buf[4] = static_cast<char>(h.opcode);
  buf[5] = static_cast<char>(h.status);
  buf[6] = static_cast<char>(h.reserved & 0xFF);
  buf[7] = static_cast<char>((h.reserved >> 8) & 0xFF);
  store_u32le(buf + 8, h.request_id);
  store_u32le(buf + 12, h.payload_len);
  store_u32le(buf + 16, h.epoch);
  out.append(buf, kHeaderSize);
}

inline void append_result(std::string& out, const Result& r) {
  char buf[kResultSize];
  store_u32le(buf, r.prefix_addr);
  buf[4] = static_cast<char>(r.prefix_len);
  buf[5] = static_cast<char>(r.group);
  buf[6] = static_cast<char>(r.flags);
  buf[7] = static_cast<char>(r.reserved);
  out.append(buf, kResultSize);
}

inline Result decode_result(const char* p) {
  Result r;
  r.prefix_addr = load_u32le(p);
  r.prefix_len = static_cast<std::uint8_t>(p[4]);
  r.group = static_cast<std::uint8_t>(p[5]);
  r.flags = static_cast<std::uint8_t>(p[6]);
  r.reserved = static_cast<std::uint8_t>(p[7]);
  return r;
}

}  // namespace sublet::serve::wire
