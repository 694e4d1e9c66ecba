#include "mrt/mrt.h"

#include <istream>
#include <ostream>

#include "mrt/bytes.h"

namespace sublet::mrt {

namespace {
constexpr std::size_t kHeaderSize = 12;  // ts(4) + type(2) + subtype(2) + len(4)
// Guard against absurd length fields from corrupt files: real TABLE_DUMP_V2
// records are well under this even for large peer tables.
constexpr std::uint32_t kMaxBody = 64 * 1024 * 1024;
}  // namespace

MrtReader::MrtReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

const MrtRecord* MrtReader::next() {
  if (error_) return nullptr;

  std::uint8_t header[kHeaderSize];
  in_.read(reinterpret_cast<char*>(header), kHeaderSize);
  if (in_.gcount() == 0 && in_.eof()) return nullptr;  // clean EOF
  if (static_cast<std::size_t>(in_.gcount()) != kHeaderSize) {
    error_ = fail("truncated MRT header after record " +
                      std::to_string(count_),
                  source_);
    return nullptr;
  }

  BufReader r(header);
  MrtRecord& rec = record_;
  rec.timestamp = r.u32();
  rec.type = r.u16();
  rec.subtype = r.u16();
  std::uint32_t length = r.u32();
  if (length > kMaxBody) {
    error_ = fail("implausible MRT record length " + std::to_string(length),
                  source_);
    return nullptr;
  }

  // resize() keeps the capacity, so one buffer serves the whole stream.
  rec.body.resize(length);
  in_.read(reinterpret_cast<char*>(rec.body.data()), length);
  if (static_cast<std::size_t>(in_.gcount()) != length) {
    error_ = fail("truncated MRT body in record " + std::to_string(count_),
                  source_);
    return nullptr;
  }
  ++count_;
  return &rec;
}

MrtWriter::MrtWriter(std::ostream& out) : out_(out) {}

void MrtWriter::write(std::uint32_t timestamp, MrtType type,
                      std::uint16_t subtype,
                      std::span<const std::uint8_t> body) {
  BufWriter w;
  w.u32(timestamp);
  w.u16(static_cast<std::uint16_t>(type));
  w.u16(subtype);
  w.u32(static_cast<std::uint32_t>(body.size()));
  out_.write(reinterpret_cast<const char*>(w.data().data()),
             static_cast<std::streamsize>(w.size()));
  out_.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  ++count_;
}

}  // namespace sublet::mrt
