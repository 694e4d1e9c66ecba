#include "netbase/ipv4.h"

#include <algorithm>
#include <bit>
#include <charconv>

#include "util/strings.h"

namespace sublet {

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::uint32_t value = 0;
  int octets = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    if (octets == 4) return std::nullopt;
    std::uint32_t octet = 0;
    std::size_t digits = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
      if (octet > 255) return std::nullopt;
      ++digits;
      if (digits > 3) return std::nullopt;
      ++i;
    }
    if (digits == 0) return std::nullopt;
    value = (value << 8) | octet;
    ++octets;
    if (i < text.size()) {
      if (text[i] != '.') return std::nullopt;
      ++i;
      if (i == text.size()) return std::nullopt;  // trailing dot
    }
  }
  if (octets != 4) return std::nullopt;
  return Ipv4Addr(value);
}

void Ipv4Addr::append_to(std::string& out) const {
  char text[15];  // "255.255.255.255"
  char* end = text;
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) *end++ = '.';
    end = std::to_chars(end, text + sizeof text, (value_ >> shift) & 0xFF).ptr;
  }
  out.append(text, end);
}

std::string Ipv4Addr::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::optional<Prefix> Prefix::make(Ipv4Addr addr, int len) {
  if (len < 0 || len > 32) return std::nullopt;
  return Prefix(Ipv4Addr(addr.value() & mask_for(len)), len);
}

std::optional<Prefix> Prefix::parse(std::string_view text, bool canonicalize) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv4Addr::parse(trim(text.substr(0, slash)));
  if (!addr) return std::nullopt;
  auto len = parse_u32(trim(text.substr(slash + 1)));
  if (!len || *len > 32) return std::nullopt;
  auto canonical = make(*addr, static_cast<int>(*len));
  if (!canonical) return std::nullopt;
  if (!canonicalize && canonical->network() != *addr) return std::nullopt;
  return canonical;
}

void Prefix::append_to(std::string& out) const {
  network_.append_to(out);
  char text[3];  // "/0".."/32" without the slash
  char* end = std::to_chars(text, text + sizeof text, length_).ptr;
  out.push_back('/');
  out.append(text, end);
}

std::string Prefix::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::optional<AddrRange> AddrRange::parse(std::string_view text) {
  auto dash = text.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  auto first = Ipv4Addr::parse(trim(text.substr(0, dash)));
  auto last = Ipv4Addr::parse(trim(text.substr(dash + 1)));
  if (!first || !last || *last < *first) return std::nullopt;
  return AddrRange{*first, *last};
}

std::vector<Prefix> AddrRange::to_prefixes() const {
  std::vector<Prefix> out;
  if (!valid()) return out;
  std::uint64_t cur = first.value();
  const std::uint64_t end = static_cast<std::uint64_t>(last.value()) + 1;
  while (cur < end) {
    // Largest block that is both aligned at `cur` and fits in what remains.
    int align_bits = cur == 0 ? 32 : std::countr_zero(cur);
    std::uint64_t remaining = end - cur;
    int size_bits = 63 - std::countl_zero(remaining);  // floor(log2(remaining))
    int bits = std::min({align_bits, size_bits, 32});
    int len = 32 - bits;
    out.push_back(*Prefix::make(Ipv4Addr(static_cast<std::uint32_t>(cur)), len));
    cur += std::uint64_t{1} << bits;
  }
  return out;
}

std::string AddrRange::to_string() const {
  return first.to_string() + " - " + last.to_string();
}

}  // namespace sublet
