// IPv4 address, CIDR prefix, and address-range primitives.
//
// WHOIS inetnum objects use inclusive ranges ("213.210.0.0 - 213.210.63.255")
// while BGP and RPKI speak CIDR; AddrRange::to_prefixes() performs the
// minimal-cover conversion the paper's step 2 requires.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sublet {

/// An IPv4 address as a host-order 32-bit value. Strong type: never
/// implicitly convertible to/from integers.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}

  constexpr std::uint32_t value() const { return value_; }

  /// Parse dotted-quad. Rejects octets > 255, missing octets, junk.
  static std::optional<Ipv4Addr> parse(std::string_view text);

  /// Append the dotted quad to `out`; to_string() is this into a new string.
  void append_to(std::string& out) const;
  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

 private:
  std::uint32_t value_ = 0;
};

/// A CIDR prefix: network address + length 0..32. The network address is
/// always stored canonically (host bits zeroed) — enforced by make().
class Prefix {
 public:
  constexpr Prefix() = default;

  /// Canonicalizing factory; returns nullopt if len > 32.
  static std::optional<Prefix> make(Ipv4Addr addr, int len);

  /// Parse "a.b.c.d/len". Rejects non-canonical network addresses
  /// ("10.0.0.1/8") unless `canonicalize` is true.
  static std::optional<Prefix> parse(std::string_view text,
                                     bool canonicalize = false);

  constexpr Ipv4Addr network() const { return network_; }
  constexpr int length() const { return length_; }

  /// Netmask for this length, e.g. /24 -> 255.255.255.0.
  constexpr std::uint32_t mask() const { return mask_for(length_); }

  /// First / last address covered.
  constexpr Ipv4Addr first() const { return network_; }
  constexpr Ipv4Addr last() const {
    return Ipv4Addr(network_.value() | ~mask());
  }

  /// Number of addresses (2^(32-len)); /0 yields 2^32 which needs 64 bits.
  constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  /// True if `addr` falls inside this prefix.
  constexpr bool contains(Ipv4Addr addr) const {
    return (addr.value() & mask()) == network_.value();
  }

  /// True if `other` is equal to or more specific than this prefix.
  constexpr bool covers(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.network_);
  }

  /// Append "a.b.c.d/len" to `out`; to_string() is this into a new string.
  void append_to(std::string& out) const;
  std::string to_string() const;

  /// Ordering: by network address, then by length (less specific first).
  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  constexpr Prefix(Ipv4Addr network, int length)
      : network_(network), length_(length) {}

  static constexpr std::uint32_t mask_for(int len) {
    return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
  }

  Ipv4Addr network_;
  int length_ = 0;
};

/// Inclusive address range [first, last], as WHOIS inetnum objects use.
struct AddrRange {
  Ipv4Addr first;
  Ipv4Addr last;

  /// Parse "a.b.c.d - e.f.g.h" (whitespace around '-' optional).
  static std::optional<AddrRange> parse(std::string_view text);

  bool valid() const { return first <= last; }
  std::uint64_t size() const {
    return static_cast<std::uint64_t>(last.value()) - first.value() + 1;
  }

  /// Minimal set of CIDR prefixes exactly covering the range, in address
  /// order. A range that is itself CIDR-aligned yields one prefix.
  std::vector<Prefix> to_prefixes() const;

  std::string to_string() const;

  friend auto operator<=>(const AddrRange&, const AddrRange&) = default;
};

/// Hash support so Prefix can key unordered containers.
struct PrefixHash {
  std::size_t operator()(const Prefix& p) const {
    // Pack to a unique 64-bit key and mix.
    std::uint64_t key = (std::uint64_t{p.network().value()} << 6) |
                        static_cast<std::uint64_t>(p.length());
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key);
  }
};

}  // namespace sublet
