// Brute-force prefix map: the reference the trie and stride-table
// differential suites check PrefixTrie against. It holds a sorted vector of
// (prefix, value) entries, the last insert of a prefix winning, and answers
// every query with a linear scan — too slow for production, too simple to
// be wrong. Query results mirror PrefixTrie's shapes and orders: covering
// walks least specific first, everything else in address order (network,
// then length), which is exactly the vector's sort order.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"

namespace sublet {

template <typename T>
class BruteForcePrefixMap {
 public:
  using Hit = std::pair<Prefix, const T*>;

  void insert(const Prefix& prefix, T value) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), prefix,
        [](const auto& entry, const Prefix& p) { return entry.first < p; });
    if (it != entries_.end() && it->first == prefix) {
      it->second = std::move(value);
    } else {
      entries_.emplace(it, prefix, std::move(value));
    }
  }

  const T* find(const Prefix& prefix) const {
    for (const auto& [p, v] : entries_) {
      if (p == prefix) return &v;
    }
    return nullptr;
  }

  /// Every entry covering `prefix` (exact match included), least specific
  /// first: coverers of one prefix sort by length.
  std::vector<Hit> all_covering(const Prefix& prefix) const {
    return select([&](const Prefix& p) { return p.covers(prefix); });
  }

  std::optional<Hit> most_specific_covering(const Prefix& prefix) const {
    auto hits = all_covering(prefix);
    if (hits.empty()) return std::nullopt;
    return hits.back();
  }

  std::optional<Hit> least_specific_covering(const Prefix& prefix) const {
    auto hits = all_covering(prefix);
    if (hits.empty()) return std::nullopt;
    return hits.front();
  }

  /// Entries strictly more specific than `prefix`.
  std::vector<Hit> descendants(const Prefix& prefix) const {
    return select(
        [&](const Prefix& p) { return p != prefix && prefix.covers(p); });
  }

  /// Entries no other entry covers.
  std::vector<Hit> roots() const {
    return select([&](const Prefix& p) {
      return std::none_of(entries_.begin(), entries_.end(),
                          [&](const auto& other) {
                            return other.first != p && other.first.covers(p);
                          });
    });
  }

  /// Entries that cover no other entry.
  std::vector<Hit> leaves() const {
    return select([&](const Prefix& p) {
      return std::none_of(entries_.begin(), entries_.end(),
                          [&](const auto& other) {
                            return other.first != p && p.covers(other.first);
                          });
    });
  }

  void visit(const std::function<void(const Prefix&, const T&)>& fn) const {
    for (const auto& [p, v] : entries_) fn(p, v);
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Hit> select(
      const std::function<bool(const Prefix&)>& keep) const {
    std::vector<Hit> out;
    for (const auto& [p, v] : entries_) {
      if (keep(p)) out.emplace_back(p, &v);
    }
    return out;
  }

  std::vector<std::pair<Prefix, T>> entries_;  // sorted by prefix
};

}  // namespace sublet
