// Path-compressed binary radix (Patricia) trie keyed by CIDR prefixes,
// stored in one contiguous arena.
//
// This single structure backs both sides of the paper's pipeline:
//  - the WHOIS address-allocation tree (step 2: roots = portable blocks,
//    leaves = non-portable sub-allocations), and
//  - RIB lookups (step 4: exact match and least-specific covering origin).
//
// Layout (docs/PERF.md has the full story):
//  - Nodes live in one `std::vector<Node>` arena; children are 32-bit
//    indices, not pointers. A node covers a whole run of prefix bits
//    (`key` + `len`), so a /24 entry costs at most two nodes (one leaf plus
//    at most one fork), not the 24 heap allocations of a one-node-per-bit
//    trie.
//  - Values live in a parallel slot vector; nodes hold a slot index, so
//    pure branch nodes pay no per-node `std::optional<T>`.
//  - All traversals are templated on the callback, so walks inline instead
//    of bouncing through `std::function`.
//
// Construction is either incremental (`insert`, used by OriginTracker-style
// streaming callers and tests) or bulk (`freeze`, one pass over a sorted
// entry vector — used by AllocationTree after WHOIS parse). Both produce
// the same canonical structure: `roots()`, `leaves()` and `visit()` agree.
//
// Reference caveat: values live in a vector, so pointers/references
// returned by `insert`/`find` are invalidated by any later `insert` or
// `freeze`. Use them before the next mutation (all in-tree callers do).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"
#include "util/expected.h"

namespace sublet {

/// Whether freeze()/from_arena() should also build the DIR-24-8 stride
/// table (64 MiB of first-level array; serve-path adoption wants it, the
/// inference pipeline's short-lived tries do not).
enum class TrieStride { kOff, kBuild };

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.push_back(Node{}); }  // arena slot 0 is the /0 root

  /// Sentinel handle returned by lpm_handle()/lookup_batch() when no entry
  /// covers the queried address.
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

  /// Pre-size the arena for `entries` prefixes (at most one fork per entry).
  void reserve(std::size_t entries) {
    nodes_.reserve(2 * entries + 1);
    values_.reserve(entries);
  }

  /// Bulk-build: sort the entries and construct the trie in one pass by
  /// maintaining the rightmost path as a stack — no per-entry root-down
  /// descent. Duplicate prefixes keep the last occurrence, matching
  /// repeated `insert` overwrite semantics.
  static PrefixTrie freeze(std::vector<std::pair<Prefix, T>> entries,
                           TrieStride stride = TrieStride::kOff) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    PrefixTrie trie;
    trie.reserve(entries.size());
    std::uint32_t stack[34];  // rightmost path; depth <= 33 (len 0..32)
    int depth = 0;
    stack[0] = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i + 1 < entries.size() && entries[i + 1].first == entries[i].first) {
        continue;  // duplicate prefix: the last one wins
      }
      const std::uint32_t key = entries[i].first.network().value();
      const int len = entries[i].first.length();
      std::uint32_t popped = kNil;
      while (!trie.covers(trie.nodes_[stack[depth]], key, len)) {
        popped = stack[depth];
        --depth;
      }
      const std::uint32_t top = stack[depth];
      if (len_of(trie.nodes_[top]) == len) {  // only reachable via duplicates
        trie.assign(top, std::move(entries[i].second));
        continue;
      }
      if (popped == kNil) {
        // `top` is the most recent node; its branch toward `key` is free.
        const std::uint32_t leaf = trie.new_node(key, len);
        trie.nodes_[top].child[bit_at(key, len_of(trie.nodes_[top]))] = leaf;
        trie.assign(leaf, std::move(entries[i].second));
        stack[++depth] = leaf;
        continue;
      }
      // `popped` shares `cl` leading bits with the new entry; either they
      // split right at `top` or an internal fork is spliced in between.
      const int cl = common_len(trie.nodes_[popped].key, key,
                                std::min(len_of(trie.nodes_[popped]), len));
      const std::uint32_t leaf = trie.new_node(key, len);
      if (cl == len_of(trie.nodes_[top])) {
        trie.nodes_[top].child[bit_at(key, cl)] = leaf;
      } else {
        const std::uint32_t fork = trie.new_node(key & mask(cl), cl);
        trie.nodes_[fork].child[bit_at(trie.nodes_[popped].key, cl)] = popped;
        trie.nodes_[fork].child[bit_at(key, cl)] = leaf;
        trie.nodes_[top].child[bit_at(key, len_of(trie.nodes_[top]))] = fork;
        stack[++depth] = fork;
      }
      trie.assign(leaf, std::move(entries[i].second));
      stack[++depth] = leaf;
    }
    trie.build_jump_table();
    if (stride == TrieStride::kBuild) trie.build_stride_table();
    return trie;
  }

  /// Insert or overwrite the value at `prefix`. Returns a reference to the
  /// stored value (valid until the next insert/freeze).
  T& insert(const Prefix& prefix, T value) {
    jump_.clear();  // structure changes; the fast path would be stale
    stride24_ = {};  // drop (not clear) the stride table: release its 64 MiB
    stride8_ = {};
    const std::uint32_t key = prefix.network().value();
    const int len = prefix.length();
    std::uint32_t cur = 0;
    for (;;) {
      // Invariant: nodes_[cur] covers `prefix`.
      if (len_of(nodes_[cur]) == len) return assign(cur, std::move(value));
      const int b = bit_at(key, len_of(nodes_[cur]));
      const std::uint32_t c = nodes_[cur].child[b];
      if (c == kNil) {
        const std::uint32_t leaf = new_node(key, len);
        nodes_[cur].child[b] = leaf;
        return assign(leaf, std::move(value));
      }
      const int cl =
          common_len(nodes_[c].key, key, std::min(len_of(nodes_[c]), len));
      if (cl == len_of(nodes_[c])) {  // child covers prefix: keep descending
        cur = c;
        continue;
      }
      if (cl == len) {  // prefix covers child: splice a node above it
        const std::uint32_t mid = new_node(key, len);
        nodes_[mid].child[bit_at(nodes_[c].key, len)] = c;
        nodes_[cur].child[b] = mid;
        return assign(mid, std::move(value));
      }
      // Paths diverge inside the child's edge: fork at the common prefix.
      const std::uint32_t fork = new_node(key & mask(cl), cl);
      const std::uint32_t leaf = new_node(key, len);
      nodes_[fork].child[bit_at(nodes_[c].key, cl)] = c;
      nodes_[fork].child[bit_at(key, cl)] = leaf;
      nodes_[cur].child[b] = fork;
      return assign(leaf, std::move(value));
    }
  }

  /// Remove the value stored exactly at `prefix`. Returns false when no
  /// entry sits there. Like insert() this drops the derived tables; the
  /// node and its value slot stay in the arena (the slot is unreferenced
  /// until the next freeze), so removal is an O(depth) metadata edit —
  /// the catalog's delta apply leans on this to retire leaves without
  /// rebuilding the trie. An erased trie no longer round-trips through
  /// node_bytes()/value_bytes() (from_arena insists every slot is
  /// referenced); serialize by re-freezing instead.
  bool erase(const Prefix& prefix) {
    const std::uint32_t idx = locate(prefix);
    if (idx == kNil || slot_of(nodes_[idx]) == kNoSlot) return false;
    jump_.clear();
    stride24_ = {};
    stride8_ = {};
    nodes_[idx].meta = (nodes_[idx].meta & ~kSlotMask) | kNoSlot;
    --size_;
    return true;
  }

  /// Copy of the structural core (node arena + value slots) without the
  /// jump/stride tables — the cheap starting point for applying a batch of
  /// inserts/erases to a frozen trie: the 64 MiB stride table is never
  /// duplicated only to be dropped by the first mutation. Rebuild the
  /// tables on the copy once mutation stops.
  PrefixTrie core_copy() const {
    PrefixTrie out;
    out.nodes_ = nodes_;
    out.values_ = values_;
    out.size_ = size_;
    return out;
  }

  /// Copy `other`'s jump table verbatim instead of rebuilding it. Valid
  /// ONLY when this trie's structure is node-for-node identical to
  /// `other`'s — e.g. a core_copy() whose stored values were reassigned
  /// but that saw no insert/erase (the catalog's in-place-only delta
  /// applies): jump entries hold node indices, which such a copy
  /// preserves exactly.
  void adopt_jump_table(const PrefixTrie& other) { jump_ = other.jump_; }

  /// Value stored exactly at `prefix`, or nullptr.
  T* find(const Prefix& prefix) {
    if (!stride24_.empty()) {
      // Stride fast path: the deepest valued covering entry decides exact
      // matches too. Shallower than the query => nothing sits exactly at
      // the query (a valued node there would cover it); equal length =>
      // that node IS the exact match (covering at equal length means equal
      // keys). Only a *deeper* cover forces the Patricia walk, because an
      // unvalued-or-valued node may still sit exactly at the query prefix.
      const std::uint32_t e =
          stride_resolve(prefix.network().value(), prefix.length());
      if (e == kNil) return nullptr;
      const int el = len_of(nodes_[e]);
      if (el < prefix.length()) return nullptr;
      if (el == prefix.length()) return &values_[slot_of(nodes_[e])];
    }
    const std::uint32_t idx = locate(prefix);
    if (idx == kNil || slot_of(nodes_[idx]) == kNoSlot) return nullptr;
    return &values_[slot_of(nodes_[idx])];
  }
  const T* find(const Prefix& prefix) const {
    return const_cast<PrefixTrie*>(this)->find(prefix);
  }

  /// Entry whose prefix covers `prefix` with the greatest length —
  /// longest-prefix match. Includes an exact match. Returns nullopt if no
  /// entry covers it.
  std::optional<std::pair<Prefix, const T*>> most_specific_covering(
      const Prefix& prefix) const {
    const std::uint32_t key = prefix.network().value();
    const int len = prefix.length();
    if (!stride24_.empty()) {
      // DIR-24-8 fast path: one or two array loads. The stored entry is
      // the deepest valued node covering the address; it answers the query
      // outright unless it is deeper than the query length (then the true
      // answer is some shallower ancestor — fall through to the walk).
      const std::uint32_t e = stride_resolve(key, len);
      if (e == kNil) return std::nullopt;
      if (len_of(nodes_[e]) <= len) return entry_at(e);
    }
    std::uint32_t best = kNil;
    if (!jump_.empty() && len >= kJumpBits) {
      const JumpEntry& e = jump_[key >> (32 - kJumpBits)];
      best = e.deep;
      walk_below(e.start, key, len, [&](std::uint32_t idx) { best = idx; });
    } else {
      walk_path(key, len, [&](std::uint32_t idx) { best = idx; });
    }
    return entry_at(best);
  }

  /// Entry whose prefix covers `prefix` with the smallest length — the
  /// least-specific covering entry (paper step 4's root-origin fallback).
  std::optional<std::pair<Prefix, const T*>> least_specific_covering(
      const Prefix& prefix) const {
    const std::uint32_t key = prefix.network().value();
    const int len = prefix.length();
    std::uint32_t best = kNil;
    if (!jump_.empty() && len >= kJumpBits) {
      const JumpEntry& e = jump_[key >> (32 - kJumpBits)];
      best = e.shallow;  // least-specific covering at depth <= kJumpBits
      if (best == kNil) {
        walk_below(e.start, key, len, [&](std::uint32_t idx) {
          if (best == kNil) best = idx;
        });
      }
    } else {
      walk_path(key, len, [&](std::uint32_t idx) {
        if (best == kNil) best = idx;
      });
    }
    return entry_at(best);
  }

  /// All entries covering `prefix`, least specific first (includes exact).
  std::vector<std::pair<Prefix, const T*>> all_covering(
      const Prefix& prefix) const {
    std::vector<std::pair<Prefix, const T*>> out;
    all_covering(prefix, out);
    return out;
  }

  /// Out-param variant for hot paths: clears and refills `out`, so a caller
  /// with a reused scratch vector pays zero allocations once the vector has
  /// grown to its steady-state capacity.
  void all_covering(const Prefix& prefix,
                    std::vector<std::pair<Prefix, const T*>>& out) const {
    out.clear();
    walk_path(prefix.network().value(), prefix.length(),
              [&](std::uint32_t idx) {
                out.emplace_back(prefix_of(nodes_[idx]),
                                 &values_[slot_of(nodes_[idx])]);
              });
  }

  /// Precompute the level-compressed fast path for covering queries: one
  /// table bucket per top-`kJumpBits` bit pattern holding the deepest trie
  /// node at depth <= kJumpBits covering that bucket plus the first/last
  /// valued nodes on the path down to it. Covering walks on queries of
  /// length >= kJumpBits then start ~kJumpBits levels deep instead of at
  /// the root, skipping most of the pointer-chasing. `freeze()` calls this
  /// automatically; incremental builders (e.g. Rib) call it once the trie
  /// is final. Any later `insert` drops the table (queries fall back to the
  /// root walk) — rebuild when mutation stops.
  void build_jump_table() {
    jump_.assign(std::size_t{1} << kJumpBits, JumpEntry{});
    fill_jump(0, kNil, kNil);
  }

  // ---- DIR-24-8 stride table (docs/PERF.md) -----------------------------
  //
  // A flat 2^24-entry first-level array answers covering queries for every
  // address whose deepest match is <= /24 in a single load; buckets that
  // contain longer masks point at a second-level 256-slot chunk (one more
  // load). Entries are node handles into the arena — the trie stays the
  // single source of truth, the table is a read-only index over it.

  /// Precompute the stride table. Like the jump table this is a frozen-trie
  /// accelerator: any later `insert` drops it (rebuild when mutation
  /// stops). Costs 64 MiB for the first level plus ~1 KiB per bucket that
  /// holds >24-bit prefixes, which is why the inference pipeline's
  /// short-lived tries skip it (TrieStride::kOff) and the serve adoption
  /// path builds it (TrieStride::kBuild).
  void build_stride_table() {
    assert(nodes_.size() < kChunkFlag);
    stride24_.assign(std::size_t{1} << 24, kNil);
    stride8_.clear();
    fill_stride(0);
  }

  bool has_stride_table() const { return !stride24_.empty(); }

  /// Longest-prefix-match handle for a /32 address: at most two dependent
  /// loads, never a trie walk (a /32 query cannot be shadowed by a deeper
  /// entry). Returns kNoEntry when nothing covers the address. Requires
  /// has_stride_table().
  std::uint32_t lpm_handle(std::uint32_t addr) const {
    assert(has_stride_table());
    return stride_resolve(addr, 32);
  }

  /// Batched LPM over /32 addresses, software-prefetched: first-level lines
  /// are prefetched kPrefetchAhead keys ahead, and second-level chunk slots
  /// are prefetched in pass one and resolved in pass two, so a batch never
  /// stalls on a dependent cache miss the way a lookup-per-call loop does.
  /// Writes one handle (or kNoEntry) per address; allocation-free.
  /// Requires has_stride_table() and out.size() >= addrs.size().
  void lookup_batch(std::span<const std::uint32_t> addrs,
                    std::span<std::uint32_t> out) const {
    assert(has_stride_table() && out.size() >= addrs.size());
    // Distance and locality were tuned on an L2-cold uniform address
    // stream: 32 keys ahead buys enough lead time to cover an L2/L3 miss
    // at ~10ns/lookup, and locality 3 (keep in L1) beats the streaming
    // hints because the demand load follows within a few dozen iterations.
    constexpr std::size_t kPrefetchAhead = 32;
    const std::size_t n = addrs.size();
    std::size_t chunked = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        __builtin_prefetch(&stride24_[addrs[i + kPrefetchAhead] >> 8],
                           /*rw=*/0, /*locality=*/3);
      }
      const std::uint32_t e = stride24_[addrs[i] >> 8];
      out[i] = e;
      if (e >= kChunkFlag && e != kNil) {
        __builtin_prefetch(&stride8_[e & ~kChunkFlag].slot[addrs[i] & 0xFFu],
                           /*rw=*/0, /*locality=*/3);
        ++chunked;
      }
    }
    if (chunked == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = out[i];
      if (e >= kChunkFlag && e != kNil) {
        out[i] = stride8_[e & ~kChunkFlag].slot[addrs[i] & 0xFFu];
      }
    }
  }

  /// Materialize the (prefix, value) behind a handle returned by
  /// lpm_handle()/lookup_batch(). The handle must not be kNoEntry.
  std::pair<Prefix, const T*> entry(std::uint32_t handle) const {
    return {prefix_of(nodes_[handle]), &values_[slot_of(nodes_[handle])]};
  }

  /// All entries covered by `prefix` (strictly more specific; excludes the
  /// entry at `prefix` itself), in address order.
  std::vector<std::pair<Prefix, const T*>> descendants(
      const Prefix& prefix) const {
    std::vector<std::pair<Prefix, const T*>> out;
    const std::uint32_t key = prefix.network().value();
    const int len = prefix.length();
    std::uint32_t cur = 0;
    while (len_of(nodes_[cur]) < len) {
      const std::uint32_t c =
          nodes_[cur].child[bit_at(key, len_of(nodes_[cur]))];
      if (c == kNil) return out;
      if (len_of(nodes_[c]) >= len) {
        // The edge to `c` crosses the query length; the whole subtree is
        // covered iff the child's key matches the query through `len` bits.
        if ((nodes_[c].key & mask(len)) != key) return out;
        cur = c;
        break;
      }
      if ((key & mask(len_of(nodes_[c]))) != nodes_[c].key) return out;
      cur = c;
    }
    visit_subtree(cur, [&](const Prefix& p, const T& v) {
      if (p != prefix) out.emplace_back(p, &v);
    });
    return out;
  }

  /// Entries with a value whose nearest valued ancestor does not exist —
  /// the roots of the allocation forest.
  std::vector<std::pair<Prefix, const T*>> roots() const {
    std::vector<std::pair<Prefix, const T*>> out;
    collect_roots(0, out);
    return out;
  }

  /// Entries with a value and no valued descendant — the leaves.
  std::vector<std::pair<Prefix, const T*>> leaves() const {
    std::vector<std::pair<Prefix, const T*>> out;
    collect_leaves(0, out);
    return out;
  }

  /// Visit every (prefix, value) entry in address order. `fn` is any
  /// callable taking (const Prefix&, const T&); it inlines.
  template <typename Fn>
  void visit(Fn&& fn) const {
    visit_subtree(0, fn);
  }

  /// Visit every stored value mutably, in arena (insertion) order — for
  /// freeze-time normalization passes that don't care about address order.
  template <typename Fn>
  void for_each_value(Fn&& fn) {
    for (T& value : values_) fn(value);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // ---- Raw-arena (de)serialization hooks (src/snapshot/) ----------------
  //
  // The arena is already one contiguous block of trivially copyable nodes
  // plus a parallel value vector, so a frozen trie round-trips through a
  // snapshot file as two bulk byte sections — no per-node parsing. Only
  // available when T itself is trivially copyable (the snapshot stores
  // record indices). The jump table is rebuilt on adoption, not stored.

  /// Raw bytes of the node arena (includes the root at index 0).
  std::span<const std::uint8_t> node_bytes() const {
    static_assert(std::is_trivially_copyable_v<Node>);
    return {reinterpret_cast<const std::uint8_t*>(nodes_.data()),
            nodes_.size() * sizeof(Node)};
  }

  /// Raw bytes of the value slot vector, parallel to the valued nodes.
  std::span<const std::uint8_t> value_bytes() const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena serialization requires a trivially copyable T");
    return {reinterpret_cast<const std::uint8_t*>(values_.data()),
            values_.size() * sizeof(T)};
  }

  /// Rebuild a trie from arena bytes written by node_bytes()/value_bytes().
  /// The bytes are untrusted (they come from a file): every structural
  /// invariant that keeps traversals in-bounds and loop-free is checked —
  /// child indices in range, prefix lengths strictly increasing downward,
  /// canonical keys, value slots in range. Returns Error, never crashes.
  static Expected<PrefixTrie> from_arena(std::span<const std::uint8_t> nodes,
                                         std::span<const std::uint8_t> values,
                                         TrieStride stride = TrieStride::kOff) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena adoption requires a trivially copyable T");
    if (nodes.size() % sizeof(Node) != 0 || nodes.empty()) {
      return fail("trie node section is not a whole number of nodes");
    }
    if (values.size() % sizeof(T) != 0) {
      return fail("trie value section is not a whole number of values");
    }
    PrefixTrie trie;
    trie.nodes_.resize(nodes.size() / sizeof(Node));
    std::memcpy(trie.nodes_.data(), nodes.data(), nodes.size());
    trie.values_.resize(values.size() / sizeof(T));
    if (!values.empty()) {
      std::memcpy(trie.values_.data(), values.data(), values.size());
    }
    const std::uint32_t node_count =
        static_cast<std::uint32_t>(trie.nodes_.size());
    const std::uint32_t value_count =
        static_cast<std::uint32_t>(trie.values_.size());
    if (len_of(trie.nodes_[0]) != 0 || trie.nodes_[0].key != 0) {
      return fail("trie root is not the /0 node");
    }
    std::size_t valued = 0;
    for (std::uint32_t i = 0; i < node_count; ++i) {
      const Node& n = trie.nodes_[i];
      if (len_of(n) > 32) return fail("trie node has length > 32");
      if ((n.key & ~mask(len_of(n))) != 0) {
        return fail("trie node key has host bits set");
      }
      for (int side = 0; side < 2; ++side) {
        const std::uint32_t c = n.child[side];
        if (c == kNil) continue;
        if (c == 0 || c >= node_count) {
          return fail("trie child index out of range");
        }
        if (len_of(trie.nodes_[c]) <= len_of(n)) {
          return fail("trie child does not deepen the prefix");
        }
        if (bit_at(trie.nodes_[c].key, len_of(n)) != side) {
          return fail("trie child hangs off the wrong branch");
        }
      }
      if (slot_of(n) != kNoSlot) {
        if (slot_of(n) >= value_count) {
          return fail("trie value slot out of range");
        }
        ++valued;
      }
    }
    if (valued != value_count) {
      return fail("trie value count does not match valued nodes");
    }
    trie.size_ = valued;
    trie.build_jump_table();
    if (stride == TrieStride::kBuild) trie.build_stride_table();
    return trie;
  }

  /// Arena footprint, for benchmarks and capacity planning.
  std::size_t node_count() const { return nodes_.size(); }

  /// Per-structure footprint; STATS surfaces this breakdown so capacity
  /// planning sees where the bytes go (the stride table dominates once
  /// built: its first level alone is 64 MiB regardless of entry count).
  struct MemoryBreakdown {
    std::size_t node_bytes = 0;
    std::size_t value_bytes = 0;
    std::size_t jump_bytes = 0;
    std::size_t stride24_bytes = 0;
    std::size_t stride8_bytes = 0;
    std::size_t total() const {
      return node_bytes + value_bytes + jump_bytes + stride24_bytes +
             stride8_bytes;
    }
  };
  MemoryBreakdown memory_breakdown() const {
    return {nodes_.size() * sizeof(Node), values_.size() * sizeof(T),
            jump_.size() * sizeof(JumpEntry),
            stride24_.size() * sizeof(std::uint32_t),
            stride8_.size() * sizeof(StrideChunk)};
  }
  std::size_t memory_bytes() const { return memory_breakdown().total(); }

 private:
  static constexpr std::uint32_t kNil = kNoEntry;      // child sentinel
  static constexpr std::uint32_t kSlotMask = (1u << 26) - 1;
  static constexpr std::uint32_t kNoSlot = kSlotMask;   // "no value" slot

  /// Exactly 16 bytes and 16-aligned: four nodes per cache line, and a node
  /// never straddles a line boundary. The prefix length (0..32) is packed
  /// into the top 6 bits of `meta`; the value slot takes the low 26 bits
  /// (up to ~67M valued entries, far beyond RIR/RIB scale).
  struct alignas(16) Node {
    std::uint32_t key = 0;  // network bits (host bits zero)
    std::uint32_t child[2] = {kNil, kNil};
    std::uint32_t meta = kNoSlot;  // [31:26] length, [25:0] value slot
  };
  static_assert(sizeof(Node) == 16);

  static int len_of(const Node& n) { return static_cast<int>(n.meta >> 26); }
  static std::uint32_t slot_of(const Node& n) { return n.meta & kSlotMask; }

  /// Covering-query fast path: one bucket per top-kJumpBits bit pattern.
  /// 2^13 buckets x 12 bytes = 96 KiB — small next to the arena it
  /// accelerates, and shared by every query.
  static constexpr int kJumpBits = 13;
  struct JumpEntry {
    std::uint32_t start = 0;        // deepest depth<=kJumpBits covering node
    std::uint32_t shallow = kNil;   // first valued node on root..start path
    std::uint32_t deep = kNil;      // last valued node on root..start path
  };

  /// stride24_ entry encoding: kNil = no valued entry covers the bucket;
  /// bit 31 set (and != kNil) = stride8_ chunk index in the low bits;
  /// otherwise the handle of the deepest valued node (length <= 24)
  /// covering the whole /24 bucket.
  static constexpr std::uint32_t kChunkFlag = 0x80000000u;
  struct StrideChunk {
    std::uint32_t base = kNil;  // deepest valued <=24 cover of the bucket
    std::uint32_t slot[256];    // deepest valued cover per address (any len)
  };

  static int bit_at(std::uint32_t key, int pos) {
    // pos 0 examines the most significant bit; callers guarantee pos < 32.
    return (key >> (31 - pos)) & 1u;
  }

  static std::uint32_t mask(int len) {
    return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
  }

  /// Length of the common leading bit run of `a` and `b`, capped at `cap`.
  static int common_len(std::uint32_t a, std::uint32_t b, int cap) {
    return std::min(std::countl_zero(a ^ b), cap);
  }

  static bool covers(const Node& n, std::uint32_t key, int len) {
    return len_of(n) <= len && (key & mask(len_of(n))) == n.key;
  }

  static Prefix prefix_of(const Node& n) {
    return *Prefix::make(Ipv4Addr(n.key), len_of(n));
  }

  std::uint32_t new_node(std::uint32_t key, int len) {
    nodes_.push_back(Node{key, {kNil, kNil},
                          (static_cast<std::uint32_t>(len) << 26) | kNoSlot});
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  T& assign(std::uint32_t idx, T value) {
    std::uint32_t slot = slot_of(nodes_[idx]);
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(values_.size());
      assert(slot < kNoSlot);
      values_.push_back(std::move(value));
      nodes_[idx].meta = (nodes_[idx].meta & ~kSlotMask) | slot;
      ++size_;
    } else {
      values_[slot] = std::move(value);
    }
    return values_[slot];
  }

  std::optional<std::pair<Prefix, const T*>> entry_at(std::uint32_t idx) const {
    if (idx == kNil) return std::nullopt;
    return std::pair<Prefix, const T*>{prefix_of(nodes_[idx]),
                                       &values_[slot_of(nodes_[idx])]};
  }

  /// Index of the node holding exactly `prefix`, or kNil. Descends blindly
  /// by the query's bits and verifies the key once at the end (the classic
  /// Patricia trick) — one child load per step, no per-step key compare.
  std::uint32_t locate(const Prefix& prefix) const {
    const std::uint32_t key = prefix.network().value();
    const int len = prefix.length();
    std::uint32_t cur = 0;
    int cl = 0;  // root length
    if (!jump_.empty() && len >= kJumpBits) {
      // A node holding `prefix` exactly would sit in the start node's
      // subtree (every shallower covering node covers its whole bucket),
      // so the blind descent can begin there.
      cur = jump_[key >> (32 - kJumpBits)].start;
      cl = len_of(nodes_[cur]);
    }
    while (cl < len) {
      const std::uint32_t c = nodes_[cur].child[bit_at(key, cl)];
      if (c == kNil) return kNil;
      cur = c;
      cl = len_of(nodes_[cur]);
    }
    return (cl == len && nodes_[cur].key == key) ? cur : kNil;
  }

  /// Call `fn(node index)` for every valued node whose prefix covers the
  /// (key, len) query (including an exact match), least specific first.
  template <typename Fn>
  void walk_path(std::uint32_t key, int len, Fn&& fn) const {
    if (slot_of(nodes_[0]) != kNoSlot) fn(0);
    walk_below(0, key, len, fn);
  }

  /// Covering walk from `cur` downward: reports valued nodes strictly below
  /// `cur` whose prefix covers the query, in root-to-leaf order. `cur` must
  /// itself cover the query (callers start at the root or a jump-table
  /// node). The hot inner loop touches only the current node's cache line;
  /// callers that need the Prefix or value materialize them once from the
  /// index.
  template <typename Fn>
  void walk_below(std::uint32_t cur, std::uint32_t key, int len,
                  Fn&& fn) const {
    for (;;) {
      const Node& n = nodes_[cur];
      if (len_of(n) == len) return;
      const std::uint32_t c = n.child[bit_at(key, len_of(n))];
      if (c == kNil) return;
      const Node& cn = nodes_[c];
      const int cl = len_of(cn);
      // Divergence check: cn covers the query iff its key matches the
      // query's leading cl bits (cl >= 1 here, so the shift is defined).
      if (cl > len || ((key ^ cn.key) >> (32 - cl)) != 0) return;
      if (slot_of(cn) != kNoSlot) fn(c);
      cur = c;
    }
  }

  /// DFS over the depth <= kJumpBits top of the trie: each node overwrites
  /// its bucket range with itself as the walk start plus the valued-node
  /// summary of the path so far, so deeper nodes win.
  void fill_jump(std::uint32_t idx, std::uint32_t shallow,
                 std::uint32_t deep) {
    const Node& n = nodes_[idx];
    if (slot_of(n) != kNoSlot) {
      if (shallow == kNil) shallow = idx;
      deep = idx;
    }
    const std::size_t lo = n.key >> (32 - kJumpBits);
    const std::size_t count = std::size_t{1} << (kJumpBits - len_of(n));
    for (std::size_t b = lo; b < lo + count; ++b) {
      jump_[b] = JumpEntry{idx, shallow, deep};
    }
    for (int side = 0; side < 2; ++side) {
      const std::uint32_t c = n.child[side];
      if (c != kNil && len_of(nodes_[c]) <= kJumpBits) {
        fill_jump(c, shallow, deep);
      }
    }
  }

  /// Resolve the deepest valued node covering address `key` that can answer
  /// a covering query of length `len` from the stride table: at most two
  /// dependent loads. kNil means no valued entry covers the address at all.
  /// A non-kNil result deeper than `len` means the query is shadowed by a
  /// more specific entry — the caller must fall back to the trie walk (for
  /// len == 32 that can never happen).
  std::uint32_t stride_resolve(std::uint32_t key, int len) const {
    std::uint32_t e = stride24_[key >> 8];
    if (e >= kChunkFlag && e != kNil) {
      const StrideChunk& chunk = stride8_[e & ~kChunkFlag];
      e = len > 24 ? chunk.slot[key & 0xFFu] : chunk.base;
    }
    return e;
  }

  /// DFS fill for build_stride_table(). Pre-order guarantees every node is
  /// written after all its ancestors, so deeper (more specific) entries
  /// overwrite the sub-range their ancestors already covered:
  ///  - a valued node with length <= 24 covers whole /24 buckets and
  ///    range-fills the first level with its own handle;
  ///  - a node with length > 24 lives inside exactly one bucket; the first
  ///    such node materializes the bucket's chunk, seeding base and every
  ///    slot with the first level's current (deepest <=24) handle, and
  ///    valued ones then range-fill their slice of the 256 slots.
  /// No chunk can exist inside a <=24 node's range when it writes, because
  /// >24-bit nodes under it are all its descendants and visited later.
  void fill_stride(std::uint32_t idx) {
    const Node& n = nodes_[idx];
    if (len_of(n) <= 24) {
      if (slot_of(n) != kNoSlot) {
        std::fill_n(stride24_.begin() + (n.key >> 8),
                    std::size_t{1} << (24 - len_of(n)), idx);
      }
    } else {
      const std::size_t bucket = n.key >> 8;
      std::uint32_t e = stride24_[bucket];
      if (!(e & kChunkFlag) || e == kNil) {  // first >24 node in this bucket
        const auto chunk = static_cast<std::uint32_t>(stride8_.size());
        stride8_.push_back(StrideChunk{});
        stride8_.back().base = e;
        std::fill_n(stride8_.back().slot, 256, e);
        e = kChunkFlag | chunk;
        stride24_[bucket] = e;
      }
      if (slot_of(n) != kNoSlot) {
        std::fill_n(stride8_[e & ~kChunkFlag].slot + (n.key & 0xFFu),
                    std::size_t{1} << (32 - len_of(n)), idx);
      }
    }
    for (int side = 0; side < 2; ++side) {
      if (n.child[side] != kNil) fill_stride(n.child[side]);
    }
  }

  /// Pre-order (node, then 0-branch, then 1-branch) == address order: a
  /// node's prefix sorts before everything below it, and the whole 0-branch
  /// sorts before the 1-branch. Depth is bounded by 33, so recursion is
  /// safe.
  template <typename Fn>
  void visit_subtree(std::uint32_t idx, Fn&& fn) const {
    const Node& n = nodes_[idx];
    if (slot_of(n) != kNoSlot) fn(prefix_of(n), values_[slot_of(n)]);
    if (n.child[0] != kNil) visit_subtree(n.child[0], fn);
    if (n.child[1] != kNil) visit_subtree(n.child[1], fn);
  }

  void collect_roots(std::uint32_t idx,
                     std::vector<std::pair<Prefix, const T*>>& out) const {
    const Node& n = nodes_[idx];
    if (slot_of(n) != kNoSlot) {
      out.emplace_back(prefix_of(n), &values_[slot_of(n)]);
      return;  // everything below is covered by this root
    }
    if (n.child[0] != kNil) collect_roots(n.child[0], out);
    if (n.child[1] != kNil) collect_roots(n.child[1], out);
  }

  /// Returns true if the subtree at `idx` contains any valued node. A leaf
  /// is appended *after* its children are scanned, but that is still a
  /// plain push_back in address order: if the node qualifies, its subtree
  /// contributed no entries, so the append position equals the pre-order
  /// position (unlike the old trie's O(n) mid-vector insert).
  bool collect_leaves(std::uint32_t idx,
                      std::vector<std::pair<Prefix, const T*>>& out) const {
    const Node& n = nodes_[idx];
    bool below = false;
    if (n.child[0] != kNil) below |= collect_leaves(n.child[0], out);
    if (n.child[1] != kNil) below |= collect_leaves(n.child[1], out);
    const bool valued = slot_of(n) != kNoSlot;
    if (valued && !below) {
      out.emplace_back(prefix_of(n), &values_[slot_of(n)]);
    }
    return below || valued;
  }

  std::vector<Node> nodes_;
  std::vector<T> values_;
  std::vector<JumpEntry> jump_;  // empty until build_jump_table()
  std::vector<std::uint32_t> stride24_;  // empty until build_stride_table()
  std::vector<StrideChunk> stride8_;     // one chunk per bucket with >24 masks
  std::size_t size_ = 0;
};

}  // namespace sublet
