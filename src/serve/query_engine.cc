#include "serve/query_engine.h"

#include <algorithm>
#include <unordered_map>

#include "serve/json.h"

namespace sublet::serve {

namespace {

/// How many leaf-origin ASNs the STATS aggregate ranks.
constexpr std::size_t kTopOrigins = 8;

// tally() indexes the aggregate's arrays by the raw group and RIR bytes of
// a row, which Snapshot::open and the delta reader have range-checked.
// Pin each enumeration array to its enum's values so that index is the
// slot the STATS renderer labels with kAllInferenceGroups / kAllRirs.
static_assert([] {
  for (std::size_t i = 0; i < leasing::kAllInferenceGroups.size(); ++i) {
    if (static_cast<std::size_t>(leasing::kAllInferenceGroups[i]) != i) {
      return false;
    }
  }
  for (std::size_t i = 0; i < whois::kAllRirs.size(); ++i) {
    if (static_cast<std::size_t>(whois::kAllRirs[i]) != i) return false;
  }
  return true;
}());

}  // namespace

Expected<QueryEngine> QueryEngine::create(const snapshot::Snapshot* snap,
                                          TrieStride stride) {
  auto trie = snap->build_trie(stride);
  if (!trie) return trie.error();
  QueryEngine engine(
      snap, std::make_shared<const PrefixTrie<std::uint32_t>>(
                std::move(*trie)));
  for (std::size_t i = 0; i < snap->record_count(); ++i) {
    engine.tally(*snap, snap->record(i), +1);
  }
  engine.rank_origins();
  return engine;
}

Expected<QueryEngine> QueryEngine::create_patched(
    const snapshot::Snapshot* snap,
    std::shared_ptr<const PrefixTrie<std::uint32_t>> trie,
    const QueryEngine& base,
    std::optional<std::span<const std::uint32_t>> surviving,
    std::span<const std::uint32_t> patched) {
  QueryEngine engine(snap, std::move(trie));
  const snapshot::Snapshot& base_snap = base.snapshot();
  const std::size_t n = snap->record_count();
  const std::size_t base_n = base_snap.record_count();
  const std::size_t kept = surviving ? surviving->size() : base_n;
  if (kept > n) return fail("patched engine has fewer rows than survive");
  engine.agg_ = base.agg_;
  engine.origin_counts_ = base.origin_counts_;
  if (surviving) {
    // Subtract the rows the delta removed: the gaps between consecutive
    // surviving base rows (strictly increasing by construction).
    std::size_t next = 0;  // first base row not yet visited
    for (std::uint32_t old : *surviving) {
      if (old < next || old >= base_n) {
        return fail("surviving rows are not an increasing base subset");
      }
      for (; next < old; ++next) {
        engine.tally(base_snap, base_snap.record(next), -1);
      }
      next = old + 1;
    }
    for (; next < base_n; ++next) {
      engine.tally(base_snap, base_snap.record(next), -1);
    }
  }
  // The delta reader admits strictly ascending prefixes only, so no row
  // is patched twice.
  for (std::uint32_t i : patched) {
    if (i >= kept) continue;  // an appended row, added below
    const std::uint32_t old = surviving ? (*surviving)[i] : i;
    engine.tally(base_snap, base_snap.record(old), -1);
    engine.tally(*snap, snap->record(i), +1);
  }
  for (std::size_t i = kept; i < n; ++i) {
    engine.tally(*snap, snap->record(i), +1);
  }
  engine.rank_origins();
  return engine;
}

void QueryEngine::tally(const snapshot::Snapshot& snap,
                        const snapshot::RecordRow& row, int sign) {
  auto adjust = [sign](std::uint64_t& total, std::uint64_t by) {
    total = sign > 0 ? total + by : total - by;
  };
  const std::uint64_t addresses = std::uint64_t{1} << (32 - row.prefix_len);
  GroupAggregate& group = agg_.groups[row.group];
  adjust(group.records, 1);
  adjust(group.addresses, addresses);
  if (leasing::is_leased(static_cast<leasing::InferenceGroup>(row.group))) {
    adjust(agg_.leased_records, 1);
    adjust(agg_.leased_addresses, addresses);
  }
  adjust(agg_.rir_records[row.rir], 1);
  const std::uint32_t asn = snap.first_leaf_origin(row);
  if (asn == 0) return;
  if (sign > 0) {
    ++origin_counts_[asn];
    return;
  }
  auto it = origin_counts_.find(asn);
  if (it != origin_counts_.end() && --it->second == 0) {
    origin_counts_.erase(it);
  }
}

/// Rank leaf-origin ASNs by record count (ties toward the smaller ASN).
void QueryEngine::rank_origins() {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
      origin_counts_.begin(), origin_counts_.end());
  const std::size_t top = std::min(ranked.size(), kTopOrigins);
  std::partial_sort(ranked.begin(), ranked.begin() + top, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                    });
  ranked.resize(top);
  agg_.top_origins = std::move(ranked);
}

void QueryEngine::lookup_batch(std::span<const std::uint32_t> addrs,
                               std::span<std::uint32_t> out) const {
  if (!trie_->has_stride_table()) {
    // Defensive fallback for engines built over a strideless trie.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      auto hit = trie_->most_specific_covering(
          *Prefix::make(Ipv4Addr(addrs[i]), 32));
      out[i] = hit ? *hit->second : kNoRecord;
    }
    return;
  }
  trie_->lookup_batch(addrs, out);
  // The trie hands back node handles; resolve each to its record index
  // (the stored value) in place.
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (out[i] != kNoRecord) out[i] = *trie_->entry(out[i]).second;
  }
}

std::string QueryEngine::snapshot_stats_json() const {
  const SnapshotAggregate& agg = agg_;
  const auto mem = trie_->memory_breakdown();
  JsonWriter json;
  json.begin_object();
  json.key("records").value(
      static_cast<std::uint64_t>(snap_->record_count()));
  json.key("lookup_backend")
      .value(trie_->has_stride_table() ? "stride24-8" : "patricia");
  json.key("groups");
  json.begin_object();
  for (std::size_t g = 0; g < agg.groups.size(); ++g) {
    json.key(leasing::group_name(leasing::kAllInferenceGroups[g]));
    json.begin_object();
    json.key("records").value(agg.groups[g].records);
    json.key("addresses").value(agg.groups[g].addresses);
    json.end_object();
  }
  json.end_object();
  json.key("leased");
  json.begin_object();
  json.key("records").value(agg.leased_records);
  json.key("addresses").value(agg.leased_addresses);
  json.end_object();
  json.key("rirs");
  json.begin_object();
  for (std::size_t r = 0; r < agg.rir_records.size(); ++r) {
    json.key(whois::rir_name(whois::kAllRirs[r])).value(agg.rir_records[r]);
  }
  json.end_object();
  json.key("top_origins");
  json.begin_object();
  for (const auto& [asn, records] : agg.top_origins) {
    json.key(std::to_string(asn)).value(records);
  }
  json.end_object();
  json.key("memory");
  json.begin_object();
  json.key("trie_nodes").value(static_cast<std::uint64_t>(mem.node_bytes));
  json.key("trie_values").value(static_cast<std::uint64_t>(mem.value_bytes));
  json.key("jump_table").value(static_cast<std::uint64_t>(mem.jump_bytes));
  json.key("stride24").value(static_cast<std::uint64_t>(mem.stride24_bytes));
  json.key("stride8").value(static_cast<std::uint64_t>(mem.stride8_bytes));
  json.key("total").value(static_cast<std::uint64_t>(mem.total()));
  json.end_object();
  json.end_object();
  return json.take();
}

std::string QueryEngine::record_json(std::uint32_t idx) const {
  const snapshot::RecordRow& row = snap_->record(idx);
  JsonWriter json;
  json.begin_object();
  json.key("found").value(true);
  json.key("prefix").value(snap_->prefix_of(row).to_string());
  json.key("rir").value(whois::rir_name(static_cast<whois::Rir>(row.rir)));
  json.key("group").value(
      leasing::group_name(static_cast<leasing::InferenceGroup>(row.group)));
  json.key("leased").value(
      leasing::is_leased(static_cast<leasing::InferenceGroup>(row.group)));
  json.key("root_prefix").value(snap_->root_prefix_of(row).to_string());
  json.key("holder_org").value(snap_->string_at(row.holder_org));
  leasing::LeaseInference full = snap_->materialize(idx);
  auto asn_array = [&](std::string_view key, const std::vector<Asn>& asns) {
    json.begin_array(key);
    for (Asn asn : asns) json.value(std::uint64_t{asn.value()});
    json.end_array();
  };
  asn_array("holder_asns", full.holder_asns);
  asn_array("leaf_origins", full.leaf_origins);
  asn_array("root_origins", full.root_origins);
  json.begin_array("facilitators");
  for (const std::string& h : full.leaf_maintainers) json.value(h);
  json.end_array();
  json.key("netname").value(snap_->string_at(row.netname));
  json.end_object();
  return json.take();
}

}  // namespace sublet::serve
