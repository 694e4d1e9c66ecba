#include "bgp/rib.h"

#include <algorithm>

#include "obs/trace.h"

namespace sublet::bgp {

bool RouteInfo::originated_by(Asn asn) const {
  return std::binary_search(origins.begin(), origins.end(), asn);
}

Rib::Rib(Rib&& other) noexcept
    : trie_(std::move(other.trie_)),
      pending_(std::move(other.pending_)),
      finalized_(other.finalized_.load(std::memory_order_relaxed)) {}

Rib& Rib::operator=(Rib&& other) noexcept {
  trie_ = std::move(other.trie_);
  pending_ = std::move(other.pending_);
  finalized_.store(other.finalized_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

void Rib::add_route(const Prefix& prefix, Asn origin) {
  if (pending_.empty()) pending_.emplace_back();
  pending_.back().add(prefix, 1, {&origin, 1});
  finalized_.store(false, std::memory_order_release);
}

void Rib::add_snapshot(const mrt::RibSnapshot& snapshot) {
  mrt::OriginRun run;
  for (const mrt::RibPrefixRecord& rec : snapshot.records) {
    for (const mrt::RibEntry& entry : rec.entries) {
      for (Asn origin : entry.attributes.as_path.origin_asns()) {
        run.origins.push_back(origin);
      }
    }
    run.end_record(rec.prefix, static_cast<std::uint32_t>(rec.entries.size()));
  }
  add_origins(std::move(run));
}

void Rib::add_origins(mrt::OriginRun run) {
  pending_.push_back(std::move(run));
  finalized_.store(false, std::memory_order_release);
}

std::optional<Error> Rib::add_file(const std::string& path) {
  auto run = mrt::read_rib_origins(path);
  if (!run) return run.error();
  add_origins(std::move(*run));
  return std::nullopt;
}

namespace {

/// Walks one run's records in prefix order. Runs read from RIB files are
/// already in prefix order; others (add_route's) get a sorted permutation.
struct RunCursor {
  explicit RunCursor(const mrt::OriginRun& r) : run(&r) {
    const auto& records = run->records;
    auto by_prefix = [](const auto& a, const auto& b) {
      return a.prefix < b.prefix;
    };
    if (std::is_sorted(records.begin(), records.end(), by_prefix)) return;
    order.resize(records.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return records[a].prefix < records[b].prefix;
                     });
  }

  bool done() const { return next == run->records.size(); }
  std::size_t record() const { return order.empty() ? next : order[next]; }
  const Prefix& prefix() const { return run->records[record()].prefix; }

  const mrt::OriginRun* run;
  std::vector<std::uint32_t> order;  ///< empty = records already sorted
  std::size_t next = 0;
};

}  // namespace

void Rib::freeze() {
  if (!pending_.empty()) {
    std::vector<std::pair<Prefix, RouteInfo>> entries;
    {
      obs::ScopedSpan merge_span("rib.merge");
      if (!trie_.empty()) {
        // Carry the table an earlier freeze built into this merge.
        mrt::OriginRun built;
        trie_.visit([&](const Prefix& prefix, const RouteInfo& info) {
          built.add(prefix, info.peer_observations, info.origins);
        });
        pending_.push_back(std::move(built));
      }
      // k-way merge of the runs by prefix: each distinct prefix gets the
      // union of its origin slices and the sum of its entry counts.
      std::vector<RunCursor> cursors;
      std::size_t largest = 0;
      for (const mrt::OriginRun& run : pending_) {
        cursors.emplace_back(run);
        largest = std::max(largest, run.records.size());
      }
      entries.reserve(largest);
      std::vector<Asn> origins;
      for (;;) {
        const RunCursor* lowest = nullptr;
        for (const RunCursor& c : cursors) {
          if (!c.done() && (!lowest || c.prefix() < lowest->prefix())) {
            lowest = &c;
          }
        }
        if (!lowest) break;
        const Prefix prefix = lowest->prefix();
        RouteInfo info;
        origins.clear();
        int slices = 0;
        for (RunCursor& c : cursors) {
          for (; !c.done() && c.prefix() == prefix; ++c.next, ++slices) {
            auto slice = c.run->origins_of(c.record());
            origins.insert(origins.end(), slice.begin(), slice.end());
            info.peer_observations += c.run->records[c.record()].entries;
          }
        }
        if (slices > 1) {  // each slice alone is already sorted and distinct
          std::sort(origins.begin(), origins.end());
          origins.erase(std::unique(origins.begin(), origins.end()),
                        origins.end());
        }
        info.origins.assign(origins.begin(), origins.end());
        entries.emplace_back(prefix, std::move(info));
      }
      pending_ = {};
      merge_span.add_records(entries.size());
    }
    obs::ScopedSpan trie_span("rib.trie");
    trie_ = PrefixTrie<RouteInfo>::freeze(std::move(entries));
    trie_span.add_records(trie_.size());
  }
  finalized_.store(true, std::memory_order_release);
}

void Rib::ensure_finalized() const {
  if (finalized_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(finalize_mu_);
  if (finalized_.load(std::memory_order_acquire)) return;
  const_cast<Rib*>(this)->freeze();
}

const RouteInfo* Rib::exact(const Prefix& prefix) const {
  ensure_finalized();
  return trie_.find(prefix);
}

std::optional<std::pair<Prefix, const RouteInfo*>>
Rib::least_specific_covering(const Prefix& prefix) const {
  ensure_finalized();
  return trie_.least_specific_covering(prefix);
}

std::optional<std::pair<Prefix, const RouteInfo*>>
Rib::most_specific_covering(const Prefix& prefix) const {
  ensure_finalized();
  return trie_.most_specific_covering(prefix);
}

std::uint64_t Rib::routed_address_space() const {
  ensure_finalized();
  // Collect [first, last] intervals in address order and merge.
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0, cur_end = 0;  // [start, end) in 64-bit space
  bool open = false;
  trie_.visit([&](const Prefix& p, const RouteInfo&) {
    std::uint64_t start = p.first().value();
    std::uint64_t end = static_cast<std::uint64_t>(p.last().value()) + 1;
    if (!open) {
      cur_start = start;
      cur_end = end;
      open = true;
    } else if (start <= cur_end) {
      cur_end = std::max(cur_end, end);
    } else {
      total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    }
  });
  if (open) total += cur_end - cur_start;
  return total;
}

void Rib::visit(
    const std::function<void(const Prefix&, const RouteInfo&)>& fn) const {
  ensure_finalized();
  trie_.visit(fn);
}

std::set<Asn> Rib::all_origins() const {
  ensure_finalized();
  std::set<Asn> out;
  trie_.visit([&](const Prefix&, const RouteInfo& info) {
    out.insert(info.origins.begin(), info.origins.end());
  });
  return out;
}

}  // namespace sublet::bgp
