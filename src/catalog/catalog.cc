#include "catalog/catalog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "catalog/delta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/writer.h"
#include "util/binio.h"
#include "util/faultinject.h"

namespace sublet::catalog {

namespace {

struct CatalogMetrics {
  obs::Gauge& epochs;
  obs::Counter& materializations;
  obs::Counter& lru_evictions;
};

CatalogMetrics& metrics() {
  static CatalogMetrics m{
      obs::MetricsRegistry::global().gauge(
          "sublet_catalog_epochs", "Epochs listed in the open catalog"),
      obs::MetricsRegistry::global().counter(
          "sublet_catalog_materializations_total",
          "Epoch materializations (full loads and delta applies)"),
      obs::MetricsRegistry::global().counter(
          "sublet_catalog_lru_evictions_total",
          "Materialized epochs evicted from the catalog LRU")};
  return m;
}

std::string join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// Open a full snapshot with the `catalog.open` failure point in front.
Expected<snapshot::Snapshot> open_snapshot_checked(
    const std::string& path, snapshot::Snapshot::Mode mode) {
  int err = 0;
  if (fault::inject("catalog.open", &err)) {
    return fail_code("injected catalog.open fault for " + path, err);
  }
  return snapshot::Snapshot::open(path, mode);
}

Expected<Delta> open_delta_checked(const std::string& path) {
  int err = 0;
  if (fault::inject("catalog.open", &err)) {
    return fail_code("injected catalog.open fault for " + path, err);
  }
  return Delta::open(path);
}

const EpochEntry* entry_for(const std::vector<EpochEntry>& entries,
                            std::uint32_t epoch) {
  for (const EpochEntry& e : entries) {
    if (e.epoch == epoch) return &e;
  }
  return nullptr;
}

/// Chain for `epoch`: full anchor first, then each delta in apply order.
Expected<std::vector<const EpochEntry*>> chain_for(
    const std::vector<EpochEntry>& entries, std::uint32_t epoch) {
  std::vector<const EpochEntry*> chain;
  const EpochEntry* cur = entry_for(entries, epoch);
  if (cur == nullptr) {
    return fail("epoch " + std::to_string(epoch) + " is not in the catalog");
  }
  while (cur->kind == EpochKind::kDelta) {
    chain.push_back(cur);
    cur = entry_for(entries, cur->base_epoch);
    if (cur == nullptr) {
      return fail("epoch " + std::to_string(chain.back()->epoch) +
                  " names missing base epoch " +
                  std::to_string(chain.back()->base_epoch));
    }
  }
  chain.push_back(cur);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Crash-safe small-file publish, same scheme as the snapshot writer:
/// <path>.tmp + fsync + rename, then a best-effort directory fsync.
/// Fault site `catalog.rename` forces the rename step to fail (or, armed
/// with fault::kCrash, kills the process with the `.tmp` still on disk —
/// the kill-restart tests' torn-index artifact).
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot write " + tmp + ": " +
                             std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw std::runtime_error("short write to " + tmp + ": " +
                               std::strerror(saved));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("fsync failed for " + tmp + ": " +
                             std::strerror(saved));
  }
  ::close(fd);
  int rename_rc;
  int injected = 0;
  if (fault::inject("catalog.rename", &injected)) {
    rename_rc = -1;
    errno = injected;
  } else {
    rename_rc = ::rename(tmp.c_str(), path.c_str());
  }
  if (rename_rc != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(saved));
  }
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash + 1);
  int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

/// Canonical record list of `epoch`, rebuilt record-by-record: full anchor
/// materialized, then each delta in the chain replayed through an ordered
/// map so the result comes out in canonical (network, length) order.
Expected<std::vector<leasing::LeaseInference>> reconstruct_epoch(
    const std::string& dir, const std::vector<EpochEntry>& entries,
    std::uint32_t epoch) {
  auto chain = chain_for(entries, epoch);
  if (!chain) return chain.error();

  auto full = open_snapshot_checked(join(dir, chain->front()->name),
                                    snapshot::Snapshot::Mode::kRead);
  if (!full) return full.error();

  using Key = std::pair<std::uint32_t, int>;
  std::map<Key, leasing::LeaseInference> by_key;
  for (std::size_t i = 0; i < full->record_count(); ++i) {
    leasing::LeaseInference r = full->materialize(i);
    Key key{r.prefix.network().value(), r.prefix.length()};
    by_key.insert_or_assign(key, std::move(r));
  }
  for (std::size_t c = 1; c < chain->size(); ++c) {
    auto delta = open_delta_checked(join(dir, (*chain)[c]->name));
    if (!delta) return delta.error();
    for (const RemovedEntry& gone : delta->removed()) {
      by_key.erase(Key{gone.prefix_key, gone.prefix_len});
    }
    for (std::size_t i = 0; i < delta->rows().size(); ++i) {
      leasing::LeaseInference r = delta->materialize(i);
      Key key{r.prefix.network().value(), r.prefix.length()};
      by_key.insert_or_assign(key, std::move(r));
    }
  }
  std::vector<leasing::LeaseInference> out;
  out.reserve(by_key.size());
  for (auto& [key, r] : by_key) out.push_back(std::move(r));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_index(
    const std::vector<EpochEntry>& entries) {
  ByteWriter payload;
  for (const EpochEntry& e : entries) {
    payload.u32(e.epoch);
    payload.u8(static_cast<std::uint8_t>(e.kind));
    payload.u8(0);
    payload.u8(0);
    payload.u8(0);
    payload.u32(e.base_epoch);
    payload.u64(e.records);
    payload.u64(e.bytes);
    payload.u16(static_cast<std::uint16_t>(e.name.size()));
    payload.string(e.name);
  }
  std::uint32_t crc = crc32(payload.data());

  ByteWriter out;
  out.string(std::string_view(kIndexMagic, sizeof(kIndexMagic)));
  out.u16(kIndexVersion);
  out.u16(snapshot::kFlagLittleEndian);
  out.u32(static_cast<std::uint32_t>(entries.size()));
  out.u64(payload.size());
  out.u32(crc);
  out.u32(0);  // reserved
  out.bytes(payload.data());
  return out.take();
}

Expected<std::vector<EpochEntry>> parse_index(
    std::span<const std::uint8_t> bytes) {
  int err = 0;
  if (fault::inject("catalog.index_parse", &err)) {
    return fail_code("injected catalog.index_parse fault", err);
  }
  if (bytes.size() < kIndexHeaderSize) {
    return fail("truncated catalog index header");
  }
  ByteReader header(bytes.subspan(0, kIndexHeaderSize));
  if (std::memcmp(header.bytes(sizeof(kIndexMagic)).data(), kIndexMagic,
                  sizeof(kIndexMagic)) != 0) {
    return fail("bad catalog index magic");
  }
  const std::uint16_t version = header.u16();
  if (version != kIndexVersion) {
    return fail("unsupported catalog index version " +
                std::to_string(version));
  }
  const std::uint16_t flags = header.u16();
  if ((flags & snapshot::kFlagLittleEndian) == 0) {
    return fail("catalog index is not little-endian");
  }
  const std::uint32_t count = header.u32();
  const std::uint64_t payload_size = header.u64();
  const std::uint32_t expect_crc = header.u32();
  if (bytes.size() - kIndexHeaderSize != payload_size) {
    return fail("catalog index payload size does not match the file");
  }
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kIndexHeaderSize);
  if (crc32(payload) != expect_crc) {
    return fail("catalog index checksum mismatch");
  }
  if (count == 0) return fail("catalog index lists no epochs");

  ByteReader reader(payload);
  std::vector<EpochEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EpochEntry e;
    e.epoch = reader.u32();
    const std::uint8_t kind = reader.u8();
    reader.u8();
    reader.u8();
    reader.u8();
    e.base_epoch = reader.u32();
    e.records = reader.u64();
    e.bytes = reader.u64();
    const std::uint16_t name_len = reader.u16();
    if (!reader.ok() || reader.remaining() < name_len) {
      return fail("catalog index entry overruns the payload");
    }
    e.name = reader.string(name_len);
    if (kind > static_cast<std::uint8_t>(EpochKind::kDelta)) {
      return fail("catalog index entry has unknown kind " +
                  std::to_string(kind));
    }
    e.kind = static_cast<EpochKind>(kind);
    if (e.epoch == 0) return fail("catalog index entry has epoch 0");
    if (!entries.empty() && e.epoch <= entries.back().epoch) {
      return fail("catalog index epochs are not strictly ascending");
    }
    if (e.name.empty() || e.name.find('/') != std::string::npos ||
        e.name.find('\0') != std::string::npos) {
      return fail("catalog index entry has an unsafe file name");
    }
    if (e.kind == EpochKind::kFull) {
      if (e.base_epoch != 0) {
        return fail("full epoch " + std::to_string(e.epoch) +
                    " must not name a base");
      }
    } else {
      if (entry_for(entries, e.base_epoch) == nullptr) {
        return fail("delta epoch " + std::to_string(e.epoch) +
                    " names base " + std::to_string(e.base_epoch) +
                    " which is not an earlier epoch");
      }
    }
    entries.push_back(std::move(e));
  }
  if (reader.remaining() != 0) {
    return fail("catalog index has trailing bytes");
  }
  return entries;
}

Expected<std::vector<EpochEntry>> read_index(const std::string& dir) {
  auto buffer = snapshot::Buffer::read_file(join(dir, kIndexFileName));
  if (!buffer) return buffer.error();
  auto entries = parse_index(buffer->bytes());
  if (!entries) {
    Error error = entries.error();
    error.source = join(dir, kIndexFileName);
    return error;
  }
  return entries;
}

void write_index_file(const std::string& dir,
                      const std::vector<EpochEntry>& entries) {
  write_file_atomic(join(dir, kIndexFileName), encode_index(entries));
}

// ---- Catalog ------------------------------------------------------------

Catalog::Catalog(std::string dir, CatalogOptions options,
                 std::vector<EpochEntry> entries)
    : dir_(std::move(dir)),
      options_(options),
      entries_(std::make_shared<const std::vector<EpochEntry>>(
          std::move(entries))) {}

namespace {

/// Sweep crash leftovers from a killed append (docs/ROBUSTNESS.md): any
/// `*.tmp` (a torn atomic publish that never renamed) and any
/// `epoch-*.snap` / `epoch-*.dsnap` the index does not reference (the
/// epoch file landed but the process died before the index rename).
/// Best-effort — an unreadable directory just skips the sweep — and only
/// safe because open() is never run concurrently with an in-flight
/// append to the same directory.
std::size_t sweep_crash_leftovers(const std::string& dir,
                                  const std::vector<EpochEntry>& entries) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file(ec)) continue;
    const std::string name = dirent.path().filename().string();
    bool stale = false;
    if (name.size() > 4 && name.ends_with(".tmp")) {
      stale = true;
    } else if (name.starts_with("epoch-") &&
               (name.ends_with(".snap") || name.ends_with(".dsnap"))) {
      stale = true;
      for (const EpochEntry& entry : entries) {
        if (entry.name == name) {
          stale = false;
          break;
        }
      }
    }
    if (!stale) continue;
    if (std::filesystem::remove(dirent.path(), ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace

Expected<std::unique_ptr<Catalog>> Catalog::open(std::string dir,
                                                 CatalogOptions options) {
  int err = 0;
  if (fault::inject("catalog.open", &err)) {
    return fail_code("injected catalog.open fault for " + dir, err);
  }
  auto entries = read_index(dir);
  if (!entries) return entries.error();
  sweep_crash_leftovers(dir, *entries);
  metrics().epochs.set(static_cast<std::int64_t>(entries->size()));
  return std::unique_ptr<Catalog>(
      new Catalog(std::move(dir), options, std::move(*entries)));
}

std::shared_ptr<const std::vector<EpochEntry>> Catalog::snapshot_entries()
    const {
  std::lock_guard<std::mutex> lock(entries_mu_);
  return entries_;
}

std::vector<EpochEntry> Catalog::entries() const {
  return *snapshot_entries();
}

std::vector<std::uint32_t> Catalog::epochs() const {
  auto entries = snapshot_entries();
  std::vector<std::uint32_t> out;
  out.reserve(entries->size());
  for (const EpochEntry& e : *entries) out.push_back(e.epoch);
  return out;
}

std::shared_ptr<const serve::EngineState> Catalog::cache_get(
    std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(epoch);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.state;
}

void Catalog::cache_put(std::uint32_t epoch,
                        std::shared_ptr<const serve::EngineState> state) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(epoch);
  if (it != cache_.end()) {
    it->second.state = std::move(state);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(epoch);
  cache_.emplace(epoch, CacheSlot{std::move(state), lru_.begin()});
  while (cache_.size() > options_.lru_capacity && !lru_.empty()) {
    const std::uint32_t victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    metrics().lru_evictions.add(1);
  }
}

std::size_t Catalog::cached_epochs() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

Expected<std::shared_ptr<const serve::EngineState>> Catalog::epoch_at(
    std::uint32_t at) {
  auto entries = snapshot_entries();
  const EpochEntry* pick = nullptr;
  for (const EpochEntry& e : *entries) {
    if (at != 0 && e.epoch > at) break;
    pick = &e;
  }
  if (pick == nullptr) {
    return fail("no epoch at or before " + std::to_string(at) +
                " (catalog starts at " +
                std::to_string(entries->front().epoch) + ")");
  }
  return materialize(pick->epoch);
}

Expected<std::shared_ptr<const serve::EngineState>> Catalog::materialize(
    std::uint32_t epoch) {
  if (auto hit = cache_get(epoch)) return hit;
  auto entries = snapshot_entries();
  std::lock_guard<std::mutex> lock(build_mu_);
  return materialize_locked(*entries, epoch);
}

Expected<std::shared_ptr<const serve::EngineState>>
Catalog::materialize_locked(const std::vector<EpochEntry>& entries,
                            std::uint32_t epoch) {
  if (auto hit = cache_get(epoch)) return hit;  // raced a parallel build
  const EpochEntry* entry = entry_for(entries, epoch);
  if (entry == nullptr) {
    return fail("epoch " + std::to_string(epoch) +
                " is not in the catalog");
  }
  const bool is_latest = epoch == entries.back().epoch;

  Expected<std::shared_ptr<const serve::EngineState>> state =
      fail("unreachable");
  if (entry->kind == EpochKind::kFull) {
    auto snap = open_snapshot_checked(join(dir_, entry->name),
                                      snapshot::Snapshot::Mode::kMap);
    if (!snap) return snap.error();
    // Only the latest epoch carries the DIR-24-8 stride table; history
    // epochs serve from the Patricia walk + jump table
    // (docs/TIMETRAVEL.md explains the trade-off).
    state = serve::EngineState::adopt(
        std::make_unique<snapshot::Snapshot>(std::move(*snap)),
        join(dir_, entry->name), epoch, epoch,
        is_latest ? TrieStride::kBuild : TrieStride::kOff);
  } else {
    auto base = materialize_locked(entries, entry->base_epoch);
    if (!base) return base.error();
    state = apply_delta(**base, *entry, is_latest);
  }
  if (!state) return state.error();
  metrics().materializations.add(1);
  cache_put(epoch, *state);
  if (is_latest) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    latest_ = *state;
  }
  return state;
}

Expected<std::shared_ptr<const serve::EngineState>> Catalog::apply_delta(
    const serve::EngineState& base, const EpochEntry& entry,
    bool is_latest) {
  auto delta = open_delta_checked(join(dir_, entry.name));
  if (!delta) return delta.error();
  if (delta->epoch() != entry.epoch ||
      delta->base_epoch() != entry.base_epoch) {
    return fail("delta " + entry.name +
                " header disagrees with the catalog index");
  }
  int err = 0;
  if (fault::inject("catalog.apply_delta", &err)) {
    return fail_code("injected catalog.apply_delta fault for " + entry.name,
                     err);
  }
  obs::ScopedSpan span("catalog.apply_delta");
  span.add_bytes(delta->file_bytes());
  span.add_records(delta->rows().size() + delta->removed().size());

  const snapshot::Snapshot& bs = base.snapshot();
  const serve::QueryEngine& be = base.engine();
  const PrefixTrie<std::uint32_t>& base_trie = be.trie();

  // Decide up front whether this delta touches the trie's structure: a
  // removal of a live leaf or an insert of a new one. In-place-only
  // deltas (the common small-churn case) leave the base trie
  // bit-identical — structure, values, jump table, stride table — so the
  // new epoch SHARES the base's trie handle instead of copying the
  // arena. Sharing also requires the base to carry the stride table when
  // this epoch is the latest and wants one.
  bool mutates_structure = false;
  for (const RemovedEntry& gone : delta->removed()) {
    const Prefix prefix =
        *Prefix::make(Ipv4Addr(gone.prefix_key), gone.prefix_len);
    if (base_trie.find(prefix) != nullptr) {
      mutates_structure = true;
      break;
    }
  }
  if (!mutates_structure) {
    for (const snapshot::RecordRow& src : delta->rows()) {
      const Prefix prefix =
          *Prefix::make(Ipv4Addr(src.prefix_key), src.prefix_len);
      if (base_trie.find(prefix) == nullptr) {
        mutates_structure = true;
        break;
      }
    }
  }
  const bool share_trie =
      !mutates_structure && (!is_latest || base_trie.has_stride_table());

  snapshot::Snapshot::OwnedParts parts;
  parts.rows.assign(bs.records().begin(), bs.records().end());
  parts.string_blob.assign(bs.string_blob().data(), bs.string_blob().size());
  parts.string_offsets.assign(bs.string_offsets().begin(),
                              bs.string_offsets().end());
  parts.asn_pool.assign(bs.asn_pool().begin(), bs.asn_pool().end());
  parts.handle_pool.assign(bs.handle_pool().begin(), bs.handle_pool().end());

  // Which base rows survive (increasing), and which surviving rows the
  // delta rewrites in place — the engine patches its STATS aggregate
  // from the base epoch's instead of recounting it (EngineState::
  // adopt_patched), so a small delta costs O(changed), not O(records).
  std::vector<std::uint32_t> surviving;
  std::vector<std::uint32_t> patched;

  PrefixTrie<std::uint32_t> trie;
  bool removed_any = false;
  if (!share_trie) {
    trie = base_trie.core_copy();
    // Retire removed leaves first: O(depth) metadata edits on the trie,
    // then one compaction pass so the record array (which STATS scans in
    // full) carries no dead rows.
    std::vector<char> dead(parts.rows.size(), 0);
    for (const RemovedEntry& gone : delta->removed()) {
      const Prefix prefix =
          *Prefix::make(Ipv4Addr(gone.prefix_key), gone.prefix_len);
      if (const std::uint32_t* idx = trie.find(prefix)) {
        dead[*idx] = 1;
        trie.erase(prefix);
        removed_any = true;
      }
    }
    if (removed_any) {
      std::vector<std::uint32_t> remap(parts.rows.size(), 0);
      surviving.reserve(parts.rows.size());
      std::size_t out = 0;
      for (std::size_t i = 0; i < parts.rows.size(); ++i) {
        if (dead[i]) continue;
        remap[i] = static_cast<std::uint32_t>(out);
        surviving.push_back(static_cast<std::uint32_t>(i));
        if (out != i) parts.rows[out] = parts.rows[i];
        ++out;
      }
      parts.rows.resize(out);
      // Orphaned value slots (from this or earlier applies) remap to row
      // 0 — harmless, nothing reachable points at them.
      trie.for_each_value([&](std::uint32_t& v) {
        v = v < remap.size() ? remap[v] : 0;
      });
    }
  }

  // Concatenate the delta's pools behind the base's; every delta-local
  // reference shifts by the base pool size. Strings the base already had
  // are stored twice — bounded dead weight a fresh chain anchor resets.
  const std::uint32_t base_strings =
      static_cast<std::uint32_t>(parts.string_offsets.size() - 1);
  const std::uint32_t base_blob =
      static_cast<std::uint32_t>(parts.string_blob.size());
  const std::uint32_t base_asns =
      static_cast<std::uint32_t>(parts.asn_pool.size());
  const std::uint32_t base_handles =
      static_cast<std::uint32_t>(parts.handle_pool.size());
  parts.string_blob.append(delta->string_blob().data(),
                           delta->string_blob().size());
  for (std::size_t s = 1; s < delta->string_offsets().size(); ++s) {
    parts.string_offsets.push_back(base_blob + delta->string_offsets()[s]);
  }
  parts.asn_pool.insert(parts.asn_pool.end(), delta->asn_pool().begin(),
                        delta->asn_pool().end());
  for (std::uint32_t id : delta->handle_pool()) {
    parts.handle_pool.push_back(base_strings + id);
  }

  bool inserted_any = false;
  for (const snapshot::RecordRow& src : delta->rows()) {
    snapshot::RecordRow row = src;
    row.holder_org += base_strings;
    row.netname += base_strings;
    row.holder_asns_off += base_asns;
    row.leaf_origins_off += base_asns;
    row.root_origins_off += base_asns;
    row.leaf_maint_off += base_handles;
    row.root_maint_off += base_handles;
    const Prefix prefix =
        *Prefix::make(Ipv4Addr(row.prefix_key), row.prefix_len);
    if (share_trie) {
      // The pre-pass proved every row hits an existing leaf, and the
      // shared trie's values are the base row indices unchanged.
      const std::uint32_t* hit = base_trie.find(prefix);
      parts.rows[*hit] = row;
      patched.push_back(*hit);
      continue;
    }
    if (const std::uint32_t* hit = trie.find(prefix)) {
      parts.rows[*hit] = row;  // changed in place; trie untouched
      patched.push_back(*hit);
    } else {
      const std::uint32_t idx =
          static_cast<std::uint32_t>(parts.rows.size());
      parts.rows.push_back(row);
      trie.insert(prefix, idx);
      inserted_any = true;
    }
  }

  std::shared_ptr<const PrefixTrie<std::uint32_t>> shared = be.shared_trie();
  if (!share_trie) {
    // In-place-only applies (no erase, no insert) leave the node arena
    // identical to the base trie's, so its jump table is still exact —
    // reached when only the stride requirement forced the copy.
    if (removed_any || inserted_any) {
      trie.build_jump_table();
    } else {
      trie.adopt_jump_table(base_trie);
    }
    if (is_latest) trie.build_stride_table();
    shared = std::make_shared<const PrefixTrie<std::uint32_t>>(std::move(trie));
  }
  return serve::EngineState::adopt_patched(
      std::make_unique<snapshot::Snapshot>(
          snapshot::Snapshot::from_parts(std::move(parts))),
      std::move(shared), be,
      removed_any ? std::optional<std::span<const std::uint32_t>>(surviving)
                  : std::nullopt,
      patched, join(dir_, entry.name), entry.epoch, entry.epoch);
}

Expected<std::shared_ptr<const serve::EngineState>> Catalog::refresh() {
  auto entries = read_index(dir_);
  if (!entries) return entries.error();
  auto fresh =
      std::make_shared<const std::vector<EpochEntry>>(std::move(*entries));

  auto old = snapshot_entries();
  {
    // Keep cached epochs whose index entry is unchanged; drop the rest so
    // a rewritten chain cannot serve stale bytes.
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (auto it = cache_.begin(); it != cache_.end();) {
      const EpochEntry* was = entry_for(*old, it->first);
      const EpochEntry* now = entry_for(*fresh, it->first);
      const bool same = was != nullptr && now != nullptr &&
                        was->kind == now->kind && was->name == now->name &&
                        was->base_epoch == now->base_epoch &&
                        was->bytes == now->bytes;
      if (same) {
        ++it;
      } else {
        lru_.erase(it->second.lru_it);
        it = cache_.erase(it);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(entries_mu_);
    entries_ = fresh;
  }
  metrics().epochs.set(static_cast<std::int64_t>(fresh->size()));
  std::lock_guard<std::mutex> lock(build_mu_);
  return materialize_locked(*fresh, fresh->back().epoch);
}

Expected<std::vector<leasing::LeaseInference>> Catalog::reconstruct(
    std::uint32_t epoch) const {
  return reconstruct_epoch(dir_, *snapshot_entries(), epoch);
}

Catalog::VerifyReport Catalog::verify(bool deep) const {
  auto entries = snapshot_entries();
  VerifyReport report;
  std::map<std::uint32_t, bool> healthy;
  for (const EpochEntry& e : *entries) {
    EpochCheck check;
    check.epoch = e.epoch;
    std::error_code ec;
    const std::uint64_t on_disk =
        std::filesystem::file_size(join(dir_, e.name), ec);
    if (ec) {
      check.detail = e.name + ": " + ec.message();
    } else if (on_disk != e.bytes) {
      check.detail = e.name + ": file is " + std::to_string(on_disk) +
                     " bytes, index says " + std::to_string(e.bytes);
    } else if (e.kind == EpochKind::kFull) {
      auto snap = snapshot::Snapshot::open(join(dir_, e.name),
                                           snapshot::Snapshot::Mode::kRead);
      if (!snap) {
        check.detail = snap.error().to_string();
      } else if (snap->record_count() != e.records) {
        check.detail = e.name + ": " +
                       std::to_string(snap->record_count()) +
                       " records, index says " + std::to_string(e.records);
      } else {
        check.ok = true;
      }
    } else {
      auto delta = Delta::open(join(dir_, e.name));
      if (!delta) {
        check.detail = delta.error().to_string();
      } else if (delta->epoch() != e.epoch ||
                 delta->base_epoch() != e.base_epoch) {
        check.detail = e.name + ": header disagrees with the index";
      } else if (auto it = healthy.find(e.base_epoch);
                 it == healthy.end() || !it->second) {
        check.detail = "base chain broken at epoch " +
                       std::to_string(e.base_epoch);
      } else {
        check.ok = true;
      }
    }
    if (check.ok && deep) {
      auto records = reconstruct_epoch(dir_, *entries, e.epoch);
      if (!records) {
        check.ok = false;
        check.detail = records.error().to_string();
      } else if (records->size() != e.records) {
        check.ok = false;
        check.detail = "reconstructs to " +
                       std::to_string(records->size()) +
                       " records, index says " + std::to_string(e.records);
      } else if (e.kind == EpochKind::kFull) {
        auto file = snapshot::Buffer::read_file(join(dir_, e.name));
        const std::vector<std::uint8_t> want =
            snapshot::encode_snapshot(*records);
        if (!file || file->bytes().size() != want.size() ||
            !std::equal(want.begin(), want.end(), file->bytes().begin())) {
          check.ok = false;
          check.detail = "full snapshot is not canonical";
        }
      }
    }
    healthy[e.epoch] = check.ok;
    if (!check.ok) ++report.broken;
    report.checks.push_back(std::move(check));
  }
  return report;
}

// ---- Authoring ----------------------------------------------------------

Expected<EpochEntry> catalog_init(
    const std::string& dir, std::uint32_t epoch,
    std::vector<leasing::LeaseInference> inferences) {
  if (epoch == 0) return fail("epoch 0 is reserved for \"latest\"");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return fail("cannot create " + dir + ": " + ec.message());
  if (std::filesystem::exists(join(dir, kIndexFileName))) {
    return fail(dir + " already holds a catalog (use append)");
  }
  auto canonical = canonical_inferences(std::move(inferences));

  EpochEntry entry;
  entry.epoch = epoch;
  entry.kind = EpochKind::kFull;
  entry.records = canonical.size();
  entry.name = "epoch-" + std::to_string(epoch) + ".snap";
  try {
    snapshot::write_snapshot_file(join(dir, entry.name), canonical);
    entry.bytes = std::filesystem::file_size(join(dir, entry.name));
    write_index_file(dir, {entry});
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return entry;
}

Expected<EpochEntry> catalog_append(
    const std::string& dir, std::uint32_t epoch,
    std::vector<leasing::LeaseInference> inferences,
    const AppendOptions& options) {
  auto entries = read_index(dir);
  if (!entries) return entries.error();
  if (epoch <= entries->back().epoch) {
    return fail("epoch " + std::to_string(epoch) +
                " is not after the catalog's last epoch " +
                std::to_string(entries->back().epoch));
  }
  const std::uint32_t prev = entries->back().epoch;
  auto base = reconstruct_epoch(dir, *entries, prev);
  if (!base) return base.error();
  auto next = canonical_inferences(std::move(inferences));

  EpochEntry entry;
  entry.epoch = epoch;
  entry.records = next.size();

  std::vector<std::uint8_t> delta_bytes;
  bool full = options.force_full;
  if (!full) {
    delta_bytes = encode_delta(prev, *base, epoch, next);
    // Size guard against the chain's anchor: once the chain's deltas grow
    // past the configured fraction of a fresh full snapshot, cut a new
    // anchor instead of stretching the chain.
    auto chain = chain_for(*entries, prev);
    if (!chain) return chain.error();
    const std::uint64_t anchor_bytes = chain->front()->bytes;
    full = delta_bytes.size() >
           static_cast<std::uint64_t>(options.max_delta_fraction *
                                      static_cast<double>(anchor_bytes));
  }

  try {
    if (full) {
      entry.kind = EpochKind::kFull;
      entry.base_epoch = 0;
      entry.name = "epoch-" + std::to_string(epoch) + ".snap";
      snapshot::write_snapshot_file(join(dir, entry.name), next);
      entry.bytes = std::filesystem::file_size(join(dir, entry.name));
    } else {
      entry.kind = EpochKind::kDelta;
      entry.base_epoch = prev;
      entry.name = "epoch-" + std::to_string(epoch) + ".dsnap";
      write_file_atomic(join(dir, entry.name), delta_bytes);
      entry.bytes = delta_bytes.size();
    }
    // The epoch file is on disk but the index does not name it yet — the
    // append's crash window. A death here (fault site armed with
    // fault::kCrash, or a real machine crash) leaves an orphaned epoch
    // file the next Catalog::open sweeps away.
    int err = 0;
    if (fault::inject("catalog.append_publish", &err)) {
      return fail_code("injected catalog.append_publish fault for " + dir,
                       err);
    }
    entries->push_back(entry);
    write_index_file(dir, *entries);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return entry;
}

}  // namespace sublet::catalog
