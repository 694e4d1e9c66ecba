#include "catalog/delta.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "snapshot/format.h"
#include "util/binio.h"

namespace sublet::catalog {

static_assert(std::endian::native == std::endian::little,
              "delta bulk sections are raw little-endian arenas");

namespace {

/// (network, length) ordering shared by every catalog artifact.
bool key_less(const Prefix& a, const Prefix& b) {
  if (a.network().value() != b.network().value()) {
    return a.network().value() < b.network().value();
  }
  return a.length() < b.length();
}

/// Deduplicating string pool, identical algorithm to the snapshot
/// writer's: id = insertion index, id 0 = empty string.
class StringPool {
 public:
  std::uint32_t intern(const std::string& s) {
    auto [it, inserted] =
        ids_.emplace(s, static_cast<std::uint32_t>(offsets_.size() - 1));
    if (inserted) {
      blob_ += s;
      offsets_.push_back(static_cast<std::uint32_t>(blob_.size()));
    }
    return it->second;
  }

  const std::string& blob() const { return blob_; }
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }
  std::size_t count() const { return offsets_.size() - 1; }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::string blob_;
  std::vector<std::uint32_t> offsets_ = {0};
};

}  // namespace

std::vector<leasing::LeaseInference> canonical_inferences(
    std::vector<leasing::LeaseInference> inferences) {
  std::stable_sort(inferences.begin(), inferences.end(),
                   [](const leasing::LeaseInference& a,
                      const leasing::LeaseInference& b) {
                     return key_less(a.prefix, b.prefix);
                   });
  // Collapse duplicate prefixes keeping the last — the same winner the
  // trie freeze picks, so records and trie never disagree.
  std::size_t out = 0;
  for (std::size_t i = 0; i < inferences.size(); ++i) {
    if (i + 1 < inferences.size() &&
        inferences[i + 1].prefix == inferences[i].prefix) {
      continue;
    }
    if (out != i) inferences[out] = std::move(inferences[i]);
    ++out;
  }
  inferences.resize(out);
  return inferences;
}

bool same_inference(const leasing::LeaseInference& a,
                    const leasing::LeaseInference& b) {
  return a.prefix == b.prefix && a.rir == b.rir && a.group == b.group &&
         a.root_prefix == b.root_prefix && a.holder_org == b.holder_org &&
         a.holder_asns == b.holder_asns && a.leaf_origins == b.leaf_origins &&
         a.root_origins == b.root_origins &&
         a.leaf_maintainers == b.leaf_maintainers &&
         a.root_maintainers == b.root_maintainers && a.netname == b.netname;
}

std::vector<std::uint8_t> encode_delta(
    std::uint32_t base_epoch, const std::vector<leasing::LeaseInference>& base,
    std::uint32_t epoch,
    const std::vector<leasing::LeaseInference>& next) {
  // Two-pointer diff over the canonical orders: records only in `base`
  // are removals, records only in `next` (or changed in place) upserts.
  std::vector<RemovedEntry> removed;
  std::vector<const leasing::LeaseInference*> upserts;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.size() || j < next.size()) {
    if (j == next.size() ||
        (i < base.size() && key_less(base[i].prefix, next[j].prefix))) {
      RemovedEntry gone;
      gone.prefix_key = base[i].prefix.network().value();
      gone.prefix_len = static_cast<std::uint8_t>(base[i].prefix.length());
      removed.push_back(gone);
      ++i;
    } else if (i == base.size() ||
               key_less(next[j].prefix, base[i].prefix)) {
      upserts.push_back(&next[j]);
      ++j;
    } else {
      if (!same_inference(base[i], next[j])) upserts.push_back(&next[j]);
      ++i;
      ++j;
    }
  }

  StringPool strings;
  strings.intern(std::string());  // id 0 = empty string
  std::vector<std::uint32_t> asn_pool;
  std::vector<std::uint32_t> handle_pool;
  std::vector<snapshot::RecordRow> rows;
  rows.reserve(upserts.size());

  auto pack_asns = [&](const std::vector<Asn>& asns, std::uint32_t& off,
                       std::uint32_t& count) {
    off = static_cast<std::uint32_t>(asn_pool.size());
    count = static_cast<std::uint32_t>(asns.size());
    for (Asn asn : asns) asn_pool.push_back(asn.value());
  };
  auto pack_handles = [&](const std::vector<std::string>& handles,
                          std::uint32_t& off, std::uint32_t& count) {
    off = static_cast<std::uint32_t>(handle_pool.size());
    count = static_cast<std::uint32_t>(handles.size());
    for (const std::string& h : handles) {
      handle_pool.push_back(strings.intern(h));
    }
  };
  for (const leasing::LeaseInference* r : upserts) {
    snapshot::RecordRow row;
    row.prefix_key = r->prefix.network().value();
    row.prefix_len = static_cast<std::uint8_t>(r->prefix.length());
    row.root_key = r->root_prefix.network().value();
    row.root_len = static_cast<std::uint8_t>(r->root_prefix.length());
    row.rir = static_cast<std::uint8_t>(r->rir);
    row.group = static_cast<std::uint8_t>(r->group);
    row.holder_org = strings.intern(r->holder_org);
    row.netname = strings.intern(r->netname);
    pack_asns(r->holder_asns, row.holder_asns_off, row.holder_asns_count);
    pack_asns(r->leaf_origins, row.leaf_origins_off, row.leaf_origins_count);
    pack_asns(r->root_origins, row.root_origins_off, row.root_origins_count);
    pack_handles(r->leaf_maintainers, row.leaf_maint_off,
                 row.leaf_maint_count);
    pack_handles(r->root_maintainers, row.root_maint_off,
                 row.root_maint_count);
    rows.push_back(row);
  }

  ByteWriter meta;
  meta.varint(epoch);
  meta.varint(base_epoch);
  meta.varint(removed.size());
  meta.varint(rows.size());
  meta.varint(strings.count());
  meta.varint(strings.blob().size());
  meta.varint(asn_pool.size());
  meta.varint(handle_pool.size());

  auto as_bytes = [](const auto& vec) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(vec.data()),
        vec.size() * sizeof(vec[0]));
  };

  ByteWriter payload;
  struct SectionEntry {
    DeltaSectionId id;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<SectionEntry> sections;
  auto emit = [&](DeltaSectionId id, std::span<const std::uint8_t> bytes) {
    payload.pad_to(snapshot::kSectionAlignment);
    sections.push_back(SectionEntry{id, payload.size(), bytes.size()});
    payload.bytes(bytes);
  };
  emit(DeltaSectionId::kMeta, meta.data());
  emit(DeltaSectionId::kRemoved, as_bytes(removed));
  emit(DeltaSectionId::kStringBlob,
       {reinterpret_cast<const std::uint8_t*>(strings.blob().data()),
        strings.blob().size()});
  emit(DeltaSectionId::kStringOffsets, as_bytes(strings.offsets()));
  emit(DeltaSectionId::kAsnPool, as_bytes(asn_pool));
  emit(DeltaSectionId::kHandlePool, as_bytes(handle_pool));
  emit(DeltaSectionId::kRecords, as_bytes(rows));

  ByteWriter table;
  for (const SectionEntry& s : sections) {
    table.u32(static_cast<std::uint32_t>(s.id));
    table.u32(0);
    table.u64(s.offset);
    table.u64(s.length);
  }

  std::uint32_t crc = crc32(table.data());
  crc = crc32(payload.data(), crc);

  ByteWriter out;
  out.string(std::string_view(kDeltaMagic, sizeof(kDeltaMagic)));
  out.u16(kDeltaVersion);
  out.u16(snapshot::kFlagLittleEndian);
  out.u32(static_cast<std::uint32_t>(kDeltaSectionCount));
  out.u64(payload.size());
  out.u32(crc);
  out.u32(0);  // reserved
  out.bytes(table.data());
  out.bytes(payload.data());
  return out.take();
}

Expected<Delta> Delta::open(const std::string& path) {
  auto buffer = snapshot::Buffer::read_file(path);
  if (!buffer) return buffer.error();
  auto delta = parse(std::move(*buffer));
  if (!delta) {
    Error error = delta.error();
    error.source = path;
    return error;
  }
  return delta;
}

Expected<Delta> Delta::from_bytes(std::vector<std::uint8_t> bytes) {
  return parse(snapshot::Buffer(std::move(bytes)));
}

Expected<Delta> Delta::parse(snapshot::Buffer buffer) {
  const std::span<const std::uint8_t> file = buffer.bytes();
  if (file.size() < snapshot::kHeaderSize) {
    return fail("truncated delta header");
  }
  ByteReader header(file.subspan(0, snapshot::kHeaderSize));
  if (std::memcmp(header.bytes(sizeof(kDeltaMagic)).data(), kDeltaMagic,
                  sizeof(kDeltaMagic)) != 0) {
    return fail("bad delta magic");
  }
  const std::uint16_t version = header.u16();
  if (version != kDeltaVersion) {
    return fail("unsupported delta version " + std::to_string(version));
  }
  const std::uint16_t flags = header.u16();
  if ((flags & snapshot::kFlagLittleEndian) == 0) {
    return fail("delta is not little-endian");
  }
  const std::uint32_t section_count = header.u32();
  const std::uint64_t payload_size = header.u64();
  const std::uint32_t expect_crc = header.u32();
  if (section_count != kDeltaSectionCount) {
    return fail("unexpected delta section count " +
                std::to_string(section_count));
  }
  const std::uint64_t table_bytes =
      std::uint64_t{section_count} * snapshot::kSectionEntrySize;
  if (file.size() - snapshot::kHeaderSize < table_bytes ||
      file.size() - snapshot::kHeaderSize - table_bytes != payload_size) {
    return fail("delta payload size does not match the file");
  }
  const std::span<const std::uint8_t> rest =
      file.subspan(snapshot::kHeaderSize);
  if (crc32(rest) != expect_crc) return fail("delta checksum mismatch");

  const std::span<const std::uint8_t> payload =
      rest.subspan(static_cast<std::size_t>(table_bytes));
  ByteReader table(rest.subspan(0, static_cast<std::size_t>(table_bytes)));
  struct SectionView {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    bool present = false;
  };
  SectionView sections[kDeltaSectionCount + 1];
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = table.u32();
    table.u32();  // reserved
    const std::uint64_t offset = table.u64();
    const std::uint64_t length = table.u64();
    if (id == 0 || id > kDeltaSectionCount) {
      return fail("unknown delta section id " + std::to_string(id));
    }
    if (offset > payload_size || length > payload_size - offset) {
      return fail("delta section overruns the payload");
    }
    if (offset % snapshot::kSectionAlignment != 0) {
      return fail("delta section is misaligned");
    }
    if (sections[id].present) {
      return fail("duplicate delta section id " + std::to_string(id));
    }
    sections[id] = SectionView{offset, length, true};
  }
  for (std::uint32_t id = 1; id <= kDeltaSectionCount; ++id) {
    if (!sections[id].present) {
      return fail("missing delta section id " + std::to_string(id));
    }
  }
  auto section = [&](DeltaSectionId id) {
    const SectionView& s = sections[static_cast<std::uint32_t>(id)];
    return payload.subspan(static_cast<std::size_t>(s.offset),
                           static_cast<std::size_t>(s.length));
  };

  ByteReader meta(section(DeltaSectionId::kMeta));
  DeltaCounts counts;
  counts.epoch = meta.varint();
  counts.base_epoch = meta.varint();
  counts.removed = meta.varint();
  counts.records = meta.varint();
  counts.strings = meta.varint();
  counts.string_blob_bytes = meta.varint();
  counts.asn_pool = meta.varint();
  counts.handle_pool = meta.varint();
  if (!meta.ok()) return fail("corrupt delta meta section");
  if (counts.epoch == 0 || counts.epoch > 0xFFFFFFFFull ||
      counts.base_epoch == 0 || counts.base_epoch >= counts.epoch) {
    return fail("delta epoch chain is not strictly forward");
  }
  if (counts.strings == 0) return fail("delta string pool is empty");

  auto expect_len = [&](DeltaSectionId id, std::uint64_t want,
                        const char* what) -> std::optional<Error> {
    const SectionView& s = sections[static_cast<std::uint32_t>(id)];
    if (s.length != want) {
      return fail(std::string("delta ") + what + " section length mismatch");
    }
    return std::nullopt;
  };
  if (auto e = expect_len(DeltaSectionId::kRemoved,
                          counts.removed * sizeof(RemovedEntry), "removed")) {
    return *e;
  }
  if (auto e = expect_len(DeltaSectionId::kStringBlob,
                          counts.string_blob_bytes, "string blob")) {
    return *e;
  }
  if (auto e = expect_len(DeltaSectionId::kStringOffsets,
                          (counts.strings + 1) * sizeof(std::uint32_t),
                          "string offsets")) {
    return *e;
  }
  if (auto e = expect_len(DeltaSectionId::kAsnPool,
                          counts.asn_pool * sizeof(std::uint32_t),
                          "ASN pool")) {
    return *e;
  }
  if (auto e = expect_len(DeltaSectionId::kHandlePool,
                          counts.handle_pool * sizeof(std::uint32_t),
                          "handle pool")) {
    return *e;
  }
  if (auto e = expect_len(DeltaSectionId::kRecords,
                          counts.records * sizeof(snapshot::RecordRow),
                          "records")) {
    return *e;
  }

  Delta delta;
  delta.buffer_ = std::move(buffer);
  delta.counts_ = counts;
  const std::span<const std::uint8_t> base =
      delta.buffer_.bytes().subspan(snapshot::kHeaderSize +
                                    static_cast<std::size_t>(table_bytes));
  auto view = [&](DeltaSectionId id) {
    const SectionView& s = sections[static_cast<std::uint32_t>(id)];
    return base.subspan(static_cast<std::size_t>(s.offset),
                        static_cast<std::size_t>(s.length));
  };
  auto gone = view(DeltaSectionId::kRemoved);
  delta.removed_ = {reinterpret_cast<const RemovedEntry*>(gone.data()),
                    static_cast<std::size_t>(counts.removed)};
  auto rows = view(DeltaSectionId::kRecords);
  delta.rows_ = {reinterpret_cast<const snapshot::RecordRow*>(rows.data()),
                 static_cast<std::size_t>(counts.records)};
  auto blob = view(DeltaSectionId::kStringBlob);
  delta.string_blob_ = {reinterpret_cast<const char*>(blob.data()),
                        blob.size()};
  auto offsets = view(DeltaSectionId::kStringOffsets);
  delta.string_offsets_ = {
      reinterpret_cast<const std::uint32_t*>(offsets.data()),
      static_cast<std::size_t>(counts.strings + 1)};
  auto asns = view(DeltaSectionId::kAsnPool);
  delta.asn_pool_ = {reinterpret_cast<const std::uint32_t*>(asns.data()),
                     static_cast<std::size_t>(counts.asn_pool)};
  auto handles = view(DeltaSectionId::kHandlePool);
  delta.handle_pool_ = {
      reinterpret_cast<const std::uint32_t*>(handles.data()),
      static_cast<std::size_t>(counts.handle_pool)};

  if (delta.string_offsets_[0] != 0 ||
      delta.string_offsets_[counts.strings] != blob.size()) {
    return fail("delta string offsets do not span the blob");
  }
  for (std::size_t s = 0; s < counts.strings; ++s) {
    if (delta.string_offsets_[s] > delta.string_offsets_[s + 1]) {
      return fail("delta string offsets are not monotone");
    }
  }
  auto canonical = [](std::uint32_t key, std::uint8_t len) {
    if (len > 32) return false;
    const std::uint32_t mask =
        len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
    return (key & ~mask) == 0;
  };
  for (const RemovedEntry& r : delta.removed_) {
    if (!canonical(r.prefix_key, r.prefix_len)) {
      return fail("delta removed entry is not a canonical prefix");
    }
  }
  auto span_ok = [](std::uint32_t off, std::uint32_t count,
                    std::size_t pool) {
    return off <= pool && count <= pool - off;
  };
  const snapshot::RecordRow* prev = nullptr;
  for (const snapshot::RecordRow& row : delta.rows_) {
    // Canonical lists hold each prefix once, in (network, length) order;
    // the apply path relies on no prefix being upserted twice.
    if (prev != nullptr &&
        std::pair(prev->prefix_key, prev->prefix_len) >=
            std::pair(row.prefix_key, row.prefix_len)) {
      return fail("delta records are not strictly ascending");
    }
    prev = &row;
    if (!canonical(row.prefix_key, row.prefix_len) || row.root_len > 32 ||
        row.rir >= whois::kAllRirs.size() ||
        row.group > static_cast<std::uint8_t>(
                        leasing::InferenceGroup::kLeasedWithRoot)) {
      return fail("delta record has out-of-range fields");
    }
    if (row.holder_org >= counts.strings || row.netname >= counts.strings) {
      return fail("delta record references a missing string");
    }
    if (!span_ok(row.holder_asns_off, row.holder_asns_count,
                 delta.asn_pool_.size()) ||
        !span_ok(row.leaf_origins_off, row.leaf_origins_count,
                 delta.asn_pool_.size()) ||
        !span_ok(row.root_origins_off, row.root_origins_count,
                 delta.asn_pool_.size()) ||
        !span_ok(row.leaf_maint_off, row.leaf_maint_count,
                 delta.handle_pool_.size()) ||
        !span_ok(row.root_maint_off, row.root_maint_count,
                 delta.handle_pool_.size())) {
      return fail("delta record evidence span out of range");
    }
  }
  for (std::uint32_t id : delta.handle_pool_) {
    if (id >= counts.strings) {
      return fail("delta handle pool references a missing string");
    }
  }
  return delta;
}

leasing::LeaseInference Delta::materialize(std::size_t idx) const {
  const snapshot::RecordRow& row = rows_[idx];
  leasing::LeaseInference r;
  r.prefix = *Prefix::make(Ipv4Addr(row.prefix_key), row.prefix_len);
  r.root_prefix = *Prefix::make(Ipv4Addr(row.root_key), row.root_len);
  r.rir = static_cast<whois::Rir>(row.rir);
  r.group = static_cast<leasing::InferenceGroup>(row.group);
  r.holder_org = std::string(string_at(row.holder_org));
  r.netname = std::string(string_at(row.netname));
  auto asns = [&](std::uint32_t off, std::uint32_t count) {
    std::vector<Asn> out;
    out.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      out.push_back(Asn(asn_pool_[off + k]));
    }
    return out;
  };
  auto handles = [&](std::uint32_t off, std::uint32_t count) {
    std::vector<std::string> out;
    out.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      out.emplace_back(string_at(handle_pool_[off + k]));
    }
    return out;
  };
  r.holder_asns = asns(row.holder_asns_off, row.holder_asns_count);
  r.leaf_origins = asns(row.leaf_origins_off, row.leaf_origins_count);
  r.root_origins = asns(row.root_origins_off, row.root_origins_count);
  r.leaf_maintainers = handles(row.leaf_maint_off, row.leaf_maint_count);
  r.root_maintainers = handles(row.root_maint_off, row.root_maint_count);
  return r;
}

}  // namespace sublet::catalog
