// Loaded inference snapshot: validated views over one byte buffer.
//
// `Snapshot::open` reads (or mmaps) the file, checks magic/version/CRC and
// every section bound, then exposes the sections as typed spans — records,
// string pool, ASN/handle pools — plus `build_trie()` which adopts the
// frozen trie arena for prefix queries. All accessors are const and safe
// to share across server threads; the Snapshot must outlive every view.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "leasing/types.h"
#include "netbase/prefix_trie.h"
#include "snapshot/format.h"
#include "util/expected.h"

namespace sublet::snapshot {

/// Owns the snapshot bytes: either a heap buffer or an mmapped region.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::uint8_t> bytes);
  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  static Expected<Buffer> read_file(const std::string& path);
  static Expected<Buffer> map_file(const std::string& path);

  std::span<const std::uint8_t> bytes() const;
  bool mapped() const { return map_ != nullptr; }

 private:
  std::vector<std::uint8_t> owned_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
};

class Snapshot {
 public:
  enum class Mode { kRead, kMap };

  /// Open and fully validate a snapshot file. kMap uses mmap (the kernel
  /// pages sections in lazily); kRead slurps the file into a heap buffer.
  static Expected<Snapshot> open(const std::string& path,
                                 Mode mode = Mode::kMap);

  /// Validate an in-memory image (tests and the loopback bench).
  static Expected<Snapshot> from_bytes(std::vector<std::uint8_t> bytes);

  /// Owned section data for an in-memory snapshot that never touched a
  /// file: the catalog's delta apply merges validated base + delta
  /// sections into these vectors and adopts them directly, skipping the
  /// serialize/CRC/re-validate round trip a full image would cost.
  struct OwnedParts {
    std::vector<RecordRow> rows;
    std::string string_blob;
    std::vector<std::uint32_t> string_offsets;  ///< string_count + 1
    std::vector<std::uint32_t> asn_pool;
    std::vector<std::uint32_t> handle_pool;
  };

  /// Adopt owned parts without re-validation. The caller guarantees
  /// internal consistency (every row/pool reference in range, offsets
  /// monotone) — upheld by construction when the parts are a merge of
  /// individually validated snapshots and deltas (src/catalog/). A parts
  /// snapshot has no trie sections: pair it with a caller-built trie via
  /// QueryEngine::create_patched.
  static Snapshot from_parts(OwnedParts parts);

  std::size_t record_count() const { return records_.size(); }
  const RecordRow& record(std::size_t idx) const { return records_[idx]; }
  std::span<const RecordRow> records() const { return records_; }

  std::string_view string_at(std::uint32_t id) const {
    return std::string_view(string_blob_.data() + string_offsets_[id],
                            string_offsets_[id + 1] - string_offsets_[id]);
  }

  Prefix prefix_of(const RecordRow& row) const {
    return *Prefix::make(Ipv4Addr(row.prefix_key), row.prefix_len);
  }
  Prefix root_prefix_of(const RecordRow& row) const {
    return *Prefix::make(Ipv4Addr(row.root_key), row.root_len);
  }

  /// First leaf-origin ASN of `row`, 0 if the record has none — the serving
  /// layer's columnar STATS aggregation keys "top origin" counts off this
  /// without materializing the full record.
  std::uint32_t first_leaf_origin(const RecordRow& row) const {
    return row.leaf_origins_count == 0 ? 0u : asn_pool_[row.leaf_origins_off];
  }

  /// Rebuild the full LeaseInference (evidence included) for record `idx`.
  leasing::LeaseInference materialize(std::size_t idx) const;

  /// Adopt the frozen trie arena: leaf prefix -> record index. O(sections)
  /// bulk copy plus jump-table rebuild; no per-entry inserts. The serving
  /// path keeps the default and gets the DIR-24-8 stride table with it;
  /// pass TrieStride::kOff to skip the 64 MiB table.
  Expected<PrefixTrie<std::uint32_t>> build_trie(
      TrieStride stride = TrieStride::kBuild) const;

  std::uint16_t version() const { return version_; }
  /// Bytes backing the snapshot: the file image, or the owned parts' total
  /// for an in-memory parts snapshot.
  std::size_t file_bytes() const;
  std::size_t string_count() const { return string_offsets_.size() - 1; }
  bool mapped() const { return buffer_.mapped(); }

  // Raw section views (read-only), uniform across file-backed and parts
  // snapshots — the catalog's delta apply concatenates these to build the
  // next epoch's parts.
  std::span<const char> string_blob() const { return string_blob_; }
  std::span<const std::uint32_t> string_offsets() const {
    return string_offsets_;
  }
  std::span<const std::uint32_t> asn_pool() const { return asn_pool_; }
  std::span<const std::uint32_t> handle_pool() const { return handle_pool_; }

 private:
  static Expected<Snapshot> parse(Buffer buffer);

  Buffer buffer_;
  // Set only for from_parts snapshots; unique_ptr keeps the vectors'
  // addresses stable across Snapshot moves so the spans below stay valid.
  std::unique_ptr<OwnedParts> parts_;
  std::uint16_t version_ = 0;
  // Typed views into buffer_ (set by parse; never outlive buffer_).
  std::span<const RecordRow> records_;
  std::span<const char> string_blob_;
  std::span<const std::uint32_t> string_offsets_;
  std::span<const std::uint32_t> asn_pool_;
  std::span<const std::uint32_t> handle_pool_;
  std::span<const std::uint8_t> trie_nodes_;
  std::span<const std::uint8_t> trie_values_;
};

}  // namespace sublet::snapshot
