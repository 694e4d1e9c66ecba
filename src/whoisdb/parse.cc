#include "whoisdb/parse.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpsl/rpsl.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "whoisdb/status.h"

namespace sublet::whois {

namespace {

// ------------------------------------------------------------- metrics ----

struct RirParseMetrics {
  obs::Counter& records;     ///< blocks + aut-nums + orgs added to the db
  obs::Counter& paragraphs;  ///< objects the RPSL parser produced
  obs::Counter& errors;      ///< parse/consume diagnostics
};

std::string rir_label(Rir rir) {
  std::string lower;
  for (char c : rir_name(rir)) {
    lower += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  return lower;
}

RirParseMetrics& parse_metrics(Rir rir) {
  static std::array<RirParseMetrics, kAllRirs.size()> metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    auto make = [&](Rir r) {
      std::string label = rir_label(r);
      return RirParseMetrics{
          reg.counter(
              obs::labeled("sublet_whois_records_total", "rir", label),
              "WHOIS records (address blocks, aut-nums, orgs) parsed"),
          reg.counter(
              obs::labeled("sublet_whois_paragraphs_total", "rir", label),
              "WHOIS paragraph objects consumed by the parser"),
          reg.counter(
              obs::labeled("sublet_whois_parse_errors_total", "rir", label),
              "WHOIS parse and consume diagnostics"),
      };
    };
    return std::array<RirParseMetrics, kAllRirs.size()>{
        make(Rir::kRipe), make(Rir::kArin), make(Rir::kApnic),
        make(Rir::kAfrinic), make(Rir::kLacnic)};
  }();
  return metrics[static_cast<std::size_t>(rir)];
}

/// Register the per-RIR families at program start so a process that never
/// parses (e.g. `sublet serve` on a snapshot) still exports them at zero.
const bool g_parse_metrics_registered = [] {
  for (Rir rir : kAllRirs) parse_metrics(rir);
  return true;
}();

void note(std::vector<Error>* diagnostics, Error error) {
  if (diagnostics) diagnostics->push_back(std::move(error));
}

/// Parse an address block value that may be a range ("a - b") or CIDR.
std::optional<AddrRange> parse_block_value(std::string_view value) {
  if (auto range = AddrRange::parse(value)) return range;
  if (auto prefix = Prefix::parse(trim(value))) {
    return AddrRange{prefix->first(), prefix->last()};
  }
  return std::nullopt;
}

std::vector<std::string> collect_strings(
    const std::vector<std::string_view>& views) {
  return {views.begin(), views.end()};
}

// ---------------------------------------------------------------- RPSL ----

void consume_rpsl_object(const rpsl::Object& obj, WhoisDb& db,
                         const std::string& source,
                         std::vector<Error>* diagnostics) {
  Rir rir = db.rir();
  if (obj.cls() == "inetnum") {
    auto range = parse_block_value(obj.get("inetnum"));
    if (!range) {
      note(diagnostics, fail("bad inetnum range '" +
                                 std::string(obj.get("inetnum")) + "'",
                             source, obj.line));
      return;
    }
    InetBlock block;
    block.range = *range;
    block.netname = std::string(obj.get("netname"));
    block.status = std::string(obj.get("status"));
    block.portability = classify_status(rir, block.status);
    block.org_id = std::string(obj.get("org"));
    block.maintainers = collect_strings(obj.all("mnt-by"));
    block.country = std::string(obj.get("country"));
    block.rir = rir;
    db.add_block(std::move(block));
  } else if (obj.cls() == "aut-num") {
    auto asn = Asn::parse(obj.get("aut-num"));
    if (!asn) {
      note(diagnostics, fail("bad aut-num '" +
                                 std::string(obj.get("aut-num")) + "'",
                             source, obj.line));
      return;
    }
    AutNumRec rec;
    rec.asn = *asn;
    rec.as_name = std::string(obj.get("as-name"));
    rec.org_id = std::string(obj.get("org"));
    rec.maintainers = collect_strings(obj.all("mnt-by"));
    rec.rir = rir;
    db.add_autnum(std::move(rec));
  } else if (obj.cls() == "organisation") {
    OrgRec org;
    org.id = std::string(obj.get("organisation"));
    if (org.id.empty()) {
      note(diagnostics, fail("organisation without handle", source, obj.line));
      return;
    }
    org.name = std::string(obj.get("org-name"));
    org.maintainers = collect_strings(obj.all("mnt-by"));
    for (auto ref : obj.all("mnt-ref")) org.maintainers.emplace_back(ref);
    org.country = std::string(obj.get("country"));
    org.rir = rir;
    db.add_org(std::move(org));
  }
  // mntner, person, route, ... objects are irrelevant to the pipeline.
}

// ---------------------------------------------------------------- ARIN ----

void consume_arin_object(const rpsl::Object& obj, WhoisDb& db,
                         const std::string& source,
                         std::vector<Error>* diagnostics) {
  if (obj.cls() == "nethandle") {
    auto range = parse_block_value(obj.get("netrange"));
    if (!range) {
      note(diagnostics, fail("bad NetRange '" +
                                 std::string(obj.get("netrange")) + "'",
                             source, obj.line));
      return;
    }
    InetBlock block;
    block.range = *range;
    block.netname = std::string(obj.get("netname"));
    block.status = std::string(obj.get("nettype"));
    block.portability = classify_status(Rir::kArin, block.status);
    block.org_id = std::string(obj.get("orgid"));
    // ARIN has no maintainer objects: the managing handle is the OrgID.
    if (!block.org_id.empty()) block.maintainers = {block.org_id};
    block.country = std::string(obj.get("country"));
    block.rir = Rir::kArin;
    db.add_block(std::move(block));
  } else if (obj.cls() == "ashandle") {
    auto asn = Asn::parse(obj.get("ashandle"));
    if (!asn) {
      note(diagnostics, fail("bad ASHandle '" +
                                 std::string(obj.get("ashandle")) + "'",
                             source, obj.line));
      return;
    }
    AutNumRec rec;
    rec.asn = *asn;
    rec.as_name = std::string(obj.get("asname"));
    rec.org_id = std::string(obj.get("orgid"));
    if (!rec.org_id.empty()) rec.maintainers = {rec.org_id};
    rec.rir = Rir::kArin;
    db.add_autnum(std::move(rec));
  } else if (obj.cls() == "orgid") {
    OrgRec org;
    org.id = std::string(obj.get("orgid"));
    if (org.id.empty()) {
      note(diagnostics, fail("OrgID without handle", source, obj.line));
      return;
    }
    org.name = std::string(obj.get("orgname"));
    org.maintainers = {org.id};
    org.country = std::string(obj.get("country"));
    org.rir = Rir::kArin;
    db.add_org(std::move(org));
  }
}

// -------------------------------------------------------------- LACNIC ----

void consume_lacnic_object(const rpsl::Object& obj, WhoisDb& db,
                           const std::string& source,
                           std::vector<Error>* diagnostics) {
  if (obj.cls() == "inetnum") {
    auto range = parse_block_value(obj.get("inetnum"));
    if (!range) {
      note(diagnostics, fail("bad LACNIC inetnum '" +
                                 std::string(obj.get("inetnum")) + "'",
                             source, obj.line));
      return;
    }
    InetBlock block;
    block.range = *range;
    block.status = std::string(obj.get("status"));
    block.portability = classify_status(Rir::kLacnic, block.status);
    block.org_id = std::string(obj.get("ownerid"));
    if (!block.org_id.empty()) block.maintainers = {block.org_id};
    block.country = std::string(obj.get("country"));
    block.rir = Rir::kLacnic;
    std::string owner_id = block.org_id;
    db.add_block(std::move(block));

    // LACNIC embeds the organisation in the block (§5.1): synthesize it.
    if (!owner_id.empty() && !db.org(owner_id)) {
      OrgRec org;
      org.id = owner_id;
      org.name = std::string(obj.get("owner"));
      org.maintainers = {org.id};
      org.rir = Rir::kLacnic;
      db.add_org(std::move(org));
    }
  } else if (obj.cls() == "aut-num") {
    auto asn = Asn::parse(obj.get("aut-num"));
    if (!asn) {
      note(diagnostics, fail("bad LACNIC aut-num '" +
                                 std::string(obj.get("aut-num")) + "'",
                             source, obj.line));
      return;
    }
    AutNumRec rec;
    rec.asn = *asn;
    rec.org_id = std::string(obj.get("ownerid"));
    if (!rec.org_id.empty()) rec.maintainers = {rec.org_id};
    rec.rir = Rir::kLacnic;
    std::string owner_id = rec.org_id;
    db.add_autnum(std::move(rec));
    if (!owner_id.empty() && !db.org(owner_id)) {
      OrgRec org;
      org.id = owner_id;
      org.name = std::string(obj.get("owner"));
      org.maintainers = {org.id};
      org.rir = Rir::kLacnic;
      db.add_org(std::move(org));
    }
  }
}

void consume_object(const rpsl::Object& obj, Rir rir, WhoisDb& db,
                    const std::string& source,
                    std::vector<Error>* diagnostics) {
  switch (rir) {
    case Rir::kRipe:
    case Rir::kApnic:
    case Rir::kAfrinic:
      consume_rpsl_object(obj, db, source, diagnostics);
      break;
    case Rir::kArin:
      consume_arin_object(obj, db, source, diagnostics);
      break;
    case Rir::kLacnic:
      consume_lacnic_object(obj, db, source, diagnostics);
      break;
  }
}

/// Read-only streambuf over a text slice — lets the chunked path reuse the
/// istream-based rpsl::Parser without copying each slice into a string.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

/// Parse one slice into `db`, with diagnostics split into the consume
/// stage (emitted during the object loop, in input order) and the parser
/// stage (appended after the loop) so a chunk merge can reproduce the
/// serial diagnostic order exactly.
void parse_slice(std::string_view text, Rir rir, WhoisDb& db,
                 const std::string& source, std::size_t line_offset,
                 std::vector<Error>* consume_diags,
                 std::vector<Error>* parser_diags) {
  // Every object is one paragraph, and most are address blocks, so the
  // paragraph count bounds the block count closely; an estimate that falls
  // short doubles the vector, to up to twice the size of its blocks.
  std::size_t paragraphs_bound = 1;
  for (std::size_t at = text.find("\n\n"); at != std::string_view::npos;
       at = text.find("\n\n", at + 2)) {
    ++paragraphs_bound;
  }
  db.reserve(paragraphs_bound);

  std::size_t blocks_before = db.blocks().size();
  std::size_t autnums_before = db.autnums().size();
  std::size_t orgs_before = db.all_orgs().size();
  std::size_t consume_diags_before = consume_diags ? consume_diags->size() : 0;
  std::size_t paragraphs = 0;

  ViewBuf buf(text);
  std::istream in(&buf);
  rpsl::Parser parser(in, source, line_offset);
  while (auto obj = parser.next()) {
    ++paragraphs;
    consume_object(*obj, rir, db, source, consume_diags);
  }
  if (parser_diags) {
    parser_diags->insert(parser_diags->end(), parser.diagnostics().begin(),
                         parser.diagnostics().end());
  }

  RirParseMetrics& metrics = parse_metrics(rir);
  metrics.paragraphs.add(paragraphs);
  metrics.records.add((db.blocks().size() - blocks_before) +
                      (db.autnums().size() - autnums_before) +
                      (db.all_orgs().size() - orgs_before));
  std::size_t errors = parser.diagnostics().size();
  if (consume_diags) errors += consume_diags->size() - consume_diags_before;
  metrics.errors.add(errors);
}

struct Slice {
  std::string_view text;
  std::size_t line_offset = 0;
};

/// Split `text` into up to `max_slices` pieces at blank-line boundaries.
/// An RPSL object never spans a blank line, so every piece parses
/// independently; pieces keep their absolute starting line number.
std::vector<Slice> split_paragraph_slices(std::string_view text,
                                          std::size_t max_slices) {
  std::vector<Slice> slices;
  std::size_t target = text.size() / max_slices;
  std::size_t start = 0, line = 0;
  while (start < text.size()) {
    std::size_t cut = text.size();
    if (slices.size() + 1 < max_slices && start + target < text.size()) {
      // "\n\n" = end of a line followed by an empty line: a safe boundary.
      std::size_t blank = text.find("\n\n", start + target);
      if (blank != std::string_view::npos) cut = blank + 1;
    }
    std::string_view piece = text.substr(start, cut - start);
    slices.push_back({piece, line});
    line += static_cast<std::size_t>(
        std::count(piece.begin(), piece.end(), '\n'));
    start = cut;
  }
  return slices;
}

/// A database file mapped read-only: the slices parse straight from the
/// page cache, and unmapping hands the pages back at once. (Read into the
/// heap instead, the five texts of a scale-2 world, 27 MB, stayed resident
/// in the worker threads' malloc arenas after they were freed.)
class MappedText {
 public:
  explicit MappedText(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot open WHOIS database: " + path);
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      data_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    ::close(fd);
    if (data_ == MAP_FAILED) {
      throw std::runtime_error("cannot map WHOIS database: " + path);
    }
  }
  ~MappedText() {
    if (data_) ::munmap(data_, size_);
  }
  MappedText(const MappedText&) = delete;
  MappedText& operator=(const MappedText&) = delete;

  std::string_view text() const {
    return {static_cast<const char*>(data_), data_ ? size_ : 0};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

struct SliceResult {
  std::optional<WhoisDb> db;
  std::vector<Error> consume_diags;
  std::vector<Error> parser_diags;
};

/// Slices for a text of `bytes` on `threads` workers: a few per worker, but
/// none under 16 KiB, where the fan-out costs more than it saves.
std::size_t slice_limit(std::size_t bytes, unsigned threads) {
  constexpr std::size_t kMinSliceBytes = 1 << 14;
  return std::clamp<std::size_t>(bytes / kMinSliceBytes, 1,
                                 static_cast<std::size_t>(threads) * 4);
}

/// One text parsed as slice tasks. The slice tasks share it; the last one
/// to finish merges the slices, then frees them and unmaps the file.
struct SliceParse {
  SliceParse(Rir r, std::string src, std::optional<WhoisDb>& o,
             std::vector<Error>* d)
      : rir(r), source(std::move(src)), out(o), diagnostics(d) {}

  Rir rir;
  std::string source;
  std::optional<WhoisDb>& out;
  std::vector<Error>* diagnostics;
  std::optional<MappedText> file;  ///< the text, when the parse read it
  std::vector<Slice> slices;
  std::vector<SliceResult> results;
  std::atomic<std::size_t> pending{0};
  std::optional<obs::ScopedSpan> span;  ///< whois.parse, detached
  std::function<void()> merged;         ///< run after `out` is set
};

/// Merge in input order: record order, join semantics, and diagnostics
/// come out identical to the serial parse. LACNIC orgs are synthesized
/// first-wins (§5.1); explicit org objects shadow earlier ones. The first
/// slice is the base, which is what merging it into an empty db gives.
void merge_slices(SliceParse& job) {
  std::size_t blocks = 0, autnums = 0;
  for (const SliceResult& result : job.results) {
    blocks += result.db->blocks().size();
    autnums += result.db->autnums().size();
  }
  WhoisDb db = std::move(*job.results.front().db);
  db.reserve(blocks - db.blocks().size(), autnums - db.autnums().size());
  auto org_merge = job.rir == Rir::kLacnic ? WhoisDb::OrgMerge::kKeepExisting
                                           : WhoisDb::OrgMerge::kOverwrite;
  for (std::size_t i = 1; i < job.results.size(); ++i) {
    db.merge(std::move(*job.results[i].db), org_merge);
  }
  if (job.diagnostics) {
    for (const SliceResult& result : job.results) {
      job.diagnostics->insert(job.diagnostics->end(),
                              result.consume_diags.begin(),
                              result.consume_diags.end());
    }
    for (const SliceResult& result : job.results) {
      job.diagnostics->insert(job.diagnostics->end(),
                              result.parser_diags.begin(),
                              result.parser_diags.end());
    }
  }
  if (job.span) job.span->add_records(db.blocks().size() + db.autnums().size());
  job.out.emplace(std::move(db));
  job.results = {};
  job.slices = {};
  job.file.reset();
  job.span.reset();
  if (job.merged) job.merged();
}

/// The one slice path: split `text` into at most `max_slices` slices and
/// run one task per slice on `group`, each parsing into its own db; the
/// task that finishes last runs merge_slices.
void submit_slices(par::TaskGroup& group, std::shared_ptr<SliceParse> job,
                   std::string_view text, std::size_t max_slices,
                   obs::SpanId parent) {
  job->span.emplace("whois.parse", parent, obs::ScopedSpan::Detached{});
  job->span->add_bytes(text.size());
  job->slices = split_paragraph_slices(text, max_slices);
  if (job->slices.empty()) job->slices.push_back({text, 0});  // empty text
  // The last task may finish, merge and clear `job` before this loop
  // ends: read nothing from `job` once the first task is out.
  const std::size_t count = job->slices.size();
  job->results.resize(count);
  job->pending.store(count, std::memory_order_relaxed);
  const obs::SpanId parse_span = job->span->id();
  for (std::size_t i = 0; i < count; ++i) {
    group.run([job, i, parse_span] {
      {
        const Slice& slice = job->slices[i];
        SliceResult& result = job->results[i];
        obs::ScopedSpan chunk("whois.parse.chunk", parse_span);
        chunk.add_bytes(slice.text.size());
        result.db.emplace(job->rir);
        parse_slice(slice.text, job->rir, *result.db, job->source,
                    slice.line_offset, &result.consume_diags,
                    &result.parser_diags);
        chunk.add_records(result.db->blocks().size() +
                          result.db->autnums().size());
      }
      // acq_rel: the last task sees every other slice's result.
      if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        merge_slices(*job);
      }
    });
  }
}

}  // namespace

WhoisDb parse_whois_text(std::string_view text, Rir rir, std::string source,
                         std::vector<Error>* diagnostics, unsigned threads) {
  unsigned t = par::resolve_threads(threads);
  std::size_t max_slices = slice_limit(text.size(), t);
  std::optional<WhoisDb> db;
  // One slice runs inline: no pool for a single task.
  par::TaskGroup group(max_slices > 1 ? t : 1);
  submit_slices(group,
                std::make_shared<SliceParse>(rir, std::move(source), db,
                                             diagnostics),
                text, max_slices, obs::Tracer::current());
  group.wait();
  return std::move(*db);
}

void load_whois_file(par::TaskGroup& group, const std::string& path, Rir rir,
                     std::optional<WhoisDb>& out,
                     std::vector<Error>* diagnostics, obs::SpanId parent,
                     std::function<void()> merged) {
  if (group.size() <= 1) {
    out.emplace(load_whois_file(path, rir, diagnostics, 1));
    if (merged) merged();
    return;
  }
  auto job = std::make_shared<SliceParse>(rir, path, out, diagnostics);
  job->merged = std::move(merged);
  std::string_view text = job->file.emplace(path).text();
  submit_slices(group, job, text, slice_limit(text.size(), group.size()),
                parent);
}

WhoisDb parse_whois_db(std::istream& in, Rir rir, std::string source,
                       std::vector<Error>* diagnostics, unsigned threads) {
  unsigned t = par::resolve_threads(threads);
  if (t > 1) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_whois_text(buffer.view(), rir, std::move(source),
                            diagnostics, t);
  }
  obs::ScopedSpan span("whois.parse");
  WhoisDb db(rir);
  std::size_t paragraphs = 0;
  std::size_t consume_diags_before = diagnostics ? diagnostics->size() : 0;
  rpsl::Parser parser(in, source);
  while (auto obj = parser.next()) {
    ++paragraphs;
    consume_object(*obj, rir, db, source, diagnostics);
  }
  if (diagnostics) {
    for (const auto& d : parser.diagnostics()) diagnostics->push_back(d);
  }
  RirParseMetrics& metrics = parse_metrics(rir);
  metrics.paragraphs.add(paragraphs);
  metrics.records.add(db.blocks().size() + db.autnums().size() +
                      db.all_orgs().size());
  std::size_t errors = parser.diagnostics().size();
  if (diagnostics) {
    errors += diagnostics->size() - consume_diags_before -
              parser.diagnostics().size();
  }
  metrics.errors.add(errors);
  span.add_records(db.blocks().size() + db.autnums().size());
  return db;
}

WhoisDb load_whois_file(const std::string& path, Rir rir,
                        std::vector<Error>* diagnostics, unsigned threads) {
  unsigned t = par::resolve_threads(threads);
  if (t > 1) {
    return parse_whois_text(MappedText(path).text(), rir, path, diagnostics,
                            t);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open WHOIS database: " + path);
  return parse_whois_db(in, rir, path, diagnostics, 1);
}

}  // namespace sublet::whois
