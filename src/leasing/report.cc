#include "leasing/report.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/strings.h"

namespace sublet::leasing {

namespace {

Expected<std::vector<Asn>> parse_asns(std::string_view field,
                                      std::size_t line) {
  std::vector<Asn> out;
  for (std::string_view part : split_ws(field)) {
    auto asn = Asn::parse(part);
    if (!asn) return fail("bad ASN '" + std::string(part) + "'", "", line);
    out.push_back(*asn);
  }
  return out;
}

std::vector<std::string> parse_handles(std::string_view field) {
  std::vector<std::string> out;
  for (std::string_view part : split_ws(field)) out.emplace_back(part);
  return out;
}

/// The fields of one record as views: into `line` when it has no quote
/// (then the fields are exactly the comma-separated pieces), else into
/// `unquoted`, which parse_csv_line fills.
void split_fields(std::string_view line, std::vector<std::string>& unquoted,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  if (line.find('"') != std::string_view::npos) {
    unquoted = parse_csv_line(line);
    fields.assign(unquoted.begin(), unquoted.end());
    return;
  }
  for (std::size_t start = 0;;) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// True when CsvWriter would quote `text`. A plain loop: find_first_of
/// with a character set costs a memchr per character.
bool needs_quoting(std::string_view text) {
  for (char c : text) {
    if (c == ',' || c == '"' || c == '\r' || c == '\n') return true;
  }
  return false;
}

/// Renders rows straight into one reusable buffer and hands it to the
/// stream whenever a row leaves it holding kFlushBytes or more, so memory
/// stays flat however many rows there are; flush() hands over the rest.
/// Quoting follows CsvWriter: a field with a comma, quote, CR or LF is
/// quoted, its quotes doubled.
class RowWriter {
 public:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

  explicit RowWriter(std::ostream& out) : out_(out) {
    buf_.reserve(kFlushBytes + 4096);
  }

  void field(std::string_view text) {
    separate();
    if (!needs_quoting(text)) {
      buf_.append(text);
      return;
    }
    buf_.push_back('"');
    for (char c : text) {
      if (c == '"') buf_.push_back('"');
      buf_.push_back(c);
    }
    buf_.push_back('"');
  }

  void field(const Prefix& prefix) {
    separate();
    prefix.append_to(buf_);
  }

  /// Space-separated ASN numbers (digits only: never quoted).
  void field(const std::vector<Asn>& asns) {
    separate();
    for (std::size_t i = 0; i < asns.size(); ++i) {
      if (i) buf_.push_back(' ');
      char text[10];  // "4294967295"
      buf_.append(text, std::to_chars(text, text + sizeof text,
                                      asns[i].value()).ptr);
    }
  }

  /// Handles joined by spaces, quoted as one field when any needs it.
  void field(const std::vector<std::string>& handles) {
    if (std::any_of(handles.begin(), handles.end(), [](const auto& h) {
          return needs_quoting(h);
        })) {
      field(join(handles, " "));
      return;
    }
    separate();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (i) buf_.push_back(' ');
      buf_.append(handles[i]);
    }
  }

  void end_row() {
    buf_.push_back('\n');
    first_ = true;
    if (buf_.size() >= kFlushBytes) flush();
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  void separate() {
    if (!first_) buf_.push_back(',');
    first_ = false;
  }

  std::ostream& out_;
  std::string buf_;
  bool first_ = true;
};

}  // namespace

void write_inferences_csv(std::ostream& out,
                          const std::vector<LeaseInference>& inferences) {
  RowWriter row(out);
  for (std::string_view name :
       {"prefix", "rir", "group", "leased", "root_prefix", "holder_org",
        "holder_asns", "leaf_origins", "root_origins", "facilitators",
        "netname"}) {
    row.field(name);
  }
  row.end_row();
  for (const LeaseInference& r : inferences) {
    row.field(r.prefix);
    row.field(rir_name(r.rir));
    row.field(group_name(r.group));
    row.field(r.leased() ? "1" : "0");
    row.field(r.root_prefix);
    row.field(r.holder_org);
    row.field(r.holder_asns);
    row.field(r.leaf_origins);
    row.field(r.root_origins);
    row.field(r.leaf_maintainers);
    row.field(r.netname);
    row.end_row();
  }
  row.flush();
}

void save_inferences_csv(const std::string& path,
                         const std::vector<LeaseInference>& inferences) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_inferences_csv(out, inferences);
}

Expected<std::vector<LeaseInference>> read_inferences_csv(std::istream& in) {
  std::vector<LeaseInference> out;
  std::string line;
  std::size_t line_no = 0;
  // read_csv_record keeps quoted fields intact across embedded newlines, so
  // org names and netnames containing commas, quotes, or line breaks
  // round-trip byte-for-byte through write_inferences_csv.
  std::vector<std::string> unquoted;
  std::vector<std::string_view> fields;
  while (read_csv_record(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    split_fields(line, unquoted, fields);
    if (line_no == 1 && !fields.empty() && fields[0] == "prefix") continue;
    if (fields.size() < 11) {
      return fail("expected 11 columns", "", line_no);
    }
    LeaseInference r;
    auto prefix = Prefix::parse(fields[0]);
    auto rir = whois::rir_from_name(fields[1]);
    auto group = group_from_name(fields[2]);
    if (!prefix || !rir || !group) {
      return fail("bad prefix/rir/group in '" + line + "'", "", line_no);
    }
    r.prefix = *prefix;
    r.rir = *rir;
    r.group = *group;
    if (auto root = Prefix::parse(fields[4])) r.root_prefix = *root;
    r.holder_org = fields[5];
    auto holder_asns = parse_asns(fields[6], line_no);
    if (!holder_asns) return holder_asns.error();
    r.holder_asns = std::move(*holder_asns);
    auto leaf_origins = parse_asns(fields[7], line_no);
    if (!leaf_origins) return leaf_origins.error();
    r.leaf_origins = std::move(*leaf_origins);
    auto root_origins = parse_asns(fields[8], line_no);
    if (!root_origins) return root_origins.error();
    r.root_origins = std::move(*root_origins);
    r.leaf_maintainers = parse_handles(fields[9]);
    r.netname = fields[10];
    out.push_back(std::move(r));
  }
  return out;
}

Expected<std::vector<LeaseInference>> load_inferences_csv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  return read_inferences_csv(in);
}

}  // namespace sublet::leasing
