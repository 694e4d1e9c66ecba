#include "leasing/report.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/strings.h"

namespace sublet::leasing {

namespace {

std::string join_asns(const std::vector<Asn>& asns) {
  std::vector<std::string> parts;
  parts.reserve(asns.size());
  for (Asn asn : asns) parts.push_back(std::to_string(asn.value()));
  return join(parts, " ");
}

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

}  // namespace

void write_inferences_csv(std::ostream& out,
                          const std::vector<LeaseInference>& inferences) {
  CsvWriter csv(out);
  csv.write_row({"prefix", "rir", "group", "leased", "root_prefix",
                 "holder_org", "holder_asns", "leaf_origins", "root_origins",
                 "facilitators", "netname"});
  for (const LeaseInference& r : inferences) {
    csv.write_row({
        r.prefix.to_string(),
        std::string(rir_name(r.rir)),
        std::string(group_name(r.group)),
        r.leased() ? "1" : "0",
        r.root_prefix.to_string(),
        r.holder_org,
        join_asns(r.holder_asns),
        join_asns(r.leaf_origins),
        join_asns(r.root_origins),
        join(r.leaf_maintainers, " "),
        r.netname,
    });
  }
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
