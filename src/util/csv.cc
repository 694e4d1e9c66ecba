#include "util/csv.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace sublet {

CsvWriter::CsvWriter(std::ostream& out, char sep) : out_(out), sep_(sep) {}

namespace {
bool needs_quoting(std::string_view field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << sep_;
    const std::string& f = fields[i];
    if (needs_quoting(f, sep_)) {
      out_ << '"';
      for (char c : f) {
        if (c == '"') out_ << '"';
        out_ << c;
      }
      out_ << '"';
    } else {
      out_ << f;
    }
  }
  out_ << '\n';
}

std::vector<std::string> parse_csv_line(std::string_view line, char sep) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"' && cur.empty()) {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {
/// True if `text` ends inside an open quoted field. A quote opens a field
/// only as the field's first character, as in parse_csv_line.
bool quote_open(std::string_view text, char sep) {
  if (text.find('"') == std::string_view::npos) return false;
  bool in_quotes = false;
  bool field_started = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          ++i;
        } else {
          in_quotes = false;
        }
      }
      field_started = true;
    } else if (c == '"' && !field_started) {
      in_quotes = true;
    } else if (c == sep) {
      field_started = false;
    } else {
      field_started = true;
    }
  }
  return in_quotes;
}
}  // namespace

bool read_csv_record(std::istream& in, std::string& record, char sep) {
  record.clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  for (;;) {
    record += line;
    if (!quote_open(record, sep)) break;
    if (!std::getline(in, line)) break;  // unterminated quote at EOF
    record += '\n';  // the break was field content
  }
  // A CR from a CRLF line ending is transport, not content: quoted fields
  // carry their CRs mid-record (the closing quote follows them), so a
  // trailing CR here can only come from the line terminator.
  if (!record.empty() && record.back() == '\r') record.pop_back();
  return true;
}

std::vector<std::vector<std::string>> read_delimited_file(
    const std::string& path, char sep) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(parse_csv_line(line, sep));
  }
  return rows;
}

}  // namespace sublet
