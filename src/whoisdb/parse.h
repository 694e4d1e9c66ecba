// Dialect frontends: raw RPSL-style objects → typed WhoisDb.
//
// Three on-disk dialects cover the five RIRs:
//  - RPSL (RIPE, APNIC, AFRINIC): inetnum / aut-num / organisation objects,
//    address blocks as inclusive ranges, maintainers in mnt-by / mnt-ref;
//  - ARIN bulk: NetHandle / ASHandle / OrgID blocks, NetRange + NetType,
//    organisations joined by OrgID (ARIN has no maintainer objects, so the
//    OrgID doubles as the "maintainer" handle, mirroring how the paper maps
//    ARIN brokers);
//  - LACNIC: inetnum blocks in CIDR notation with owner/ownerid inline
//    (LACNIC does not store organisations independently — §5.1); org
//    records are synthesized from the ownerid/owner pairs encountered.
//
// Parsing is parallel by default: inputs are split at paragraph (blank
// line) boundaries — an RPSL object can never span one — each slice is
// parsed as one task, and the last slice task to finish merges the
// per-slice databases back in input order. The result (records, joins,
// diagnostics, and their order) is identical to a serial parse; `threads =
// 1` runs the untouched streaming path. See docs/THREADING.md.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/expected.h"
#include "whoisdb/model.h"

namespace sublet::par {
class TaskGroup;
}

namespace sublet::whois {

/// Parse one RIR's database from a stream. Per-record problems (bad range,
/// unknown class, missing handle) are appended to `diagnostics` and the
/// record skipped; parsing continues. `threads`: 0 = process default
/// (par::set_default_threads / --threads), 1 = serial streaming parse,
/// N = parse paragraph chunks on N threads (the stream is slurped first).
WhoisDb parse_whois_db(std::istream& in, Rir rir, std::string source = {},
                       std::vector<Error>* diagnostics = nullptr,
                       unsigned threads = 1);

/// Parse a whole in-memory database. Same semantics as parse_whois_db;
/// the slices run on a local task group (inline below two slices).
WhoisDb parse_whois_text(std::string_view text, Rir rir,
                         std::string source = {},
                         std::vector<Error>* diagnostics = nullptr,
                         unsigned threads = 0);

/// Open and parse a database file. Throws std::runtime_error if
/// unreadable. `threads` as in parse_whois_text (default: process-wide).
WhoisDb load_whois_file(const std::string& path, Rir rir,
                        std::vector<Error>* diagnostics = nullptr,
                        unsigned threads = 0);

/// Read a database file and parse it as paragraph-slice tasks on the
/// caller's `group` (a few slices per worker, none under 16 KiB), so the
/// slices share the group's workers with its other tasks. The slice task
/// that finishes last merges the slices in input order into `out`, appends
/// the diagnostics in serial order, unmaps the file, and then runs `merged`
/// (if set). All of it is in place once group.wait() returns; `out` and
/// `diagnostics` must live until then. A one-thread group parses inline
/// with the streaming parser. Spans: one `whois.parse` under `parent`, from
/// the split to the merge, with a `whois.parse.chunk` per slice under it.
/// Throws (from the calling task) if the file is unreadable.
void load_whois_file(par::TaskGroup& group, const std::string& path, Rir rir,
                     std::optional<WhoisDb>& out,
                     std::vector<Error>* diagnostics, obs::SpanId parent,
                     std::function<void()> merged = {});

}  // namespace sublet::whois
