// Common Log Format (CLF) / Combined Log Format parsing and emission.
//
// CLF:      host ident authuser [dd/Mon/yyyy:HH:MM:SS +zzzz] "request" status bytes
// Combined: CLF + " \"referer\" \"user-agent\""
// All four servers in the paper logged (a superset of) CLF; the synthetic
// generator emits CLF so the entire pipeline — text log in, statistics out —
// is exercised end to end.
//
// Two parsers, one behavior (DESIGN.md §5.12):
//
//  * `ClfLineParser` — the production path. Zero-copy: fields come back as
//    `string_view`s into the caller's line (or, for the rare request field
//    with backslash escapes, into a parser-owned arena), with SWAR/AVX2
//    token scanning, a fixed-layout timestamp decoder, and a same-second
//    timestamp memo. `parse_clf_line` wraps it and materializes an owning
//    LogEntry.
//  * `parse_clf_line_reference` — the straightforward std::string parser,
//    kept as the executable specification. test_weblog_parser_identity runs
//    the full corpus (including hostile/fuzz inputs) through both and
//    requires identical accept/reject verdicts, reasons, and field values.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "support/result.h"
#include "weblog/entry.h"

namespace fullweb::weblog {

/// Why a line was rejected — the machine-readable side of a parse Error,
/// used by the ingest layer's per-file malformed-by-reason accounting.
enum class ClfParseReason {
  kNone = 0,        ///< parsed successfully
  kMissingFields,   ///< too few space-separated fields / empty line
  kBadTimestamp,    ///< missing, unterminated, malformed, or out-of-range
  kBadRequest,      ///< missing or unterminated quoted request field
  kBadStatus,       ///< status not a 3-digit HTTP code in [100, 599]
  kBadBytes,        ///< missing or negative byte count
};
inline constexpr std::size_t kClfParseReasonCount = 6;
[[nodiscard]] std::string_view to_string(ClfParseReason reason) noexcept;

/// One parsed line, zero-copy: the views alias the input line — or, when
/// the request field contained backslash escapes, an arena owned by the
/// ClfLineParser that produced the record. Either way the record is valid
/// only as long as both the line's buffer and the parser's arena live.
struct ClfRecord {
  double timestamp = 0.0;
  std::string_view client;
  std::string_view method;
  std::string_view path;
  std::string_view protocol;
  int status = 0;
  std::uint64_t bytes = 0;
};

/// Reusable zero-allocation line parser (the hot ingest path).
///
/// Not thread-safe: each parse thread (or parse chunk) owns one. State
/// carried across parse() calls is (a) the unescaped-request arena backing
/// ClfRecord views — see clear_owned()/take_owned() — and (b) the
/// same-second timestamp memo: consecutive log lines overwhelmingly share a
/// second, so the last successfully decoded raw timestamp (all 26 bracket
/// bytes, timezone included — distinct offsets are distinct keys) is cached
/// against its epoch value and re-decoding is a 26-byte compare.
class ClfLineParser {
 public:
  /// Parse one (already newline-free) line into `out`. Returns false on a
  /// malformed line with `reason` (if non-null) set to the rejection class
  /// and last_error() holding the reference parser's message for it.
  /// Accepts exactly the lines parse_clf_line_reference accepts, with
  /// identical field values.
  [[nodiscard]] bool parse(std::string_view line, ClfRecord& out,
                           ClfParseReason* reason = nullptr);

  /// Message for the most recent failed parse().
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

  /// Copy a record's views into an owning LogEntry.
  [[nodiscard]] static LogEntry materialize(const ClfRecord& record);

  /// Release / transfer the unescaped-request arena. Records produced since
  /// the last clear whose request field contained escapes point into it;
  /// take_owned() keeps those views valid (deque moves do not relocate
  /// elements), clear_owned() invalidates them.
  void clear_owned() noexcept { owned_.clear(); }
  [[nodiscard]] std::deque<std::string> take_owned() noexcept {
    return std::move(owned_);
  }

 private:
  [[nodiscard]] bool fail(ClfParseReason* reason, ClfParseReason r,
                          std::string msg);
  [[nodiscard]] bool decode_timestamp_fast(const char* p, std::size_t len,
                                           double& out) noexcept;

  std::deque<std::string> owned_;  ///< unescaped request strings (rare)
  std::string error_;
  char memo_key_[26] = {};    ///< raw bracket content of the last timestamp
  bool memo_valid_ = false;   ///< memo_key_/memo_epoch_ hold a decoded value
  double memo_epoch_ = 0.0;
};

/// Parse one log line. Tolerates Combined-format trailers (they are
/// ignored), "-" byte counts, and malformed request lines inside quotes;
/// returns a parse Error for structurally broken lines. Backslash escapes
/// inside the quoted request field are honored: \" does not terminate the
/// field, and \" / \\ are unescaped (other escape pairs are kept verbatim).
/// The status field must be a 3-digit HTTP code in [100, 599]. If `reason`
/// is non-null it is set to the rejection class (kNone on success).
[[nodiscard]] support::Result<LogEntry> parse_clf_line(std::string_view line);
[[nodiscard]] support::Result<LogEntry> parse_clf_line(std::string_view line,
                                                       ClfParseReason* reason);

/// The executable specification: a plain std::string-based parser with the
/// same accept/reject behavior as ClfLineParser, kept for the scalar-vs-SIMD
/// bit-identity suite. Not for production use (it allocates per field).
[[nodiscard]] support::Result<LogEntry> parse_clf_line_reference(
    std::string_view line, ClfParseReason* reason = nullptr);

/// Render an entry as a CLF line (no trailing newline). ident/authuser are
/// emitted as "-"; quotes and backslashes in the request are escaped, and
/// whitespace inside entry.client is replaced with '_' (a host token cannot
/// contain spaces), so the line always round-trips through parse_clf_line.
[[nodiscard]] std::string to_clf_line(const LogEntry& entry);

/// Epoch seconds -> "[dd/Mon/yyyy:HH:MM:SS +0000]" (UTC) and back.
/// Parsing validates field ranges: day within the month (leap years
/// honored), hour <= 23, minute <= 59, second <= 60 (leap second
/// tolerated), timezone offset within +-14:59. The offset may be absent
/// entirely, but a partial one ("+05") or a malformed separator before it
/// is rejected as malformed rather than silently ignored.
[[nodiscard]] std::string format_clf_timestamp(double epoch_seconds);
[[nodiscard]] support::Result<double> parse_clf_timestamp(std::string_view text);

}  // namespace fullweb::weblog
