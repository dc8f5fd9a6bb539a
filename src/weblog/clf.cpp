#include "weblog/clf.h"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/strings.h"
#include "weblog/clf_scan.h"

namespace fullweb::weblog {

using support::Error;
using support::Result;

namespace {

constexpr std::array<const char*, 12> kMonths = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

/// Days since the Unix epoch for a civil date (Howard Hinnant's algorithm).
long long days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const long long era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153U * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;                     // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<long long>(doe) - 719468;
}

/// Inverse of days_from_civil.
void civil_from_days(long long z, int& y, int& m, int& d) noexcept {
  z += 719468;
  const long long era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const long long yy = static_cast<long long>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

int month_from_abbrev(std::string_view s) noexcept {
  for (std::size_t i = 0; i < kMonths.size(); ++i)
    if (s == kMonths[i]) return static_cast<int>(i) + 1;
  return 0;
}

/// month_from_abbrev over the packed 3 bytes — a jump table instead of 12
/// string compares, for the fixed-layout timestamp decoder.
int month_from_packed(const char* p) noexcept {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(p[2]));
  switch (key) {
    case ('J' << 16) | ('a' << 8) | 'n': return 1;
    case ('F' << 16) | ('e' << 8) | 'b': return 2;
    case ('M' << 16) | ('a' << 8) | 'r': return 3;
    case ('A' << 16) | ('p' << 8) | 'r': return 4;
    case ('M' << 16) | ('a' << 8) | 'y': return 5;
    case ('J' << 16) | ('u' << 8) | 'n': return 6;
    case ('J' << 16) | ('u' << 8) | 'l': return 7;
    case ('A' << 16) | ('u' << 8) | 'g': return 8;
    case ('S' << 16) | ('e' << 8) | 'p': return 9;
    case ('O' << 16) | ('c' << 8) | 't': return 10;
    case ('N' << 16) | ('o' << 8) | 'v': return 11;
    case ('D' << 16) | ('e' << 8) | 'c': return 12;
    default: return 0;
  }
}

bool is_leap(long long y) noexcept {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

int days_in_month(long long y, int m) noexcept {
  constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
  if (m == 2 && is_leap(y)) return 29;
  return kDays[static_cast<std::size_t>(m - 1)];
}

/// support::trim's whitespace class (std::isspace, C locale).
inline bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Decode the two-digit pair at `p` into `v`; false unless both are digits.
inline bool digit2(const char* p, unsigned& v) noexcept {
  const unsigned a = static_cast<unsigned char>(p[0]) - '0';
  const unsigned b = static_cast<unsigned char>(p[1]) - '0';
  v = a * 10 + b;
  return a <= 9 && b <= 9;
}

/// Find the index of the closing quote of the request field, honoring
/// backslash escapes (\" does not terminate, \\ does not escape the
/// following quote). `text` starts just past the opening quote.
std::string_view::size_type find_closing_quote(std::string_view text) noexcept {
  bool escaped = false;
  for (std::string_view::size_type i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      return i;
    }
  }
  return std::string_view::npos;
}

/// Undo to_clf_line's escaping: \" -> " and \\ -> \. Any other backslash
/// pair is preserved verbatim (Apache also emits \t, \xhh, ... — the
/// analyses treat paths as opaque, so those stay as logged).
std::string unescape_request(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::string_view::size_type i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size() &&
        (raw[i + 1] == '"' || raw[i + 1] == '\\')) {
      out.push_back(raw[i + 1]);
      ++i;
    } else {
      out.push_back(raw[i]);
    }
  }
  return out;
}

std::string escape_request(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The satellite status rule shared by both parsers: a 3-digit HTTP code in
/// [100, 599]. `status_tok` is the raw token; parse_int trims it, so the
/// digit-count check runs on the trimmed view too.
bool valid_status_token(std::string_view status_tok, int& out) noexcept {
  const auto v = support::parse_int(status_tok);
  if (!v || *v < 100 || *v > 599) return false;
  if (support::trim(status_tok).size() != 3) return false;
  out = static_cast<int>(*v);
  return true;
}

Error fail(ClfParseReason* reason, ClfParseReason r, std::string msg) {
  if (reason != nullptr) *reason = r;
  return Error::parse(std::move(msg));
}

inline std::string_view make_view(const char* b, const char* e) noexcept {
  return {b, static_cast<std::size_t>(e - b)};
}

}  // namespace

std::string_view to_string(ClfParseReason reason) noexcept {
  switch (reason) {
    case ClfParseReason::kNone: return "ok";
    case ClfParseReason::kMissingFields: return "missing_fields";
    case ClfParseReason::kBadTimestamp: return "bad_timestamp";
    case ClfParseReason::kBadRequest: return "bad_request";
    case ClfParseReason::kBadStatus: return "bad_status";
    case ClfParseReason::kBadBytes: return "bad_bytes";
  }
  return "?";
}

std::string format_clf_timestamp(double epoch_seconds) {
  const auto total = static_cast<long long>(std::floor(epoch_seconds));
  long long days = total / 86400;
  long long sod = total % 86400;
  if (sod < 0) {
    sod += 86400;
    --days;
  }
  int y, m, d;
  civil_from_days(days, y, m, d);
  char buf[40];
  std::snprintf(buf, sizeof buf, "[%02d/%s/%04d:%02lld:%02lld:%02lld +0000]", d,
                kMonths[static_cast<std::size_t>(m - 1)], y, sod / 3600,
                (sod / 60) % 60, sod % 60);
  return buf;
}

Result<double> parse_clf_timestamp(std::string_view text) {
  // "[dd/Mon/yyyy:HH:MM:SS +zzzz]" — brackets optional here.
  if (!text.empty() && text.front() == '[') text.remove_prefix(1);
  if (!text.empty() && text.back() == ']') text.remove_suffix(1);
  // dd/Mon/yyyy:HH:MM:SS +zzzz
  if (text.size() < 20) return Error::parse("timestamp too short");

  const auto day = support::parse_int(text.substr(0, 2));
  const int mon = month_from_abbrev(text.substr(3, 3));
  const auto year = support::parse_int(text.substr(7, 4));
  const auto hh = support::parse_int(text.substr(12, 2));
  const auto mm = support::parse_int(text.substr(15, 2));
  const auto ss = support::parse_int(text.substr(18, 2));
  if (!day || mon == 0 || !year || !hh || !mm || !ss ||
      text[2] != '/' || text[6] != '/' || text[11] != ':' || text[14] != ':' ||
      text[17] != ':')
    return Error::parse("malformed timestamp: " + std::string(text));

  // Range validation: out-of-range fields must be rejected, not silently
  // wrapped into a wrong epoch by the civil-date arithmetic below. Second
  // 60 is tolerated (leap seconds appear in real logs) and maps onto the
  // next minute.
  if (*day < 1 || *day > days_in_month(*year, mon) || *hh > 23 || *mm > 59 ||
      *ss > 60)
    return Error::parse("timestamp field out of range: " + std::string(text));

  // The timezone offset may be absent (exactly 20 chars), but a partial one
  // ("+05"), a wrong separator at index 20, or trailing junk past a full
  // offset must all be rejected — silently reading such a stamp as UTC
  // shifts the entry by hours.
  long long offset_seconds = 0;
  if (text.size() > 20) {
    if (text.size() != 26)
      return Error::parse("truncated timezone offset: " + std::string(text));
    if (text[20] != ' ' || (text[21] != '+' && text[21] != '-') ||
        !scan::all_digits(text.data() + 22, 4))
      return Error::parse("malformed timezone offset: " + std::string(text));
    const long long oh = (text[22] - '0') * 10 + (text[23] - '0');
    const long long om = (text[24] - '0') * 10 + (text[25] - '0');
    // Real UTC offsets stay within +-14:00; anything larger is log
    // corruption, not a timezone.
    if (oh > 14 || om > 59)
      return Error::parse("timezone offset out of range: " + std::string(text));
    offset_seconds = (oh * 3600 + om * 60) * (text[21] == '+' ? 1 : -1);
  }

  const long long days = days_from_civil(static_cast<int>(*year), mon,
                                         static_cast<int>(*day));
  const long long local = days * 86400 + *hh * 3600 + *mm * 60 + *ss;
  return static_cast<double>(local - offset_seconds);
}

bool ClfLineParser::fail(ClfParseReason* reason, ClfParseReason r,
                         std::string msg) {
  if (reason != nullptr) *reason = r;
  error_ = std::move(msg);
  return false;
}

/// Fixed-layout decode of the 26-char bracket content
/// "dd/Mon/yyyy:HH:MM:SS +zzzz". Accepts a strict subset of
/// parse_clf_timestamp with identical values; ANY deviation (padding,
/// unusual spacing, out-of-range field) returns false and the caller falls
/// back to the flexible parser, which is authoritative.
bool ClfLineParser::decode_timestamp_fast(const char* p, std::size_t len,
                                          double& out) noexcept {
  if (len != 26) return false;
  if (p[2] != '/' || p[6] != '/' || p[11] != ':' || p[14] != ':' ||
      p[17] != ':' || p[20] != ' ')
    return false;
  const char sign = p[21];
  if (sign != '+' && sign != '-') return false;
  unsigned day, y_hi, y_lo, hh, mi, ss, oh, om;
  if (!digit2(p, day) || !digit2(p + 7, y_hi) || !digit2(p + 9, y_lo) ||
      !digit2(p + 12, hh) || !digit2(p + 15, mi) || !digit2(p + 18, ss) ||
      !digit2(p + 22, oh) || !digit2(p + 24, om))
    return false;
  const int mon = month_from_packed(p + 3);
  if (mon == 0) return false;
  const int year = static_cast<int>(y_hi * 100 + y_lo);
  if (day < 1 || static_cast<int>(day) > days_in_month(year, mon) ||
      hh > 23 || mi > 59 || ss > 60 || oh > 14 || om > 59)
    return false;
  const long long days = days_from_civil(year, mon, static_cast<int>(day));
  const long long local =
      days * 86400 + hh * 3600LL + mi * 60LL + ss;
  const long long offset = (oh * 3600LL + om * 60LL) * (sign == '+' ? 1 : -1);
  out = static_cast<double>(local - offset);
  return true;
}

bool ClfLineParser::parse(std::string_view line, ClfRecord& out,
                          ClfParseReason* reason) {
  if (reason != nullptr) *reason = ClfParseReason::kNone;
  out = ClfRecord{};
  const char* b = line.data();
  const char* e = b + line.size();
  while (b < e && is_space(*b)) ++b;
  while (e > b && is_space(e[-1])) --e;
  if (b == e)
    return fail(reason, ClfParseReason::kMissingFields, "empty line");

  // host
  const char* sp = scan::find_byte(b, e, ' ');
  if (sp == e)
    return fail(reason, ClfParseReason::kMissingFields, "missing fields");
  out.client = make_view(b, sp);
  b = sp + 1;

  // ident authuser — skip two space-separated tokens (authuser may contain
  // no spaces in CLF).
  for (int skip = 0; skip < 2; ++skip) {
    sp = scan::find_byte(b, e, ' ');
    if (sp == e)
      return fail(reason, ClfParseReason::kMissingFields, "missing fields");
    b = sp + 1;
  }

  // [timestamp] — memo first: when the 26 bracket bytes equal the last
  // successfully decoded stamp (same second, same timezone), the epoch is
  // the cached one and — since a memoized stamp contains no ']' — the
  // bracket provably closes at offset 27, so the find can be skipped too.
  if (b == e || *b != '[')
    return fail(reason, ClfParseReason::kBadTimestamp, "missing timestamp");
  double ts_value;
  if (memo_valid_ && e - b >= 28 && b[27] == ']' &&
      std::memcmp(b + 1, memo_key_, 26) == 0) {
    ts_value = memo_epoch_;
    b += 28;
  } else {
    const char* rb = scan::find_byte(b + 1, e, ']');
    if (rb == e)
      return fail(reason, ClfParseReason::kBadTimestamp,
                  "unterminated timestamp");
    const auto content_len = static_cast<std::size_t>(rb - b) - 1;
    if (!decode_timestamp_fast(b + 1, content_len, ts_value)) {
      auto ts = parse_clf_timestamp(make_view(b, rb + 1));
      if (!ts) {
        if (reason != nullptr) *reason = ClfParseReason::kBadTimestamp;
        error_ = ts.error().message;
        return false;
      }
      ts_value = ts.value();
    }
    if (content_len == 26) {
      std::memcpy(memo_key_, b + 1, 26);
      memo_epoch_ = ts_value;
      memo_valid_ = true;
    }
    b = rb + 1;
  }
  out.timestamp = ts_value;
  while (b < e && is_space(*b)) ++b;

  // "request" — \" inside the field does not terminate it.
  if (b == e || *b != '"')
    return fail(reason, ClfParseReason::kBadRequest, "missing request");
  const char* rs = b + 1;
  const char* scanp = rs;
  const char* cq = nullptr;
  bool had_backslash = false;
  while (true) {
    const char* hit = scan::find_either(scanp, e, '"', '\\');
    if (hit == e)
      return fail(reason, ClfParseReason::kBadRequest, "unterminated request");
    if (*hit == '"') {
      cq = hit;
      break;
    }
    had_backslash = true;  // a backslash strictly before the closing quote
    scanp = hit + 2;       // skip the escaped character
    if (scanp > e)
      return fail(reason, ClfParseReason::kBadRequest, "unterminated request");
  }
  const std::string_view raw_request = make_view(rs, cq);
  b = cq + 1;
  while (b < e && is_space(*b)) ++b;

  if (raw_request != "-") {
    std::string_view request = raw_request;
    if (had_backslash) {
      owned_.push_back(unescape_request(raw_request));
      request = owned_.back();
    }
    // split(request, ' ') keeps empty fields; only parts [0..2] are used.
    const char* q = request.data();
    const char* qe = q + request.size();
    const char* s1 = scan::find_byte(q, qe, ' ');
    out.method = make_view(q, s1);
    if (s1 != qe) {
      const char* s2 = scan::find_byte(s1 + 1, qe, ' ');
      out.path = make_view(s1 + 1, s2);
      if (s2 != qe) {
        const char* s3 = scan::find_byte(s2 + 1, qe, ' ');
        out.protocol = make_view(s2 + 1, s3);
      }
    }
  }

  // status bytes [trailing Combined fields ignored]
  sp = scan::find_byte(b, e, ' ');
  const std::string_view status_tok = make_view(b, sp);
  unsigned s_val = 0;
  bool plain3 = status_tok.size() == 3;
  if (plain3) {
    const unsigned d0 = static_cast<unsigned char>(status_tok[0]) - '0';
    const unsigned d1 = static_cast<unsigned char>(status_tok[1]) - '0';
    const unsigned d2 = static_cast<unsigned char>(status_tok[2]) - '0';
    plain3 = d0 <= 9 && d1 <= 9 && d2 <= 9;
    s_val = d0 * 100 + d1 * 10 + d2;
  }
  if (plain3) {
    if (s_val < 100 || s_val > 599)
      return fail(reason, ClfParseReason::kBadStatus,
                  "bad status: " + std::string(status_tok));
    out.status = static_cast<int>(s_val);
  } else {
    // Whitespace-padded or otherwise unusual token: apply the exact
    // reference rule (trim via parse_int, 3 digits, 100..599).
    int status = 0;
    if (!valid_status_token(status_tok, status))
      return fail(reason, ClfParseReason::kBadStatus,
                  "bad status: " + std::string(status_tok));
    out.status = status;
  }
  if (sp == e)
    return fail(reason, ClfParseReason::kBadBytes, "missing bytes field");
  b = sp + 1;
  while (b < e && is_space(*b)) ++b;

  sp = scan::find_byte(b, e, ' ');
  const std::string_view bytes_tok = make_view(b, sp);
  if (bytes_tok == "-") {
    out.bytes = 0;
  } else if (!bytes_tok.empty() && bytes_tok.size() <= 18 &&
             scan::all_digits(bytes_tok.data(), bytes_tok.size())) {
    // <= 18 digits always fits in long long, matching parse_int's overflow
    // behavior; longer (or padded) tokens take the reference route below.
    std::uint64_t v = 0;
    for (const char c : bytes_tok) v = v * 10 + static_cast<unsigned>(c - '0');
    out.bytes = v;
  } else {
    const auto bytes = support::parse_int(bytes_tok);
    if (!bytes || *bytes < 0)
      return fail(reason, ClfParseReason::kBadBytes,
                  "bad bytes: " + std::string(bytes_tok));
    out.bytes = static_cast<std::uint64_t>(*bytes);
  }
  return true;
}

LogEntry ClfLineParser::materialize(const ClfRecord& record) {
  LogEntry e;
  e.timestamp = record.timestamp;
  e.client = std::string(record.client);
  e.method = std::string(record.method);
  e.path = std::string(record.path);
  e.protocol = std::string(record.protocol);
  e.status = record.status;
  e.bytes = record.bytes;
  return e;
}

Result<LogEntry> parse_clf_line(std::string_view line) {
  return parse_clf_line(line, nullptr);
}

Result<LogEntry> parse_clf_line(std::string_view line, ClfParseReason* reason) {
  thread_local ClfLineParser parser;
  parser.clear_owned();
  ClfRecord record;
  if (!parser.parse(line, record, reason))
    return Error::parse(parser.last_error());
  return ClfLineParser::materialize(record);
}

Result<LogEntry> parse_clf_line_reference(std::string_view line,
                                          ClfParseReason* reason) {
  if (reason != nullptr) *reason = ClfParseReason::kNone;
  LogEntry e;
  line = support::trim(line);
  if (line.empty())
    return fail(reason, ClfParseReason::kMissingFields, "empty line");

  // host
  auto sp = line.find(' ');
  if (sp == std::string_view::npos)
    return fail(reason, ClfParseReason::kMissingFields, "missing fields");
  e.client = std::string(line.substr(0, sp));
  line.remove_prefix(sp + 1);

  // ident authuser — skip two space-separated tokens (authuser may contain
  // no spaces in CLF).
  for (int skip = 0; skip < 2; ++skip) {
    sp = line.find(' ');
    if (sp == std::string_view::npos)
      return fail(reason, ClfParseReason::kMissingFields, "missing fields");
    line.remove_prefix(sp + 1);
  }

  // [timestamp]
  if (line.empty() || line.front() != '[')
    return fail(reason, ClfParseReason::kBadTimestamp, "missing timestamp");
  const auto rb = line.find(']');
  if (rb == std::string_view::npos)
    return fail(reason, ClfParseReason::kBadTimestamp, "unterminated timestamp");
  auto ts = parse_clf_timestamp(line.substr(0, rb + 1));
  if (!ts) {
    if (reason != nullptr) *reason = ClfParseReason::kBadTimestamp;
    return ts.error();
  }
  e.timestamp = ts.value();
  line.remove_prefix(rb + 1);
  line = support::trim(line);

  // "request" — \" inside the field does not terminate it.
  if (line.empty() || line.front() != '"')
    return fail(reason, ClfParseReason::kBadRequest, "missing request");
  const auto rq = find_closing_quote(line.substr(1));
  if (rq == std::string_view::npos)
    return fail(reason, ClfParseReason::kBadRequest, "unterminated request");
  const std::string_view raw_request = line.substr(1, rq);
  line.remove_prefix(rq + 2);
  line = support::trim(line);

  if (raw_request != "-") {
    const std::string request =
        raw_request.find('\\') == std::string_view::npos
            ? std::string(raw_request)
            : unescape_request(raw_request);
    const auto parts = support::split(request, ' ');
    if (!parts.empty()) e.method = std::string(parts[0]);
    if (parts.size() >= 2) e.path = std::string(parts[1]);
    if (parts.size() >= 3) e.protocol = std::string(parts[2]);
  }

  // status bytes [trailing Combined fields ignored]
  sp = line.find(' ');
  const std::string_view status_tok =
      sp == std::string_view::npos ? line : line.substr(0, sp);
  int status = 0;
  if (!valid_status_token(status_tok, status))
    return fail(reason, ClfParseReason::kBadStatus,
                "bad status: " + std::string(status_tok));
  e.status = status;
  if (sp == std::string_view::npos)
    return fail(reason, ClfParseReason::kBadBytes, "missing bytes field");
  line.remove_prefix(sp + 1);
  line = support::trim(line);

  sp = line.find(' ');
  const std::string_view bytes_tok =
      sp == std::string_view::npos ? line : line.substr(0, sp);
  if (bytes_tok == "-") {
    e.bytes = 0;
  } else {
    const auto bytes = support::parse_int(bytes_tok);
    if (!bytes || *bytes < 0)
      return fail(reason, ClfParseReason::kBadBytes,
                  "bad bytes: " + std::string(bytes_tok));
    e.bytes = static_cast<std::uint64_t>(*bytes);
  }
  return e;
}

std::string to_clf_line(const LogEntry& entry) {
  std::string request;
  if (entry.method.empty()) {
    request = "-";
  } else {
    request = entry.method + " " + entry.path +
              (entry.protocol.empty() ? "" : " " + entry.protocol);
    if (request.find('"') != std::string::npos ||
        request.find('\\') != std::string::npos)
      request = escape_request(request);
  }
  // The host field is space-delimited, so whitespace inside the client
  // would shift every later field on re-parse; '_' keeps the token count.
  std::string client = entry.client;
  for (char& c : client)
    if (is_space(c)) c = '_';
  return client + " - - " + format_clf_timestamp(entry.timestamp) + " \"" +
         request + "\" " + std::to_string(entry.status) + " " +
         std::to_string(entry.bytes);
}

}  // namespace fullweb::weblog
