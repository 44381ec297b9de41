#include "src/server/protocol.h"

#include <charconv>
#include <cstdlib>
#include <optional>
#include <system_error>
#include <utility>

namespace wdpt::server {

namespace {

constexpr std::string_view kMagic = "WDPT/1";

// Headers and messages are single-line fields; a stray newline would
// desynchronise the header block.
std::string OneLine(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

void AppendHeader(std::string* out, std::string_view key,
                  std::string_view value) {
  out->append(key);
  out->append(": ");
  out->append(OneLine(value));
  out->push_back('\n');
}

// Splits "key: value" (value may be empty). Returns false on malformed
// lines.
bool SplitHeader(std::string_view line, std::string_view* key,
                 std::string_view* value) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos) return false;
  *key = line.substr(0, colon);
  std::string_view rest = line.substr(colon + 1);
  if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  *value = rest;
  return true;
}

uint64_t ParseU64(std::string_view value) {
  return std::strtoull(std::string(value).c_str(), nullptr, 10);
}

// A request header's number: a nonempty run of ASCII digits that fits
// in a uint64. For unsigned types from_chars takes no sign, space or
// prefix, and fails on an empty value and on overflow.
std::optional<uint64_t> ParseDecimalU64(std::string_view value) {
  uint64_t out = 0;
  const char* end = value.data() + value.size();
  std::from_chars_result parsed = std::from_chars(value.data(), end, out);
  if (parsed.ec != std::errc() || parsed.ptr != end) return std::nullopt;
  return out;
}

// Consumes the header block (up to and including the blank line) of
// `payload` starting at *pos, invoking `on_header` per header. Returns
// an error if the blank separator line is missing.
template <typename Fn>
Status ConsumeHeaders(std::string_view payload, size_t* pos, Fn&& on_header) {
  while (*pos < payload.size()) {
    size_t eol = payload.find('\n', *pos);
    if (eol == std::string_view::npos) {
      return Status::ParseError("unterminated header line");
    }
    std::string_view line = payload.substr(*pos, eol - *pos);
    *pos = eol + 1;
    if (line.empty()) return Status::Ok();  // Blank line: headers done.
    std::string_view key, value;
    if (!SplitHeader(line, &key, &value)) {
      return Status::ParseError("malformed header line '" +
                                std::string(line) + "'");
    }
    on_header(key, value);
  }
  return Status::ParseError("missing blank line after headers");
}

// Splits the status/command line "WDPT/1 <token>"; `*token` gets the
// part after the magic.
Status ConsumeFirstLine(std::string_view payload, size_t* pos,
                        std::string_view* token) {
  size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) {
    return Status::ParseError("missing protocol line");
  }
  std::string_view line = payload.substr(0, eol);
  *pos = eol + 1;
  size_t space = line.find(' ');
  if (space == std::string_view::npos || line.substr(0, space) != kMagic) {
    return Status::ParseError("expected '" + std::string(kMagic) +
                              " <token>' protocol line, got '" +
                              std::string(line) + "'");
  }
  *token = line.substr(space + 1);
  return Status::Ok();
}

}  // namespace

const char* CommandName(Command command) {
  switch (command) {
    case Command::kQuery:
      return "QUERY";
    case Command::kStats:
      return "STATS";
    case Command::kPing:
      return "PING";
    case Command::kReload:
      return "RELOAD";
    case Command::kMetrics:
      return "METRICS";
    case Command::kIngest:
      return "INGEST";
    case Command::kCheckpoint:
      return "CHECKPOINT";
    case Command::kSubscribe:
      return "SUBSCRIBE";
    case Command::kWalSeg:
      return "WALSEG";
    case Command::kSnapshotFetch:
      return "SNAPSHOT-FETCH";
  }
  return "PING";
}

std::string SerializeRequest(const Request& request) {
  std::string out(kMagic);
  out.push_back(' ');
  out.append(CommandName(request.command));
  out.push_back('\n');
  if (request.command == Command::kQuery) {
    AppendHeader(&out, "mode", sparql::RequestModeName(request.query.mode));
    if (request.query.deadline_ms != 0) {
      AppendHeader(&out, "deadline-ms",
                   std::to_string(request.query.deadline_ms));
    }
    if (request.query.max_results != 0) {
      AppendHeader(&out, "max-results",
                   std::to_string(request.query.max_results));
    }
    if (!request.query.candidate.empty()) {
      AppendHeader(&out, "candidate", request.query.candidate);
    }
    if (request.query.cache_bypass) {
      AppendHeader(&out, "cache-control", "bypass");
    }
  }
  if (request.command == Command::kSubscribe) {
    AppendHeader(&out, "epoch", std::to_string(request.epoch));
    AppendHeader(&out, "offset", std::to_string(request.offset));
  }
  if (request.command == Command::kWalSeg) {
    AppendHeader(&out, "epoch", std::to_string(request.epoch));
    AppendHeader(&out, "offset", std::to_string(request.offset));
    AppendHeader(&out, "next-offset", std::to_string(request.next_offset));
    AppendHeader(&out, "seq", std::to_string(request.seq));
    AppendHeader(&out, "head-seq", std::to_string(request.head_seq));
  }
  out.push_back('\n');
  if (request.command == Command::kQuery) {
    out.append(request.query.query);
  } else {
    out.append(request.body);
  }
  return out;
}

Result<Request> ParseRequest(std::string_view payload) {
  size_t pos = 0;
  std::string_view token;
  Status s = ConsumeFirstLine(payload, &pos, &token);
  if (!s.ok()) return s;

  Request request;
  if (token == "QUERY") {
    request.command = Command::kQuery;
  } else if (token == "STATS") {
    request.command = Command::kStats;
  } else if (token == "PING") {
    request.command = Command::kPing;
  } else if (token == "RELOAD") {
    request.command = Command::kReload;
  } else if (token == "METRICS") {
    request.command = Command::kMetrics;
  } else if (token == "INGEST") {
    request.command = Command::kIngest;
  } else if (token == "CHECKPOINT") {
    request.command = Command::kCheckpoint;
  } else if (token == "SUBSCRIBE") {
    request.command = Command::kSubscribe;
  } else if (token == "WALSEG") {
    request.command = Command::kWalSeg;
  } else if (token == "SNAPSHOT-FETCH") {
    request.command = Command::kSnapshotFetch;
  } else {
    return Status::InvalidArgument("unknown command '" + std::string(token) +
                                   "'");
  }

  // The first malformed header's error; later headers are still read.
  Status header_error;
  auto number = [&](std::string_view key, std::string_view value,
                    uint64_t* out) {
    std::optional<uint64_t> parsed = ParseDecimalU64(value);
    if (parsed.has_value()) {
      *out = *parsed;
    } else if (header_error.ok()) {
      header_error = Status::InvalidArgument(
          "header '" + std::string(key) +
          "' must be an unsigned 64-bit decimal number, got '" +
          std::string(value) + "'");
    }
  };
  s = ConsumeHeaders(payload, &pos,
                     [&](std::string_view key, std::string_view value) {
                       if (key == "mode") {
                         Result<sparql::RequestMode> mode =
                             sparql::ParseRequestMode(value);
                         if (mode.ok()) {
                           request.query.mode = *mode;
                         } else if (header_error.ok()) {
                           header_error = mode.status();
                         }
                       } else if (key == "deadline-ms") {
                         number(key, value, &request.query.deadline_ms);
                       } else if (key == "max-results") {
                         number(key, value, &request.query.max_results);
                       } else if (key == "candidate") {
                         request.query.candidate = std::string(value);
                       } else if (key == "cache-control") {
                         // The only recognised directive; others are
                         // ignored like unknown headers.
                         if (value == "bypass") {
                           request.query.cache_bypass = true;
                         }
                       } else if (key == "epoch") {
                         number(key, value, &request.epoch);
                       } else if (key == "offset") {
                         number(key, value, &request.offset);
                       } else if (key == "next-offset") {
                         number(key, value, &request.next_offset);
                       } else if (key == "seq") {
                         number(key, value, &request.seq);
                       } else if (key == "head-seq") {
                         number(key, value, &request.head_seq);
                       }
                       // Unknown headers: ignored (forward compatibility).
                     });
  if (!s.ok()) return s;
  if (!header_error.ok()) return header_error;

  std::string body(payload.substr(pos));
  if (request.command == Command::kQuery) {
    request.query.query = std::move(body);
  } else {
    request.body = std::move(body);
  }
  return request;
}

std::string SerializeResponse(const Response& response) {
  std::string out(kMagic);
  out.push_back(' ');
  out.append(StatusCodeName(response.code));
  out.push_back('\n');
  AppendHeader(&out, "rows", std::to_string(response.rows.size()));
  if (response.truncated) AppendHeader(&out, "truncated", "1");
  if (response.cached) AppendHeader(&out, "cached", "1");
  if (response.retry_after_ms != 0) {
    AppendHeader(&out, "retry-after-ms",
                 std::to_string(response.retry_after_ms));
  }
  if (!response.message.empty()) {
    AppendHeader(&out, "message", response.message);
  }
  if (!response.stats_json.empty()) {
    AppendHeader(&out, "stats", response.stats_json);
  }
  if (response.epoch != 0) {
    AppendHeader(&out, "epoch", std::to_string(response.epoch));
  }
  if (response.head_seq != 0) {
    AppendHeader(&out, "head-seq", std::to_string(response.head_seq));
  }
  if (!response.primary.empty()) {
    AppendHeader(&out, "primary", response.primary);
  }
  if (!response.body.empty()) {
    AppendHeader(&out, "body-bytes", std::to_string(response.body.size()));
  }
  out.push_back('\n');
  for (const std::string& row : response.rows) {
    out.append(OneLine(row));
    out.push_back('\n');
  }
  // Binary tail: exactly body-bytes raw bytes after the last row. Length
  // is carried by the header, never by a terminator, so the bytes need
  // no escaping.
  out.append(response.body);
  return out;
}

Result<Response> ParseResponse(std::string_view payload) {
  size_t pos = 0;
  std::string_view token;
  Status s = ConsumeFirstLine(payload, &pos, &token);
  if (!s.ok()) return s;

  Response response;
  response.code = StatusCodeFromName(token);
  uint64_t row_count = 0;
  uint64_t body_bytes = 0;
  s = ConsumeHeaders(payload, &pos,
                     [&](std::string_view key, std::string_view value) {
                       if (key == "rows") {
                         row_count = ParseU64(value);
                       } else if (key == "truncated") {
                         response.truncated = value == "1";
                       } else if (key == "cached") {
                         response.cached = value == "1";
                       } else if (key == "retry-after-ms") {
                         response.retry_after_ms = ParseU64(value);
                       } else if (key == "message") {
                         response.message = std::string(value);
                       } else if (key == "stats") {
                         response.stats_json = std::string(value);
                       } else if (key == "epoch") {
                         response.epoch = ParseU64(value);
                       } else if (key == "head-seq") {
                         response.head_seq = ParseU64(value);
                       } else if (key == "primary") {
                         response.primary = std::string(value);
                       } else if (key == "body-bytes") {
                         body_bytes = ParseU64(value);
                       }
                     });
  if (!s.ok()) return s;

  response.rows.reserve(row_count);
  for (uint64_t i = 0; i < row_count; ++i) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) {
      return Status::ParseError("response body truncated: expected " +
                                std::to_string(row_count) + " rows, got " +
                                std::to_string(i));
    }
    response.rows.emplace_back(payload.substr(pos, eol - pos));
    pos = eol + 1;
  }
  if (body_bytes != 0) {
    if (payload.size() - pos < body_bytes) {
      return Status::ParseError(
          "response binary body truncated: declared " +
          std::to_string(body_bytes) + " bytes, frame holds " +
          std::to_string(payload.size() - pos));
    }
    response.body.assign(payload.data() + pos, body_bytes);
  }
  return response;
}

}  // namespace wdpt::server
