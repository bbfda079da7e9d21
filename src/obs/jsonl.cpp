#include "tgcover/obs/jsonl.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace tgc::obs {

JsonlWriter::JsonlWriter(const std::string& path, bool append)
    : path_(path) {
  errno = 0;
  out_.open(path, append ? std::ios::out | std::ios::app : std::ios::out);
  if (!out_.is_open()) capture_error("cannot open");
}

JsonlWriter::~JsonlWriter() { close(); }

bool JsonlWriter::close() {
  if (closed_) return error_.empty();
  closed_ = true;
  if (out_.is_open()) {
    if (error_.empty() && !out_.good()) capture_error("write failed");
    errno = 0;
    out_.flush();
    if (error_.empty() && !out_.good()) capture_error("flush failed");
    errno = 0;
    out_.close();
    if (error_.empty() && out_.fail()) capture_error("close failed");
  }
  return error_.empty();
}

void JsonlWriter::capture_error(const std::string& what) {
  if (!error_.empty()) return;  // keep the first failure
  error_ = what + " '" + path_ + "'";
  // errno is best-effort through iostreams, but on POSIX the interesting
  // failures (ENOSPC, EACCES, ENOENT) do surface here.
  if (errno != 0) error_ += ": " + std::string(std::strerror(errno));
}

double JsonRecord::number(const std::string& key, double def) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0' && end != it->second.c_str()) ? v
                                                                       : def;
}

std::uint64_t JsonRecord::u64(const std::string& key, std::uint64_t def) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return def;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0' && end != it->second.c_str())
             ? static_cast<std::uint64_t>(v)
             : def;
}

std::string JsonRecord::text(const std::string& key,
                             const std::string& def) const {
  const auto it = fields_.find(key);
  return it != fields_.end() ? it->second : def;
}

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

/// Parses a double-quoted string (no escape handling beyond \" — the writer
/// never emits escapes). Returns false on malformed input.
bool parse_string(const std::string& s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) ++i;
    out.push_back(s[i++]);
  }
  if (i >= s.size()) return false;
  ++i;  // closing quote
  return true;
}

/// Parses an unquoted scalar token (number / true / false / null) verbatim.
bool parse_scalar(const std::string& s, std::size_t& i, std::string& out) {
  out.clear();
  while (i < s.size() && s[i] != ',' && s[i] != '}' &&
         std::isspace(static_cast<unsigned char>(s[i])) == 0) {
    out.push_back(s[i++]);
  }
  return !out.empty();
}

}  // namespace

std::optional<JsonRecord> parse_jsonl_line(const std::string& line) {
  JsonRecord rec;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') return std::nullopt;
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      std::string key;
      if (!parse_string(line, i, key)) return std::nullopt;
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') return std::nullopt;
      ++i;
      skip_ws(line, i);
      std::string value;
      if (i < line.size() && line[i] == '"') {
        if (!parse_string(line, i, value)) return std::nullopt;
      } else if (!parse_scalar(line, i, value)) {
        return std::nullopt;
      }
      rec.fields()[key] = value;
      skip_ws(line, i);
      if (i >= line.size()) return std::nullopt;
      if (line[i] == ',') {
        ++i;
        skip_ws(line, i);
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      return std::nullopt;
    }
  }
  skip_ws(line, i);
  if (i != line.size()) return std::nullopt;  // trailing garbage
  return rec;
}

namespace {

std::string line_note(const std::string& path, std::size_t line,
                      const std::string& what) {
  return path + ":" + std::to_string(line) + ": " + what;
}

}  // namespace

JsonlStream read_jsonl_stream(const std::string& path,
                              const JsonlVisitor& visit) {
  JsonlStream stream;
  std::ifstream in(path);
  if (!in.good()) {
    stream.error = "cannot open '" + path + "'";
    return stream;
  }
  std::size_t lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      // Producers never emit blank lines; a blank line means the file was
      // edited or corrupted, so surface it instead of silently moving on.
      stream.notes.push_back(line_note(path, lineno, "skipping blank line"));
      continue;
    }
    std::optional<JsonRecord> rec = parse_jsonl_line(line);
    if (!rec.has_value()) {
      // Also catches a truncated final line (no trailing newline, record
      // cut mid-field) — getline still yields the partial text.
      stream.notes.push_back(
          line_note(path, lineno, "skipping malformed record"));
      continue;
    }
    if (rec->text("type") == "manifest") {
      stream.manifest = std::move(*rec);
      continue;
    }
    const std::string skipped = visit(*rec);
    if (!skipped.empty()) {
      stream.notes.push_back(line_note(path, lineno, skipped));
    }
  }
  return stream;
}

}  // namespace tgc::obs
