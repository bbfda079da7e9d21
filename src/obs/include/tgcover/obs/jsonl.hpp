#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tgc::obs {

/// A checked line-record file sink. Thin on purpose — the writers (round
/// log, trace exports) stream straight into `stream()` — but unlike a bare
/// ofstream it *detects and reports* write failures: open errors, a stream
/// gone bad mid-write (disk full, closed descriptor), and flush/close
/// failures, which an unchecked ofstream destructor swallows silently. The
/// CLI turns a failed close() into a non-zero exit code.
class JsonlWriter {
 public:
  /// `append` opens in append mode (fleet --resume extends an existing
  /// sink in place) instead of truncating.
  explicit JsonlWriter(const std::string& path, bool append = false);
  /// Closes without error reporting; call close() first to learn the fate
  /// of buffered data.
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  std::ostream& stream() { return out_; }
  const std::string& path() const { return path_; }

  /// False as soon as the open or any write has failed.
  bool ok() const { return error_.empty() && (closed_ || out_.good()); }

  /// Flushes and closes, capturing any failure. Returns true when every
  /// byte made it out; idempotent.
  bool close();

  /// Human-readable description of the first failure ("" when none).
  const std::string& error() const { return error_; }

 private:
  void capture_error(const std::string& what);

  std::string path_;
  std::ofstream out_;
  std::string error_;
  bool closed_ = false;
};

/// A parsed flat JSON object (one JSONL record). Values are kept as raw
/// token text; typed accessors convert on demand. This deliberately covers
/// only what `RoundCollector::write_jsonl` emits — one-level objects with
/// string keys and number/string/bool values — rather than full JSON.
class JsonRecord {
 public:
  bool has(const std::string& key) const { return fields_.count(key) != 0; }

  /// Numeric field, or `def` when absent/non-numeric.
  double number(const std::string& key, double def = 0.0) const;
  std::uint64_t u64(const std::string& key, std::uint64_t def = 0) const;

  /// String field (quotes stripped), or `def` when absent.
  std::string text(const std::string& key, const std::string& def = "") const;

  std::map<std::string, std::string>& fields() { return fields_; }
  const std::map<std::string, std::string>& fields() const { return fields_; }

 private:
  std::map<std::string, std::string> fields_;  // key -> raw value token
};

/// Parses one `{"key":value,...}` line. Returns nullopt on malformed input
/// (including trailing garbage) — `tgcover stats` skips such lines loudly.
std::optional<JsonRecord> parse_jsonl_line(const std::string& line);

/// Handles one record of a JSONL stream and returns "" to keep it, or why
/// it was skipped ("skipping unknown record type 'x'"), which the reader
/// turns into that line's note. The record may be moved from.
using JsonlVisitor = std::function<std::string(JsonRecord& record)>;

/// What reading a JSONL sink found besides its records.
struct JsonlStream {
  /// The embedded `{"type":"manifest",...}` header every producer writes
  /// first.
  std::optional<JsonRecord> manifest;
  /// "path:line: what" for every line that is not a kept record — blank,
  /// unparseable (a killed run's truncated final line included) or skipped
  /// by the visitor — in file order.
  std::vector<std::string> notes;
  /// "cannot open 'path'" when the file could not be read; every other field
  /// is empty then.
  std::string error;
};

/// The one reader behind every stream loader (round log, profile, node
/// telemetry, quality, fleet, trace): streams `path` line by line and hands
/// every parseable line other than the manifest to `visit`, in file order,
/// without holding the file in memory (a lossy trace runs to gigabytes).
/// The loaders keep only their per-type dispatch in `visit`.
JsonlStream read_jsonl_stream(const std::string& path,
                              const JsonlVisitor& visit);

}  // namespace tgc::obs
