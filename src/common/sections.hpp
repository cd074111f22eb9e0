// Checksummed section framing for durable on-disk artifacts (model format
// v4, preprocessing checkpoints). A framed file is
//
//   <magic>\n
//   %section <name> <length> <crc32c-hex>\n
//   <length payload bytes>\n
//   ...                                      (one block per section)
//   %manifest <count> <crc32c-hex-of-entry-lines>\n
//   %entry <name> <offset> <length> <crc32c-hex>\n   (count times)
//   %end\n
//
// Every section carries its byte length and CRC32C so a reader detects any
// single-byte corruption and names the damaged section; the trailing
// manifest (itself checksummed, closed by %end at the very end of the file)
// detects tail truncation and lets a verifier cross-check the section
// directory. Offsets are byte positions of the %section header line
// counted from the magic line. Payloads are opaque bytes: the framing
// never looks inside them, so text and raw binary arrays frame alike.
#ifndef BEPI_COMMON_SECTIONS_HPP_
#define BEPI_COMMON_SECTIONS_HPP_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace bepi {

/// One section as a reader returns it. `payload` views the buffer the
/// reader walks and is valid only while that buffer lives.
struct Section {
  std::string name;
  std::string_view payload;
  std::uint64_t offset = 0;  // of the %section header line
  std::uint32_t crc = 0;
};

/// What the manifest lists for one section.
struct SectionEntry {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

/// Streams a framed file out: magic first, then Add() per section, then
/// Finish() for the manifest. Works on any ostream (offsets are counted
/// internally, not via tellp).
class SectionWriter {
 public:
  SectionWriter(std::ostream& out, std::string_view magic);

  /// Writes one section block. Names must be non-empty and free of blanks
  /// and newlines (they are single tokens in the header line).
  Status Add(std::string_view name, std::string_view payload);

  /// Writes the manifest + end marker and flushes. Must be called last.
  Status Finish();

 private:
  std::ostream& out_;
  std::uint64_t offset_ = 0;
  std::vector<SectionEntry> entries_;
  bool finished_ = false;
};

/// Sequential reader over a framed file held in memory: verifies each
/// section's length and CRC as it is consumed and the manifest at the end.
/// Any integrity problem surfaces as a DataLoss status naming the section
/// and offset.
class SectionReader {
 public:
  /// Checks the magic line of `buffer`, which must outlive the reader and
  /// every Section it returns.
  static Result<SectionReader> Open(std::string_view buffer,
                                    std::string_view expected_magic);

  /// The next section, or nullopt once the trailing manifest has been
  /// reached and verified.
  Result<std::optional<Section>> Next();

  /// Convenience: the next section, which must have `expected_name`.
  Result<Section> Expect(std::string_view expected_name);

  /// True after Next() returned nullopt (manifest verified).
  bool done() const { return done_; }

 private:
  SectionReader(std::string_view buffer, std::uint64_t offset)
      : buffer_(buffer), offset_(offset) {}

  std::string_view buffer_;
  std::uint64_t offset_;
  std::vector<SectionEntry> seen_;
  bool done_ = false;
};

/// One section's verification verdict, for `bepi_cli verify-model`.
struct SectionCheck {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t stored_crc = 0;
  std::uint32_t actual_crc = 0;
  bool ok = false;
};

struct IntegrityReport {
  std::string magic;
  std::vector<SectionCheck> sections;
  bool manifest_ok = false;
  /// Ok when every section and the manifest verified; otherwise the first
  /// problem (checksum mismatches keep scanning, structural damage stops).
  Status overall;
};

/// Full-file fsck: scans every section, continuing past checksum
/// mismatches so the report covers the whole file. `magic_prefix` guards
/// against fsck-ing an unrelated file (e.g. "BEPI-").
IntegrityReport CheckIntegrity(std::string_view buffer,
                               std::string_view magic_prefix);
/// The same over the rest of a stream, read into memory first.
IntegrityReport CheckIntegrity(std::istream& in, std::string_view magic_prefix);

}  // namespace bepi

#endif  // BEPI_COMMON_SECTIONS_HPP_
