// Checksummed section framing for durable on-disk artifacts (model format
// v8, preprocessing checkpoints). A framed file is
//
//   <magic>\n
//   %section <name> <length> <crc32c-hex><blanks>\n
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
// counted from the magic line. The blanks that close a header line pad it
// so the payload starts on a 64-byte file offset; a reader accepts only
// that exact padding, so a file has one encoding. The framing never looks
// inside a payload; PayloadWriter/PayloadReader below are the one encoding
// every payload uses (model format v8 and the preprocessing checkpoints
// alike): 8-byte little-endian fields and raw little-endian arrays, each
// array preceded by zero pad bytes up to the next 64-byte boundary of the
// payload, so a reader can use an array in place.
#ifndef BEPI_COMMON_SECTIONS_HPP_
#define BEPI_COMMON_SECTIONS_HPP_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace bepi {

/// Payloads, and each array in one, start at file offsets that are a
/// multiple of this.
inline constexpr std::size_t kPayloadAlignment = 64;

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

/// The section called `name` in `sections` (section name -> payload bytes,
/// as a loader collects them or CheckpointManager::Read returns them),
/// viewing the map's payload; DataLoss when there is none.
template <typename SectionMap>
Result<Section> FindSection(const SectionMap& sections,
                            const std::string& name) {
  const auto it = sections.find(name);
  if (it == sections.end()) {
    return Status::DataLoss("missing section '" + name + "'");
  }
  return Section{it->first, std::string_view(it->second)};
}

/// Builds a section payload from 8-byte fields and raw arrays. Every
/// array starts on a 64-byte boundary of the payload, after zero pad bytes.
class PayloadWriter {
 public:
  void U64(std::uint64_t v) { Append(&v, sizeof(v)); }
  void F64(double v) { Append(&v, sizeof(v)); }
  /// The length, then the bytes.
  void Text(std::string_view s);
  /// The `count` entries at `v` stored `width` bytes each (4 or 8); at
  /// width 4 every entry must fit in 32 bits.
  void Indices(const std::vector<index_t>& v, std::uint64_t width);
  void Indices(const index_t* v, std::size_t count, std::uint64_t width);
  void Indices(const std::uint32_t* v, std::size_t count, std::uint64_t width);
  /// The entry count and `width`, then Indices(v, width).
  void IndexArray(const std::vector<index_t>& v, std::uint64_t width);
  void Reals(const std::vector<real_t>& v);
  void Reals(const real_t* v, std::size_t count);
  /// `count` f32 values.
  void Floats(const float* v, std::size_t count);
  std::string& bytes() { return bytes_; }

 private:
  /// Zero bytes up to the next 64-byte boundary.
  void Align();
  void Append(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }

  std::string bytes_;
};

/// Decodes a section payload field by field. Every read is bounds-checked,
/// the pad before each array must be zero bytes, and an array's declared
/// count is checked against the bytes left before anything is allocated
/// for it or a view of it is handed out. The first problem sticks: later
/// reads return zeros, empty arrays and null views, and status()/Finish()
/// report it as an IoError naming the section.
class PayloadReader {
 public:
  /// Views `section`'s payload, which must outlive the reader.
  explicit PayloadReader(Section section) : section_(std::move(section)) {}

  std::uint64_t U64();
  double F64();
  std::string Text();
  std::vector<index_t> Indices(std::uint64_t count, std::uint64_t width);
  /// What PayloadWriter::IndexArray wrote.
  std::vector<index_t> IndexArray();
  /// `count` entries of `width` bytes used in place: the payload's own
  /// bytes, which must sit on a 64-byte boundary in memory (a mapped or
  /// aligned buffer). Null after an error.
  const void* BorrowArray(std::uint64_t count, std::uint64_t width);

  const Status& status() const { return status_; }
  /// status(), or an error when bytes are left unread.
  Status Finish();
  /// An IoError naming the section.
  Status Malformed(const std::string& what) const;

 private:
  void Fail(const std::string& what);
  /// Whether `count` entries of `width` bytes remain.
  bool Fits(std::uint64_t count, std::uint64_t width);
  void Read(void* out, std::size_t n);
  /// Steps over the zero pad before an array.
  void SkipPad();

  Section section_;
  std::size_t pos_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace bepi

#endif  // BEPI_COMMON_SECTIONS_HPP_
