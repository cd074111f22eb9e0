#include "common/sections.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "common/checksum.hpp"
#include "common/fileio.hpp"

namespace bepi {
namespace {

static_assert(std::endian::native == std::endian::little,
              "section payloads store raw little-endian arrays");
static_assert(AlignedBytes::kAlignment % kPayloadAlignment == 0,
              "a loaded file's buffer keeps its arrays on their boundary");

constexpr std::string_view kSectionTag = "%section ";
constexpr std::string_view kManifestTag = "%manifest ";
constexpr std::string_view kEntryTag = "%entry ";
constexpr std::string_view kEndLine = "%end\n";

std::string HexCrc(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool ParseU64(std::string_view token, std::uint64_t* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool ParseHex32(std::string_view token, std::uint32_t* out) {
  if (token.empty() || token.size() > 8) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out, 16);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Splits a header line (after its tag) into exactly `want` blank-separated
/// tokens.
bool SplitFields(std::string_view text, std::string_view* tokens,
                 std::size_t want) {
  std::size_t found = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(' ', pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find(' ', start);
    if (end == std::string_view::npos) end = text.size();
    if (found == want) return false;
    tokens[found++] = text.substr(start, end - start);
    pos = end;
  }
  return found == want;
}

/// The line starting at `offset`, without its newline; nullopt when the
/// buffer ends before a newline does.
std::optional<std::string_view> LineAt(std::string_view buf,
                                       std::uint64_t offset) {
  if (offset > buf.size()) return std::nullopt;
  const std::size_t end = buf.find('\n', static_cast<std::size_t>(offset));
  if (end == std::string_view::npos) return std::nullopt;
  return buf.substr(static_cast<std::size_t>(offset),
                    end - static_cast<std::size_t>(offset));
}

/// Parses "<tag><name> [<offset>] <length> <crc>" (the offset only in
/// manifest entries).
bool ParseEntryLine(std::string_view line, std::string_view tag,
                    bool with_offset, SectionEntry* out) {
  if (line.substr(0, tag.size()) != tag) return false;
  std::string_view fields[4];
  const std::size_t want = with_offset ? 4 : 3;
  if (!SplitFields(line.substr(tag.size()), fields, want)) return false;
  if (with_offset && !ParseU64(fields[1], &out->offset)) return false;
  if (!ParseU64(fields[want - 2], &out->length) ||
      !ParseHex32(fields[want - 1], &out->crc)) {
    return false;
  }
  out->name = std::string(fields[0]);
  return true;
}

/// "<tag><name> [<offset> ]<length> <crc>\n" (the offset only in
/// manifest entries). Built with += (GCC 12 misreports `"lit" + string&&`
/// under -Werror=restrict).
std::string EntryLine(std::string_view tag, const SectionEntry& e,
                      bool with_offset) {
  std::string line(tag);
  line += e.name;
  line += ' ';
  if (with_offset) {
    line += std::to_string(e.offset);
    line += ' ';
  }
  line += std::to_string(e.length);
  line += ' ';
  line += HexCrc(e.crc);
  line += '\n';
  return line;
}

/// The section header line for `entry` at file offset `offset`: the
/// entry line with blanks before its newline up to the next multiple of
/// kPayloadAlignment, so the payload after it starts on that boundary.
std::string SectionHeader(const SectionEntry& entry, std::uint64_t offset) {
  std::string header = EntryLine(kSectionTag, entry, false);
  const std::uint64_t end = offset + header.size();
  header.insert(header.size() - 1,
                (kPayloadAlignment - end % kPayloadAlignment) %
                    kPayloadAlignment,
                ' ');
  return header;
}

/// The section block at `offset` — header line, payload, newline — with
/// `*next` set past it. The payload's CRC is not checked here; every error
/// is structural damage (DataLoss).
Result<Section> SectionAt(std::string_view buf, std::uint64_t offset,
                          std::uint64_t* next) {
  const std::optional<std::string_view> line = LineAt(buf, offset);
  SectionEntry header;
  if (!line.has_value() || !ParseEntryLine(*line, kSectionTag, false, &header)) {
    return Status::DataLoss("malformed section header at offset " +
                            std::to_string(offset) + ": " +
                            std::string(line.value_or("<truncated>").substr(
                                0, 64)));
  }
  // One encoding: the header is exactly what SectionWriter writes, so the
  // payload starts on its boundary and nothing else can vary.
  const std::string canonical = SectionHeader(header, offset);
  if (std::string_view(canonical).substr(0, canonical.size() - 1) != *line) {
    return Status::DataLoss("section '" + header.name + "' at offset " +
                            std::to_string(offset) +
                            ": payload off its 64-byte boundary (header is "
                            "not in canonical padded form)");
  }
  const std::uint64_t start = offset + line->size() + 1;
  // `start <= buf.size()` holds (the header's newline is in the buffer), so
  // the subtraction cannot wrap and the claimed length is checked against
  // the bytes that actually follow before anything else uses it.
  if (header.length >= buf.size() - start ||
      buf[static_cast<std::size_t>(start + header.length)] != '\n') {
    return Status::DataLoss("section '" + header.name + "' at offset " +
                            std::to_string(offset) + " claims " +
                            std::to_string(header.length) +
                            " bytes and is truncated");
  }
  Section section;
  section.name = std::move(header.name);
  section.payload = buf.substr(static_cast<std::size_t>(start),
                               static_cast<std::size_t>(header.length));
  section.offset = offset;
  section.crc = header.crc;
  *next = start + header.length + 1;
  return section;
}

/// Verifies the manifest block at `offset`: its own checksum, its entries
/// against the sections scanned before it, and the end marker closing the
/// buffer.
Status VerifyManifestAt(std::string_view buf, std::uint64_t offset,
                        const std::vector<SectionEntry>& seen) {
  const std::optional<std::string_view> line = LineAt(buf, offset);
  std::string_view fields[2];
  std::uint64_t count = 0;
  std::uint32_t manifest_crc = 0;
  if (!line.has_value() ||
      line->substr(0, kManifestTag.size()) != kManifestTag ||
      !SplitFields(line->substr(kManifestTag.size()), fields, 2) ||
      !ParseU64(fields[0], &count) || !ParseHex32(fields[1], &manifest_crc)) {
    return Status::DataLoss("malformed manifest header at offset " +
                            std::to_string(offset));
  }
  if (count != seen.size()) {
    return Status::DataLoss("manifest lists " + std::to_string(count) +
                            " sections but the stream holds " +
                            std::to_string(seen.size()));
  }
  const std::uint64_t entries_start = offset + line->size() + 1;
  std::uint64_t pos = entries_start;
  std::vector<SectionEntry> entries(seen.size());
  for (SectionEntry& parsed : entries) {
    const std::optional<std::string_view> entry = LineAt(buf, pos);
    if (!entry.has_value() ||
        !ParseEntryLine(*entry, kEntryTag, true, &parsed)) {
      return Status::DataLoss("truncated or malformed manifest entry at "
                              "offset " + std::to_string(pos));
    }
    pos += entry->size() + 1;
  }
  if (Crc32c::Compute(buf.substr(static_cast<std::size_t>(entries_start),
                                 static_cast<std::size_t>(
                                     pos - entries_start))) != manifest_crc) {
    return Status::DataLoss("manifest checksum mismatch at offset " +
                            std::to_string(offset));
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const SectionEntry& a = entries[i];
    const SectionEntry& b = seen[i];
    if (a.name != b.name || a.offset != b.offset || a.length != b.length ||
        a.crc != b.crc) {
      return Status::DataLoss("manifest disagrees with section '" + b.name +
                              "' at offset " + std::to_string(b.offset));
    }
  }
  if (buf.substr(static_cast<std::size_t>(pos)) != kEndLine) {
    return Status::DataLoss("missing end marker after manifest");
  }
  return Status::Ok();
}

/// Appends the `count` entries at `v` to `out`, `width` bytes each (4 or
/// 8), narrowing or widening when the stored width differs from T's.
template <typename T>
void AppendIndices(const T* v, std::size_t count, std::uint64_t width,
                   std::string* out) {
  if (width == sizeof(T)) {
    out->append(reinterpret_cast<const char*>(v), count * sizeof(T));
    return;
  }
  const std::size_t at = out->size();
  out->resize(at + count * width);
  char* dst = out->data() + at;
  for (std::size_t i = 0; i < count; ++i) {
    if (width == sizeof(std::uint32_t)) {
      const auto entry = static_cast<std::uint32_t>(v[i]);
      std::memcpy(dst + i * sizeof(entry), &entry, sizeof(entry));
    } else {
      const auto entry = static_cast<index_t>(v[i]);
      std::memcpy(dst + i * sizeof(entry), &entry, sizeof(entry));
    }
  }
}

}  // namespace

SectionWriter::SectionWriter(std::ostream& out, std::string_view magic)
    : out_(out) {
  out_ << magic << "\n";
  offset_ = magic.size() + 1;
}

Status SectionWriter::Add(std::string_view name, std::string_view payload) {
  if (finished_) {
    return Status::FailedPrecondition("SectionWriter already finished");
  }
  if (name.empty() || name.find_first_of(" \t\n") != std::string_view::npos) {
    return Status::InvalidArgument("bad section name: '" + std::string(name) +
                                   "'");
  }
  SectionEntry entry{std::string(name), offset_, payload.size(),
                     Crc32c::Compute(payload)};
  const std::string header = SectionHeader(entry, offset_);
  out_ << header;
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_ << "\n";
  offset_ += header.size() + payload.size() + 1;
  entries_.push_back(std::move(entry));
  if (!out_) {
    return Status::IoError("failed writing section '" + std::string(name) +
                           "'");
  }
  return Status::Ok();
}

Status SectionWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("SectionWriter already finished");
  }
  finished_ = true;
  std::string entry_lines;
  for (const SectionEntry& e : entries_) {
    entry_lines += EntryLine(kEntryTag, e, true);
  }
  out_ << kManifestTag << entries_.size() << " "
       << HexCrc(Crc32c::Compute(entry_lines)) << "\n"
       << entry_lines << kEndLine;
  out_.flush();
  if (!out_) return Status::IoError("failed writing section manifest");
  return Status::Ok();
}

Result<SectionReader> SectionReader::Open(std::string_view buffer,
                                          std::string_view expected_magic) {
  const std::string_view magic = LineAt(buffer, 0).value_or(buffer);
  if (magic != expected_magic) {
    return Status::IoError("bad magic: expected '" +
                           std::string(expected_magic) + "', got '" +
                           std::string(magic.substr(0, 64)) + "'");
  }
  return SectionReader(buffer, magic.size() + 1);
}

Result<std::optional<Section>> SectionReader::Next() {
  if (done_) return std::optional<Section>();
  const std::optional<std::string_view> line = LineAt(buffer_, offset_);
  if (!line.has_value()) {
    return Status::DataLoss(
        "truncated stream at offset " + std::to_string(offset_) +
        ": section header or manifest missing");
  }
  if (line->substr(0, kManifestTag.size()) == kManifestTag) {
    BEPI_RETURN_IF_ERROR(VerifyManifestAt(buffer_, offset_, seen_));
    done_ = true;
    return std::optional<Section>();
  }
  BEPI_ASSIGN_OR_RETURN(Section section, SectionAt(buffer_, offset_, &offset_));
  const std::uint32_t actual = Crc32c::Compute(section.payload);
  if (actual != section.crc) {
    return Status::DataLoss("section '" + section.name + "' at offset " +
                            std::to_string(section.offset) +
                            " failed its checksum: stored " +
                            HexCrc(section.crc) + ", computed " +
                            HexCrc(actual));
  }
  seen_.push_back(
      {section.name, section.offset, section.payload.size(), section.crc});
  return std::optional<Section>(std::move(section));
}

Result<Section> SectionReader::Expect(std::string_view expected_name) {
  BEPI_ASSIGN_OR_RETURN(std::optional<Section> section, Next());
  if (!section.has_value()) {
    return Status::DataLoss("missing section '" + std::string(expected_name) +
                            "': stream ended early");
  }
  if (section->name != expected_name) {
    return Status::DataLoss("expected section '" + std::string(expected_name) +
                            "', found '" + section->name + "' at offset " +
                            std::to_string(section->offset));
  }
  return std::move(*section);
}

IntegrityReport CheckIntegrity(std::string_view buffer,
                               std::string_view magic_prefix) {
  IntegrityReport report;
  report.overall = Status::Ok();
  const std::optional<std::string_view> magic = LineAt(buffer, 0);
  if (!magic.has_value() ||
      magic->substr(0, magic_prefix.size()) != magic_prefix) {
    report.overall = Status::IoError(
        "bad magic: expected a '" + std::string(magic_prefix) +
        "...' file, got '" +
        std::string(magic.value_or(buffer).substr(0, 64)) + "'");
    return report;
  }
  report.magic = std::string(*magic);

  auto note = [&report](Status problem) {
    if (report.overall.ok()) report.overall = std::move(problem);
  };
  std::vector<SectionEntry> seen;
  std::uint64_t offset = magic->size() + 1;
  for (;;) {
    const std::optional<std::string_view> line = LineAt(buffer, offset);
    if (!line.has_value()) {
      note(Status::DataLoss("truncated stream: manifest missing"));
      return report;
    }
    if (line->substr(0, kManifestTag.size()) == kManifestTag) {
      const Status manifest = VerifyManifestAt(buffer, offset, seen);
      report.manifest_ok = manifest.ok();
      if (!manifest.ok()) note(manifest);
      return report;
    }
    const std::uint64_t header_offset = offset;
    Result<Section> section = SectionAt(buffer, offset, &offset);
    if (!section.ok()) {
      // Keep a row for a section whose header parsed but whose payload is
      // cut short, so the fsck table shows where the damage starts.
      SectionEntry header;
      if (ParseEntryLine(*line, kSectionTag, false, &header)) {
        report.sections.push_back(
            {header.name, header_offset, header.length, header.crc, 0, false});
      }
      note(section.status());
      return report;
    }
    SectionCheck check;
    check.name = section->name;
    check.offset = section->offset;
    check.length = section->payload.size();
    check.stored_crc = section->crc;
    check.actual_crc = Crc32c::Compute(section->payload);
    check.ok = check.actual_crc == check.stored_crc;
    if (!check.ok) {
      note(Status::DataLoss("section '" + check.name + "' at offset " +
                            std::to_string(check.offset) +
                            " failed its checksum"));
    }
    seen.push_back({check.name, check.offset, check.length, check.stored_crc});
    report.sections.push_back(std::move(check));
  }
}

IntegrityReport CheckIntegrity(std::istream& in,
                               std::string_view magic_prefix) {
  Result<std::string> buffer = ReadStreamToString(in);
  if (!buffer.ok()) {
    IntegrityReport report;
    report.overall = buffer.status();
    return report;
  }
  return CheckIntegrity(std::string_view(*buffer), magic_prefix);
}

void PayloadWriter::Text(std::string_view s) {
  U64(s.size());
  Append(s.data(), s.size());
}

void PayloadWriter::Align() {
  bytes_.append((kPayloadAlignment - bytes_.size() % kPayloadAlignment) %
                    kPayloadAlignment,
                '\0');
}

void PayloadWriter::Indices(const std::vector<index_t>& v,
                            std::uint64_t width) {
  Indices(v.data(), v.size(), width);
}

void PayloadWriter::Indices(const index_t* v, std::size_t count,
                            std::uint64_t width) {
  Align();
  AppendIndices(v, count, width, &bytes_);
}

void PayloadWriter::Indices(const std::uint32_t* v, std::size_t count,
                            std::uint64_t width) {
  Align();
  AppendIndices(v, count, width, &bytes_);
}

void PayloadWriter::IndexArray(const std::vector<index_t>& v,
                               std::uint64_t width) {
  U64(v.size());
  U64(width);
  Indices(v, width);
}

void PayloadWriter::Reals(const real_t* v, std::size_t count) {
  Align();
  Append(v, count * sizeof(real_t));
}

void PayloadWriter::Reals(const std::vector<real_t>& v) {
  Reals(v.data(), v.size());
}

void PayloadWriter::Floats(const float* v, std::size_t count) {
  Align();
  Append(v, count * sizeof(float));
}

std::uint64_t PayloadReader::U64() {
  std::uint64_t v = 0;
  Read(&v, sizeof(v));
  return v;
}

double PayloadReader::F64() {
  double v = 0.0;
  Read(&v, sizeof(v));
  return v;
}

std::string PayloadReader::Text() {
  const std::uint64_t size = U64();
  if (!Fits(size, 1)) return {};
  std::string s(section_.payload.substr(pos_, static_cast<std::size_t>(size)));
  pos_ += s.size();
  return s;
}

std::vector<index_t> PayloadReader::Indices(std::uint64_t count,
                                            std::uint64_t width) {
  std::vector<index_t> v;
  if (width != sizeof(std::uint32_t) && width != sizeof(index_t)) {
    Fail("index width " + std::to_string(width));
  }
  SkipPad();
  if (!Fits(count, width)) return v;
  v.resize(static_cast<std::size_t>(count));
  const char* in = section_.payload.data() + pos_;
  if (width == sizeof(index_t)) {
    if (!v.empty()) std::memcpy(v.data(), in, v.size() * sizeof(index_t));
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::uint32_t narrow = 0;
      std::memcpy(&narrow, in + i * sizeof(narrow), sizeof(narrow));
      v[i] = narrow;
    }
  }
  pos_ += v.size() * width;
  return v;
}

std::vector<index_t> PayloadReader::IndexArray() {
  const std::uint64_t count = U64(), width = U64();
  return Indices(count, width);
}

const void* PayloadReader::BorrowArray(std::uint64_t count,
                                       std::uint64_t width) {
  SkipPad();
  if (!Fits(count, width)) return nullptr;
  const char* at = section_.payload.data() + pos_;
  if (reinterpret_cast<std::uintptr_t>(at) % kPayloadAlignment != 0) {
    Fail("array at payload offset " + std::to_string(pos_) +
         " is off its 64-byte boundary in memory");
    return nullptr;
  }
  pos_ += static_cast<std::size_t>(count * width);
  return at;
}

void PayloadReader::SkipPad() {
  if (!status_.ok()) return;
  const std::size_t pad =
      (kPayloadAlignment - pos_ % kPayloadAlignment) % kPayloadAlignment;
  if (pad > section_.payload.size() - pos_) {
    Fail("truncated before the pad at payload offset " + std::to_string(pos_));
    return;
  }
  for (std::size_t i = 0; i < pad; ++i) {
    if (section_.payload[pos_ + i] != '\0') {
      Fail("nonzero pad byte at payload offset " + std::to_string(pos_ + i));
      return;
    }
  }
  pos_ += pad;
}

Status PayloadReader::Finish() {
  if (pos_ != section_.payload.size()) {
    Fail(std::to_string(section_.payload.size() - pos_) + " trailing bytes");
  }
  return status_;
}

Status PayloadReader::Malformed(const std::string& what) const {
  return Status::IoError("malformed section '" + section_.name + "': " + what);
}

void PayloadReader::Fail(const std::string& what) {
  if (status_.ok()) status_ = Malformed(what);
}

bool PayloadReader::Fits(std::uint64_t count, std::uint64_t width) {
  if (!status_.ok()) return false;
  // Division, so a hostile count cannot overflow the product.
  const std::uint64_t left = section_.payload.size() - pos_;
  if (count > left / width) {
    Fail("claims " + std::to_string(count) + " entries of " +
         std::to_string(width) + " bytes but only " + std::to_string(left) +
         " bytes remain");
    return false;
  }
  return true;
}

void PayloadReader::Read(void* out, std::size_t n) {
  if (!Fits(1, n)) return;
  std::memcpy(out, section_.payload.data() + pos_, n);
  pos_ += n;
}

}  // namespace bepi
