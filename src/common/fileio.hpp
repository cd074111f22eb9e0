// Crash-consistent file IO. A plain `ofstream out(path)` leaves a silently
// truncated file at the final path when the process dies mid-write (and a
// failed close in the destructor is swallowed entirely); AtomicFileWriter
// closes that gap with the standard temp-file + fsync + rename + directory
// fsync protocol, so readers only ever observe the old file or the complete
// new one. Fault-injection sites (common/faultinject.hpp) cover short
// writes, crash-before-rename and bit-flip-on-read.
#ifndef BEPI_COMMON_FILEIO_HPP_
#define BEPI_COMMON_FILEIO_HPP_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace bepi {

/// Writes `path` atomically: content goes to `path.tmp.<pid>` in the same
/// directory, and Commit() flushes, fsyncs, renames over `path` and fsyncs
/// the directory. Destruction without Commit() (or after a failed Commit())
/// removes the temp file and leaves any existing `path` untouched.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Non-ok when the temp file could not be opened; check before writing.
  const Status& status() const { return status_; }

  /// The stream to write content to (valid only when status() is ok).
  std::ostream& stream() { return out_; }

  /// Flush + check + fsync + rename + fsync(dir). On failure the target is
  /// untouched and the error (with errno text) is returned.
  Status Commit();

  /// Discards the temp file without touching the target. Safe to call
  /// multiple times; implied by the destructor when not committed.
  void Abort();

  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  Status status_;
  bool finished_ = false;  // Commit succeeded or Abort ran
};

/// Read-only bytes whose first byte sits on a 64-byte boundary: a private
/// mapping of a file (MapFile) or an owned aligned copy (CopyAligned).
/// Views into the bytes (sparse/kernel.hpp KernelCsr) hold a shared handle
/// to this object to keep them alive, so a loaded model's arrays stay valid
/// as long as any view does — even after the file is renamed over or
/// unlinked, since the mapping keeps the old inode.
class AlignedBytes {
 public:
  static constexpr std::size_t kAlignment = 64;

  ~AlignedBytes();
  AlignedBytes(const AlignedBytes&) = delete;
  AlignedBytes& operator=(const AlignedBytes&) = delete;

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data_, size_}; }
  /// Whether the bytes are a file mapping (else an owned copy).
  bool mapped() const { return mapped_; }

 private:
  friend Result<std::shared_ptr<const AlignedBytes>> MapFile(
      const std::string& path);
  friend std::shared_ptr<const AlignedBytes> CopyAligned(
      std::string_view bytes);
  friend Result<std::shared_ptr<const AlignedBytes>> ReadStreamAligned(
      std::istream& in);
  AlignedBytes(char* data, std::size_t size, bool mapped)
      : data_(data), size_(size), mapped_(mapped) {}

  char* data_;
  std::size_t size_;
  bool mapped_;
};

/// Maps `path` read-only and private (open, fstat, mmap with
/// MAP_POPULATE, so the pages come in with the call rather than on first
/// touch). An empty file, a directory or an unmappable file is an IoError
/// naming the path. The fileio.bit_flip fault site, when armed, flips one
/// bit in a copy-on-write page of the mapping; the file stays untouched.
/// A mapped file must be replaced by rename, never rewritten in place:
/// rewriting or truncating it would change or fault the pages under every
/// reader.
Result<std::shared_ptr<const AlignedBytes>> MapFile(const std::string& path);

/// An owned copy of `bytes` starting on a 64-byte boundary.
std::shared_ptr<const AlignedBytes> CopyAligned(std::string_view bytes);

/// The rest of `in` as owned bytes starting on a 64-byte boundary: one
/// read into a buffer sized from the stream when it is seekable, else
/// through a string and CopyAligned.
Result<std::shared_ptr<const AlignedBytes>> ReadStreamAligned(
    std::istream& in);

/// Reads a whole file into a string with read(2) into one buffer sized by
/// fstat. The fileio.bit_flip fault site, when armed, flips one bit of the
/// returned content — the read-path corruption used to exercise checksum
/// verification end to end.
Result<std::string> ReadFileToString(const std::string& path);

/// The rest of `in` as one string (one read when the stream is seekable).
Result<std::string> ReadStreamToString(std::istream& in);

/// Bytes left between the current read position and end-of-stream, or -1
/// when the stream is not seekable. Used to sanity-cap claimed element
/// counts before allocating (allocation-bomb hardening).
std::int64_t StreamRemainingBytes(std::istream& in);

}  // namespace bepi

#endif  // BEPI_COMMON_FILEIO_HPP_
