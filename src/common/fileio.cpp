#include "common/fileio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <sstream>

#include "common/faultinject.hpp"

namespace bepi {
namespace {

std::string ErrnoText() {
  std::ostringstream out;
  out << " (errno " << errno << ": " << std::strerror(errno) << ")";
  return out.str();
}

/// Directory part of `path` ("." when there is no separator), for the
/// directory fsync that makes the rename itself durable.
std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_WRONLY);
  if (fd < 0) {
    return Status::IoError("cannot open for fsync: " + path + ErrnoText());
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::IoError("fsync failed: " + path + ErrnoText());
  }
  return Status::Ok();
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    status_ = Status::IoError("cannot open for writing: " + tmp_path_ +
                              ErrnoText());
    finished_ = true;  // nothing to clean up
  }
}

AtomicFileWriter::~AtomicFileWriter() { Abort(); }

Status AtomicFileWriter::Commit() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Status::FailedPrecondition("AtomicFileWriter already finished: " +
                                      path_);
  }
  out_.flush();
  if (!out_) {
    Abort();
    return Status::IoError("flush failed writing " + tmp_path_ + ErrnoText());
  }
  out_.close();
  if (out_.fail()) {
    Abort();
    return Status::IoError("close failed writing " + tmp_path_ + ErrnoText());
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kFileShortWrite)) {
    // Simulated torn write: chop the tail off the temp file. Commit fails
    // and the target stays untouched, as with a real short write.
    ::truncate(tmp_path_.c_str(), 16);
    Abort();
    return Status::IoError("injected short write on " + tmp_path_);
  }
  Status fsync_status = FsyncPath(tmp_path_, /*directory=*/false);
  if (!fsync_status.ok()) {
    Abort();
    return fsync_status;
  }
  if (BEPI_FAULT_INJECTED(fault_sites::kFileCrashBeforeRename)) {
    // Simulated crash between fsync and rename: the temp file survives on
    // disk (as after a real crash) and the target is never replaced.
    finished_ = true;
    return Status::IoError("injected crash before rename of " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const Status rename_status = Status::IoError(
        "rename " + tmp_path_ + " -> " + path_ + " failed" + ErrnoText());
    Abort();
    return rename_status;
  }
  finished_ = true;
  // Persist the directory entry; without this the rename itself can be
  // lost on power failure even though both files were fsynced.
  return FsyncPath(DirName(path_), /*directory=*/true);
}

void AtomicFileWriter::Abort() {
  if (finished_) return;
  finished_ = true;
  if (out_.is_open()) out_.close();
  std::remove(tmp_path_.c_str());
}

AlignedBytes::~AlignedBytes() {
  if (mapped_) {
    ::munmap(data_, size_);
  } else {
    std::free(data_);
  }
}

Result<std::shared_ptr<const AlignedBytes>> MapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path + ErrnoText());
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError("stat failed: " + path + ErrnoText());
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode) || st.st_size == 0) {
    ::close(fd);
    return Status::IoError(std::string(S_ISREG(st.st_mode)
                                           ? "empty file: "
                                           : "not a regular file: ") +
                           path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                         fd, 0);
  const int saved_errno = errno;
  ::close(fd);  // the mapping keeps the file referenced
  if (mapping == MAP_FAILED) {
    errno = saved_errno;
    return Status::IoError("cannot map " + path + ErrnoText());
  }
  char* data = static_cast<char*>(mapping);
  if (BEPI_FAULT_INJECTED(fault_sites::kFileBitFlip)) {
    // Read-path corruption without touching the file: the written page
    // becomes a private copy (MAP_PRIVATE).
    const long page = ::sysconf(_SC_PAGESIZE);
    const std::size_t at = size / 2;
    char* page_start = data + at / static_cast<std::size_t>(page) *
                                  static_cast<std::size_t>(page);
    if (::mprotect(page_start, static_cast<std::size_t>(page),
                   PROT_READ | PROT_WRITE) == 0) {
      data[at] ^= 0x01;  // deterministic single-bit flip
      ::mprotect(page_start, static_cast<std::size_t>(page), PROT_READ);
    }
  }
  return std::shared_ptr<const AlignedBytes>(
      new AlignedBytes(data, size, /*mapped=*/true));
}

namespace {

/// An uninitialized buffer of `size` bytes on a 64-byte boundary, freed
/// with std::free.
char* AllocateAligned(std::size_t size) {
  // aligned_alloc wants a multiple of the alignment (and a nonzero size).
  const std::size_t rounded =
      (size / AlignedBytes::kAlignment + 1) * AlignedBytes::kAlignment;
  char* data =
      static_cast<char*>(std::aligned_alloc(AlignedBytes::kAlignment, rounded));
  if (data == nullptr) throw std::bad_alloc();
  return data;
}

}  // namespace

std::shared_ptr<const AlignedBytes> CopyAligned(std::string_view bytes) {
  char* data = AllocateAligned(bytes.size());
  if (!bytes.empty()) std::memcpy(data, bytes.data(), bytes.size());
  return std::shared_ptr<const AlignedBytes>(
      new AlignedBytes(data, bytes.size(), /*mapped=*/false));
}

Result<std::shared_ptr<const AlignedBytes>> ReadStreamAligned(
    std::istream& in) {
  const std::int64_t remaining = StreamRemainingBytes(in);
  if (remaining < 0) {
    // A pipe's length is known only at its end.
    BEPI_ASSIGN_OR_RETURN(const std::string content, ReadStreamToString(in));
    return CopyAligned(content);
  }
  const auto size = static_cast<std::size_t>(remaining);
  std::unique_ptr<AlignedBytes> bytes(
      new AlignedBytes(AllocateAligned(size), size, /*mapped=*/false));
  in.read(bytes->data_, static_cast<std::streamsize>(size));
  if (in.bad()) return Status::IoError("failed reading the stream");
  bytes->size_ = static_cast<std::size_t>(in.gcount());
  return std::shared_ptr<const AlignedBytes>(std::move(bytes));
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path + ErrnoText());
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError("stat failed: " + path + ErrnoText());
    ::close(fd);
    return status;
  }
  // One buffer sized by fstat and filled by read(2) straight from the page
  // cache. Bytes past that size (a pipe, a file that grew) are appended.
  std::string content(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t filled = 0;
  char chunk[1 << 16];
  for (;;) {
    const bool sized = filled < content.size();
    const ssize_t got =
        sized ? ::read(fd, content.data() + filled, content.size() - filled)
              : ::read(fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      const Status status =
          Status::IoError("read failed: " + path + ErrnoText());
      ::close(fd);
      return status;
    }
    if (got == 0) break;
    if (!sized) content.append(chunk, static_cast<std::size_t>(got));
    filled += static_cast<std::size_t>(got);
  }
  ::close(fd);
  content.resize(filled);
  if (!content.empty() && BEPI_FAULT_INJECTED(fault_sites::kFileBitFlip)) {
    content[content.size() / 2] ^= 0x01;  // deterministic single-bit flip
  }
  return content;
}

Result<std::string> ReadStreamToString(std::istream& in) {
  const std::int64_t remaining = StreamRemainingBytes(in);
  std::string content;
  if (remaining >= 0) {
    content.resize(static_cast<std::size_t>(remaining));
    in.read(content.data(), static_cast<std::streamsize>(remaining));
    content.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  if (in.bad()) return Status::IoError("failed reading the stream");
  return content;
}

std::int64_t StreamRemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) {
    in.clear();
    return -1;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || !in) {
    in.clear();
    in.seekg(pos);
    return -1;
  }
  return static_cast<std::int64_t>(end - pos);
}

}  // namespace bepi
