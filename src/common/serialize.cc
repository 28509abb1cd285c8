#include "common/serialize.h"

#include <cstdio>

#include "fault/fault_fs.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace mvp {

Status BinaryReader::ReadString(std::string* out) {
  std::uint64_t size = 0;
  MVP_RETURN_NOT_OK(Read<std::uint64_t>(&size));
  if (size > size_ - pos_) {
    return Status::Corruption("string length exceeds remaining buffer");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return Status::OK();
}

Status WriteFile(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  const std::size_t written = bytes.empty()
                                  ? 0
                                  : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// fsyncs the directory containing `path` so a just-performed rename in it
/// survives a crash. Best-effort: some filesystems reject directory fsync,
/// so error returns are ignored — but the syscalls still go through the
/// fault::fs seam (detail: the directory path) so crash drills can simulate
/// dying between the rename and the directory flush, and so the
/// tools/lint/ syscall-seam check holds repo-wide.
void SyncParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = fault::fs::Open(dir.c_str(), O_RDONLY, 0);
  if (fd < 0) return;
  fault::fs::Fsync(fd, dir.c_str());
  fault::fs::Close(fd, dir.c_str());
}

}  // namespace

Status WriteFileAtomic(const std::string& path,
                       std::span<const std::span<const std::uint8_t>> pieces) {
  // Every syscall goes through the fault::fs seam so tests can inject
  // ENOSPC, short writes, fsync failure, rename failure, or a crash at any
  // point of the commit (see docs/fault_injection.md).
  const std::string tmp = path + ".tmp";
  const int fd =
      fault::fs::Open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open for write: " + tmp);
  for (const std::span<const std::uint8_t> piece : pieces) {
    std::size_t written = 0;
    while (written < piece.size()) {
      const long n = fault::fs::Write(fd, piece.data() + written,
                                      piece.size() - written, tmp.c_str());
      if (n < 0) {
        fault::fs::Close(fd, tmp.c_str());
        fault::fs::Remove(tmp.c_str());
        return Status::IOError("write failed: " + tmp);
      }
      written += static_cast<std::size_t>(n);
    }
  }
  // Data must be on stable storage BEFORE the rename publishes the file;
  // otherwise a crash could leave a renamed-but-empty file.
  if (fault::fs::Fsync(fd, tmp.c_str()) != 0 ||
      fault::fs::Close(fd, tmp.c_str()) != 0) {
    fault::fs::Remove(tmp.c_str());
    return Status::IOError("fsync/close failed: " + tmp);
  }
  if (fault::fs::Rename(tmp.c_str(), path.c_str()) != 0) {
    fault::fs::Remove(tmp.c_str());
    return Status::IOError("rename failed: " + path);
  }
  SyncParentDirectory(path);
  return Status::OK();
}

#else  // no POSIX fsync: best-effort write + rename

Status WriteFileAtomic(const std::string& path,
                       std::span<const std::span<const std::uint8_t>> pieces) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + tmp);
  bool complete = true;
  for (const std::span<const std::uint8_t> piece : pieces) {
    if (!piece.empty() &&
        std::fwrite(piece.data(), 1, piece.size(), f) != piece.size()) {
      complete = false;
      break;
    }
  }
  if (std::fclose(f) != 0 || !complete) {
    std::remove(tmp.c_str());
    return Status::IOError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + path);
  }
  return Status::OK();
}

#endif

Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::span<const std::uint8_t> whole(bytes);
  return WriteFileAtomic(path, std::span(&whole, 1));
}

Result<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) return Status::IOError("read error: " + path);
  return bytes;
}

}  // namespace mvp
