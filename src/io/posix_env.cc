#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "io/aligned_read.h"
#include "io/env.h"
#include "obs/perf_context.h"

// The leaf Env doing real syscalls feeds both halves of the calling
// thread's IOStatsContext: call/byte counts (perf level >= kCounts) and
// syscall wall time (>= kCountsAndTime). Don't stack CountingEnv on top of
// this one — the call counts would double.

namespace monkeydb {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) return Status::NotFound(context);
  return Status::IoError(context + ": " + strerror(err));
}

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t file_size,
                        bool direct)
      : fname_(std::move(fname)),
        fd_(fd),
        file_size_(file_size),
        direct_(direct) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    PerfTimer timer(&GetIOStatsContext()->read_nanos);
    Status s = direct_ ? DirectRead(offset, n, result, scratch)
                       : BufferedRead(offset, n, result, scratch);
    if (s.ok() && PerfCountsEnabled()) {
      IOStatsContext* io = GetIOStatsContext();
      io->read_calls++;
      io->bytes_read += result->size();
    }
    return s;
  }

  // WILLNEED hints are advisory; past EOF the kernel just ignores the
  // range, so clamp to the file size. Callers hint each block once: scan
  // readahead claims a block per iterator generation before hinting it,
  // and MultiGet deduplicates its blocks before hinting them.
  void ReadAhead(uint64_t offset, size_t n) const override {
    // Direct mode bypasses the page cache; there is nothing to stage.
    if (direct_) return;
#ifdef POSIX_FADV_WILLNEED
    if (offset >= file_size_ || n == 0) return;
    const uint64_t avail = file_size_ - offset;
    ::posix_fadvise(fd_, static_cast<off_t>(offset),
                    static_cast<off_t>(n < avail ? n : avail),
                    POSIX_FADV_WILLNEED);
#else
    (void)offset;
    (void)n;
#endif
  }

 private:
  Status BufferedRead(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  // O_DIRECT read: fetch the smallest aligned window enclosing the range
  // into a bounce buffer, then copy the range out. Result is byte-identical
  // to a buffered read, including short reads at the tail.
  Status DirectRead(uint64_t offset, size_t n, Slice* result,
                    char* scratch) const {
    if (offset >= file_size_ || n == 0) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    const uint64_t astart = AlignDown(offset);
    uint64_t window = AlignUp(offset + n) - astart;
    if (astart + window > AlignUp(file_size_)) {
      window = AlignUp(file_size_) - astart;
    }
    AlignedBufferPtr buf = AllocAligned(static_cast<size_t>(window));
    if (buf == nullptr) {
      return Status::IoError("out of memory for aligned read");
    }
    size_t filled = 0;
    while (filled < window) {
      ssize_t r = ::pread(fd_, buf.get() + filled, window - filled,
                          static_cast<off_t>(astart + filled));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (r == 0) break;  // EOF.
      filled += static_cast<size_t>(r);
    }
    const uint64_t lead = offset - astart;
    const size_t avail = filled > lead ? filled - lead : 0;
    const size_t to_copy = n < avail ? n : avail;
    memcpy(scratch, buf.get() + lead, to_copy);
    *result = Slice(scratch, to_copy);
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  uint64_t file_size_;
  bool direct_;
};

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    PerfTimer timer(&GetIOStatsContext()->write_nanos);
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t w = ::write(fd_, p, left);
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += w;
      left -= static_cast<size_t>(w);
    }
    if (PerfCountsEnabled()) {
      IOStatsContext* io = GetIOStatsContext();
      io->write_calls++;
      io->bytes_written += data.size();
    }
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    PerfTimer timer(&GetIOStatsContext()->fsync_nanos);
    if (PerfCountsEnabled()) GetIOStatsContext()->fsync_calls++;
    if (::fsync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  PosixEnv() = default;
  explicit PosixEnv(const EnvOptions& options) : options_(options) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    bool direct = options_.use_direct_io;
    int flags = O_RDONLY;
#ifdef O_DIRECT
    if (direct) flags |= O_DIRECT;
#else
    direct = false;
#endif
    int fd = ::open(fname.c_str(), flags);
#ifdef O_DIRECT
    if (fd < 0 && direct && (errno == EINVAL || errno == EOPNOTSUPP)) {
      // Filesystem without O_DIRECT support (tmpfs and friends): degrade
      // to buffered reads for this file.
      direct = false;
      fd = ::open(fname.c_str(), O_RDONLY);
    }
#endif
    if (fd < 0) return PosixError(fname, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size), direct);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return PosixError(dir, errno);
    struct dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") result->push_back(name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) return PosixError(fname, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

 private:
  EnvOptions options_;
};

}  // namespace

Env* GetPosixEnv() {
  static PosixEnv* env = new PosixEnv;
  return env;
}

std::unique_ptr<Env> NewPosixEnv(const EnvOptions& options) {
  return std::make_unique<PosixEnv>(options);
}

}  // namespace monkeydb
