#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/fault.hpp"

namespace tv::util {
namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

}  // namespace

bool write_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view data,
                       std::string* error) {
  // The temp file must live in the destination directory: rename(2) is
  // atomic only within a filesystem, and the directory fsync below must
  // cover both the old and the new entry.
  std::string dir = ".";
  std::string base = path;
  if (auto slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = path.substr(0, slash);
    if (dir.empty()) dir = "/";
    base = path.substr(slash + 1);
  }
  // The temp name carries both the pid (no cross-process collisions) and a
  // process-wide counter (no collisions between two threads of one process
  // racing to replace the same path -- with a shared name, one thread's
  // rename could publish the other's half-written bytes).
  static std::atomic<unsigned long long> g_seq{0};
  std::string tmp = dir + "/." + base + ".tmp." + std::to_string(::getpid()) +
                    "." + std::to_string(g_seq.fetch_add(1, std::memory_order_relaxed));

  // Disk-pressure injection point (docs/serving.md): a planned io.write
  // fault behaves like ENOSPC -- the write fails cleanly before any bytes
  // land and the destination is left untouched.
  if (fault::should_fail("io.write")) {
    errno = ENOSPC;
    set_error(error, "cannot write " + path + " (injected io.write fault)");
    return false;
  }

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_error(error, "cannot create " + tmp);
    return false;
  }
  if (!write_all(fd, data)) {
    set_error(error, "cannot write " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // The data fsync is the crash-consistency contract: after rename, any
  // reader that sees the new name must see the new bytes.
  if (::fsync(fd) != 0) {
    set_error(error, "cannot fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    set_error(error, "cannot close " + tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "cannot rename " + tmp + " to " + path);
    ::unlink(tmp.c_str());
    return false;
  }
  // Persist the directory entry. The rename has already happened, so a
  // failure here (some filesystems reject directory fsync) degrades to
  // "durable at the filesystem's leisure" rather than undoing the write.
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace tv::util
