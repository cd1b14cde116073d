// Crash-safe file replacement (docs/recovery.md).
//
// Every durable artifact this project writes -- compiled designs,
// fixpoint snapshots, run manifests, regenerated goldens -- goes through
// atomic_write_file: the bytes land in a temporary file *in the target
// directory* (rename(2) is only atomic within one filesystem), are
// fsync'd, renamed over the destination, and the directory entry itself
// is fsync'd. A reader therefore sees either the complete old file or
// the complete new file; a crash mid-write can never leave a torn or
// half-length artifact behind, only an orphaned `.tmp.*` sibling that
// the next successful write of the same path cleans up.
//
// read_file is the matching whole-file read every loader shares.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace tv::util {

/// Atomically replaces `path` with `data`. Returns false and sets
/// *error (when non-null) on any failure; the destination is left
/// untouched in that case. The fsync of the file is mandatory; a
/// failed directory fsync is reported but the rename has already
/// happened (the data is safe on any journaling filesystem).
bool atomic_write_file(const std::string& path, std::string_view data,
                       std::string* error = nullptr);

/// Writes all of `data` to `fd`, retrying short writes and EINTR. False on
/// any other write error (errno is left set).
bool write_all(int fd, std::string_view data);

/// Reads the whole file at `path`. nullopt when it cannot be opened or a
/// read fails; `*opened` (when non-null) tells the two apart.
std::optional<std::string> read_file(const std::string& path, bool* opened = nullptr);

}  // namespace tv::util
