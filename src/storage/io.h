// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Low-level file plumbing for the persistent event store: a read-only
// memory-mapped file (the query path maps sealed segments and binary-
// searches them in place), the WAL's in-place writable file, and small
// whole-file read/write/rename helpers used by the writer and the
// compactor. POSIX mmap with a plain read() fallback, so the store also
// works on filesystems that refuse mappings — the format and the query
// results are identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace grca::storage {

/// A read-only view of one file, memory-mapped when possible. Move-only;
/// unmaps on destruction. The view stays valid and immutable for the
/// object's lifetime — callers hand out pointers into it (decoded event
/// strings are copied out, but frame headers are read in place).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Throws StorageError when the file cannot be
  /// opened or mapped (a zero-length file opens fine and yields an empty
  /// view).
  static MappedFile open(const std::filesystem::path& path);

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  /// True when the view is an actual mmap (false: fallback heap copy).
  bool mapped() const noexcept { return mapped_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  // owns the bytes when !mapped_
};

/// A file written in place at explicit offsets (the WAL). Move-only;
/// closes on destruction. There is no user-space buffer: bytes are on the
/// file when a call returns.
class WritableFile {
 public:
  WritableFile() = default;
  ~WritableFile();
  WritableFile(WritableFile&& other) noexcept;
  WritableFile& operator=(WritableFile&& other) noexcept;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  /// Opens `path` for writing, creating it when missing; never truncates.
  /// Throws StorageError on failure.
  static WritableFile open(const std::filesystem::path& path);

  /// Writes all of `bytes` at `offset` and returns how many write calls
  /// that took (one, unless the kernel wrote short). Throws StorageError.
  std::size_t write_at(std::uint64_t offset,
                       std::span<const std::uint8_t> bytes);

  /// Sets the file's size to `size`; throws StorageError on failure.
  void truncate(std::uint64_t size);

 private:
  int fd_ = -1;
  std::filesystem::path path_;
};

/// Reads a whole file; throws StorageError on failure.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Writes `bytes` to `path` (truncating); throws StorageError on failure.
void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes);

}  // namespace grca::storage
