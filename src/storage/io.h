// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Low-level file plumbing for the persistent event store: the WAL's
// in-place writable file and whole-file read/write helpers. Readers take a
// segment whole with read_file(): open decodes every byte of it once, so
// nothing is gained by mapping it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace grca::storage {

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
