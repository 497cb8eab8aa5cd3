// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/io.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/error.h"

#include <fcntl.h>
#include <unistd.h>

namespace grca::storage {

namespace {

[[noreturn]] void fail(const std::string& op,
                       const std::filesystem::path& path) {
  throw StorageError("storage: " + op + " " + path.string() + ": " +
                     std::strerror(errno));
}

}  // namespace

WritableFile::~WritableFile() {
  if (fd_ >= 0) ::close(fd_);
}

WritableFile::WritableFile(WritableFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

WritableFile& WritableFile::operator=(WritableFile&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = other.fd_;
  path_ = std::move(other.path_);
  other.fd_ = -1;
  return *this;
}

WritableFile WritableFile::open(const std::filesystem::path& path) {
  WritableFile f;
  f.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (f.fd_ < 0) fail("open", path);
  f.path_ = path;
  return f;
}

std::size_t WritableFile::write_at(std::uint64_t offset,
                                   std::span<const std::uint8_t> bytes) {
  std::size_t calls = 0;
  while (!bytes.empty()) {
    ssize_t n = ::pwrite(fd_, bytes.data(), bytes.size(),
                         static_cast<off_t>(offset));
    ++calls;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("write", path_);
    bytes = bytes.subspan(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return calls;
}

void WritableFile::truncate(std::uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    fail("truncate", path_);
  }
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw StorageError("storage: cannot read " + path.string());
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw StorageError("storage: short read on " + path.string());
  }
  return bytes;
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw StorageError("storage: cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw StorageError("storage: short write on " + path.string());
}

}  // namespace grca::storage
