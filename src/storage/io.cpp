// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/io.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/error.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#define GRCA_HAVE_MMAP 1
#include <sys/mman.h>
#else
#define GRCA_HAVE_MMAP 0
#endif

namespace grca::storage {

namespace {

[[noreturn]] void fail(const std::string& op,
                       const std::filesystem::path& path) {
  throw StorageError("storage: " + op + " " + path.string() + ": " +
                     std::strerror(errno));
}

}  // namespace

MappedFile::~MappedFile() {
#if GRCA_HAVE_MMAP
  if (mapped_ && data_) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  if (!mapped_ && data_) data_ = fallback_.data();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
#if GRCA_HAVE_MMAP
  if (mapped_ && data_) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  if (!mapped_ && data_) data_ = fallback_.data();
  return *this;
}

MappedFile MappedFile::open(const std::filesystem::path& path) {
  MappedFile f;
#if GRCA_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("fstat", path);
  }
  f.size_ = static_cast<std::size_t>(st.st_size);
  if (f.size_ == 0) {
    ::close(fd);
    return f;
  }
  void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p != MAP_FAILED) {
    f.data_ = static_cast<const std::uint8_t*>(p);
    f.mapped_ = true;
    return f;
  }
#endif
  f.fallback_ = read_file(path);
  f.size_ = f.fallback_.size();
  f.data_ = f.fallback_.data();
  f.mapped_ = false;
  return f;
}

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
