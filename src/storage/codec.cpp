// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/codec.h"

#include <cstring>

#include "storage/crc32c.h"
#include "util/error.h"

namespace grca::storage {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  if (s.size() > kMaxFramePayload) {
    throw StorageError("storage: string too long to encode (" +
                       std::to_string(s.size()) + " bytes)");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_varint_signed(std::vector<std::uint8_t>& out, std::int64_t v) {
  // Zigzag: sign bit to the bottom so small magnitudes stay short.
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    need(1);
    std::uint8_t byte = bytes_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
  }
  throw StorageError("storage: varint longer than 10 bytes at offset " +
                     std::to_string(pos_));
}

std::int64_t ByteReader::varint_signed() {
  std::uint64_t z = varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void ByteReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw StorageError("storage: truncated record (need " + std::to_string(n) +
                       " bytes at offset " + std::to_string(pos_) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = static_cast<std::uint32_t>(bytes_[pos_]) |
                    static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16 |
                    static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t lo = u32();
  std::uint64_t hi = u32();
  return lo | hi << 32;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

std::string ByteReader::string() {
  std::uint32_t len = u32();
  if (len > kMaxFramePayload) {
    throw StorageError("storage: string length " + std::to_string(len) +
                       " out of bounds");
  }
  need(len);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return s;
}

namespace {

/// The location-type range the codec accepts; decode rejects anything
/// outside it so a corrupt type byte cannot smuggle through as a Location.
constexpr std::uint8_t kMaxLocationType =
    static_cast<std::uint8_t>(core::LocationType::kRouterPath);

}  // namespace

void encode_event(const core::EventInstance& e,
                  std::vector<std::uint8_t>& out) {
  put_string(out, e.name);
  put_i64(out, e.when.start);
  put_i64(out, e.when.end);
  out.push_back(static_cast<std::uint8_t>(e.where.type));
  put_string(out, e.where.a);
  put_string(out, e.where.b);
  put_string(out, e.where.c);
  put_u32(out, static_cast<std::uint32_t>(e.attrs.size()));
  for (const auto& [key, value] : e.attrs) {
    put_string(out, key);
    put_string(out, value);
  }
}

core::EventInstance decode_event(std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  core::EventInstance e;
  e.name = in.string();
  e.when.start = in.i64();
  e.when.end = in.i64();
  if (!e.when.valid()) {
    throw StorageError("storage: record ends before it starts");
  }
  std::uint8_t type = in.u8();
  if (type > kMaxLocationType) {
    throw StorageError("storage: unknown location type " +
                       std::to_string(type));
  }
  e.where.type = static_cast<core::LocationType>(type);
  e.where.a = in.string();
  e.where.b = in.string();
  e.where.c = in.string();
  std::uint32_t attrs = in.u32();
  for (std::uint32_t i = 0; i < attrs; ++i) {
    std::string key = in.string();
    std::string value = in.string();
    e.attrs.emplace(std::move(key), std::move(value));
  }
  if (in.remaining() != 0) {
    throw StorageError("storage: " + std::to_string(in.remaining()) +
                       " trailing bytes after record");
  }
  return e;
}

void encode_frame(const core::EventInstance& e,
                  std::vector<std::uint8_t>& out) {
  std::size_t header_at = out.size();
  out.resize(out.size() + kFrameHeaderBytes);
  std::size_t payload_at = out.size();
  encode_event(e, out);
  std::size_t payload_len = out.size() - payload_at;
  if (payload_len > kMaxFramePayload) {
    throw StorageError("storage: record too large to frame (" +
                       std::to_string(payload_len) + " bytes)");
  }
  std::uint32_t crc = crc32c(out.data() + payload_at, payload_len);
  std::uint8_t* h = out.data() + header_at;
  std::uint32_t len = static_cast<std::uint32_t>(payload_len);
  h[0] = static_cast<std::uint8_t>(len);
  h[1] = static_cast<std::uint8_t>(len >> 8);
  h[2] = static_cast<std::uint8_t>(len >> 16);
  h[3] = static_cast<std::uint8_t>(len >> 24);
  h[4] = static_cast<std::uint8_t>(crc);
  h[5] = static_cast<std::uint8_t>(crc >> 8);
  h[6] = static_cast<std::uint8_t>(crc >> 16);
  h[7] = static_cast<std::uint8_t>(crc >> 24);
}

std::optional<FrameView> probe_frame(
    std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.size() < kFrameHeaderBytes) return std::nullopt;
  std::uint32_t len = static_cast<std::uint32_t>(bytes[0]) |
                      static_cast<std::uint32_t>(bytes[1]) << 8 |
                      static_cast<std::uint32_t>(bytes[2]) << 16 |
                      static_cast<std::uint32_t>(bytes[3]) << 24;
  std::uint32_t crc = static_cast<std::uint32_t>(bytes[4]) |
                      static_cast<std::uint32_t>(bytes[5]) << 8 |
                      static_cast<std::uint32_t>(bytes[6]) << 16 |
                      static_cast<std::uint32_t>(bytes[7]) << 24;
  if (len > kMaxFramePayload) return std::nullopt;
  if (bytes.size() - kFrameHeaderBytes < len) return std::nullopt;
  std::span<const std::uint8_t> payload =
      bytes.subspan(kFrameHeaderBytes, len);
  if (crc32c(payload.data(), payload.size()) != crc) return std::nullopt;
  return FrameView{payload, kFrameHeaderBytes + len};
}

}  // namespace grca::storage
