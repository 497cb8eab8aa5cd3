// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "net/http.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace grca::net {

namespace {

const std::string kEmpty;

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const std::string& HttpRequest::query_value(const std::string& key) const {
  auto it = query.find(key);
  return it == query.end() ? kEmpty : it->second;
}

const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string serialize(const HttpResponse& response, bool keep_alive,
                      bool head_only) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_text(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  if (!head_only) out += response.body;
  return out;
}

std::string url_decode(const std::string& text, bool form) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '%' && i + 2 < text.size()) {
      int hi = hex_digit(text[i + 1]);
      int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    if (form && c == '+') {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

bool HttpParser::feed(const char* data, std::size_t size) {
  if (errored_) return false;
  buffer_.append(data, size);
  parse_buffer();
  return !errored_;
}

HttpRequest HttpParser::next() {
  HttpRequest out = std::move(ready_[ready_front_]);
  ++ready_front_;
  if (ready_front_ == ready_.size()) {
    ready_.clear();
    ready_front_ = 0;
  }
  return out;
}

void HttpParser::fail(int status) noexcept {
  errored_ = true;
  error_status_ = status;
  buffer_.clear();
}

void HttpParser::parse_buffer() {
  for (;;) {
    if (in_body_) {
      if (buffer_.size() < body_needed_) return;
      current_.body = buffer_.substr(0, body_needed_);
      buffer_.erase(0, body_needed_);
      in_body_ = false;
      ready_.push_back(std::move(current_));
      current_ = HttpRequest{};
      continue;
    }
    std::size_t end = buffer_.find("\r\n\r\n");
    if (end == std::string::npos) {
      if (buffer_.size() > kMaxHeaderBytes) fail(431);
      return;
    }
    std::string head = buffer_.substr(0, end);
    buffer_.erase(0, end + 4);
    if (head.size() > kMaxHeaderBytes) {
      fail(431);
      return;
    }
    if (!parse_head(head)) return;  // fail() already recorded the status
    if (body_needed_ > 0) {
      if (body_needed_ > kMaxBodyBytes) {
        fail(413);
        return;
      }
      in_body_ = true;
      continue;
    }
    ready_.push_back(std::move(current_));
    current_ = HttpRequest{};
  }
}

bool HttpParser::parse_head(const std::string& head) {
  current_ = HttpRequest{};
  body_needed_ = 0;
  std::size_t line_end = head.find("\r\n");
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  std::vector<std::string> parts = util::split_ws(request_line);
  if (parts.size() != 3) {
    fail(400);
    return false;
  }
  current_.method = parts[0];
  current_.target = parts[1];
  const std::string& version = parts[2];
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    fail(400);
    return false;
  }
  bool http11 = version == "HTTP/1.1";

  // Split the target into path and query string.
  std::size_t qmark = current_.target.find('?');
  current_.path = url_decode(current_.target.substr(0, qmark), false);
  if (qmark != std::string::npos) {
    for (const std::string& pair :
         util::split(current_.target.substr(qmark + 1), '&')) {
      if (pair.empty()) continue;
      std::size_t eq = pair.find('=');
      std::string key = url_decode(pair.substr(0, eq), true);
      std::string value =
          eq == std::string::npos ? "" : url_decode(pair.substr(eq + 1), true);
      current_.query[std::move(key)] = std::move(value);
    }
  }

  // Header lines. Continuation folding is obsolete; a malformed line fails.
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next_pos = head.find("\r\n", pos);
    std::string line = head.substr(
        pos, next_pos == std::string::npos ? std::string::npos
                                           : next_pos - pos);
    pos = next_pos == std::string::npos ? head.size() : next_pos + 2;
    if (line.empty()) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      fail(400);
      return false;
    }
    std::string name = util::to_lower(util::trim(line.substr(0, colon)));
    std::string value(util::trim(line.substr(colon + 1)));
    current_.headers[std::move(name)] = std::move(value);
  }

  if (auto it = current_.headers.find("content-length");
      it != current_.headers.end()) {
    try {
      body_needed_ = util::to_number<std::size_t>(it->second,
                                                  "content-length");
    } catch (const std::exception&) {
      fail(400);
      return false;
    }
  }

  std::string connection;
  if (auto it = current_.headers.find("connection");
      it != current_.headers.end()) {
    connection = util::to_lower(it->second);
  }
  current_.keep_alive =
      http11 ? connection != "close" : connection == "keep-alive";
  return true;
}

}  // namespace grca::net
