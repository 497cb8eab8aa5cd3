// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Small string utilities used across the platform, chiefly by the syslog
// parsers, the rule DSL, and the data normalizer.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace grca::util {

/// Transparent string hash: lets a StringMap be searched with a
/// std::string_view or a C string without building a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// A std::string-keyed hash map with heterogeneous lookup.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on runs of whitespace; empty tokens are dropped.
std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text) noexcept;

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix) noexcept;
bool ends_with(std::string_view text, std::string_view suffix) noexcept;
bool contains(std::string_view text, std::string_view needle) noexcept;

/// Joins items with the given separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style double formatting with fixed decimals (for report tables).
std::string format_double(double v, int decimals);

}  // namespace grca::util
