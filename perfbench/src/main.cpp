// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// grca_perfbench — the end-to-end benchmark harness (perfbench/run.py builds
// and calls it; see perfbench/README.md).
//
//   grca_perfbench generate --workload W --seed N --out DIR
//   grca_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --data DIR --work DIR --out FILE [--spans FILE]
//                      [--commit REV] [--source-hash HASH]
//
// `run` prints one "name value unit" line per metric, writes the full result
// (environment stamp, input fingerprint, metrics, gate failures) as JSON to
// --out, writes traced spans as JSONL to --spans, and prints the one-line
// result object last. Exit status: 0 when every correctness gate passed, 1
// when one failed, 2 on a usage or input error (no result line then).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace fs = std::filesystem;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "grca_perfbench: " << why << "\n"
            << "usage: grca_perfbench generate --workload W --seed N "
               "--out DIR\n"
               "       grca_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR --work DIR --out FILE [--spans FILE] "
               "[--commit REV] [--source-hash HASH]\n";
  std::exit(2);
}

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string need(const std::map<std::string, std::string>& args,
                 const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) usage("missing --" + key);
  return it->second;
}

std::string opt(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// A number as measured, with all its digits; non-finite values become 0.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---- Input fingerprint ------------------------------------------------------

/// FNV-1a 64 over a file's bytes, continued from `h`.
std::uint64_t fnv1a(const fs::path& file, std::uint64_t h) {
  std::ifstream in(file, std::ios::binary);
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

std::string hex(std::uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(v));
  return out;
}

std::size_t data_lines(const fs::path& file) {
  std::ifstream in(file);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') ++n;
  }
  return n;
}

/// Seed, record and truth counts, and checksums of records.tsv and of the
/// configs plus inventory: a simulator change shows as different inputs.
std::map<std::string, std::string> fingerprint(const fs::path& data,
                                               std::uint64_t seed) {
  std::vector<fs::path> configs;
  for (const auto& e : fs::directory_iterator(data / "configs")) {
    configs.push_back(e.path());
  }
  std::sort(configs.begin(), configs.end());
  std::uint64_t config_hash = kFnvBasis;
  for (const fs::path& p : configs) config_hash = fnv1a(p, config_hash);
  config_hash = fnv1a(data / "inventory.txt", config_hash);
  return {
      {"seed", std::to_string(seed)},
      {"records", std::to_string(data_lines(data / "records.tsv"))},
      {"truth", std::to_string(data_lines(data / "truth.tsv"))},
      {"configs", std::to_string(configs.size())},
      {"records_fnv1a64", quote(hex(fnv1a(data / "records.tsv", kFnvBasis)))},
      {"configs_fnv1a64", quote(hex(config_hash))},
  };
}

std::string json_object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ", ";
    out += quote(k) + ": " + v;
  }
  return out + "}";
}

int cmd_generate(const std::map<std::string, std::string>& args) {
  std::string workload = need(args, "workload");
  std::uint64_t seed = std::stoull(need(args, "seed"));
  fs::path out = need(args, "out");
  perfbench::generate(workload, seed, out);
  std::cout << "generated " << workload << " seed " << seed << " under "
            << out.string() << "\n";
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& args) {
  perfbench::RunOptions o;
  o.workload = need(args, "workload");
  o.seed = std::stoull(need(args, "seed"));
  o.seconds = std::stod(need(args, "seconds"));
  o.trace = need(args, "trace") == "1";
  o.data = need(args, "data");
  o.work = need(args, "work");
  const fs::path out_file = need(args, "out");

  const auto print = fingerprint(o.data, o.seed);
  const std::map<std::string, std::string> stamp = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", quote(PERFBENCH_BUILD_TYPE)},
      {"compiler", quote(PERFBENCH_COMPILER)},
      {"flags", quote(PERFBENCH_FLAGS)},
      {"commit", quote(opt(args, "commit", "unknown"))},
      {"source_hash", quote(opt(args, "source-hash", "unknown"))},
      {"diagnosis_threads", "4"},
      {"load_threads", "1"},
      {"stream_workers", "1"},
  };
  std::cout << "workload " << o.workload << " (trace " << o.trace
            << "), inputs " << json_object(print) << "\n"
            << "environment " << json_object(stamp) << "\n";

  perfbench::RunResult r = perfbench::run(o);
  const bool correct = r.gate_failures.empty();

  std::map<std::string, std::string> metrics;
  for (const auto& [name, m] : r.metrics) {
    std::cout << "  " << name << " = " << num(m.value) << " " << m.unit
              << "\n";
    metrics[name] = json_object({{"value", num(m.value)},
                                 {"unit", quote(m.unit)}});
  }
  std::map<std::string, std::string> details;
  for (const auto& [name, v] : r.details) {
    std::cout << "  (detail) " << name << " = " << num(v) << "\n";
    details[name] = num(v);
  }
  std::string gates = "[";
  for (const std::string& g : r.gate_failures) {
    std::cout << "GATE FAILED: " << g << "\n";
    gates += (gates.size() > 1 ? ", " : "") + quote(g);
  }
  gates += "]";
  std::string no_verdict = "[";
  for (const std::string& v : r.no_verdict) {
    std::cout << "NO VERDICT: " << v << "\n";
    no_verdict += (no_verdict.size() > 1 ? ", " : "") + quote(v);
  }
  no_verdict += "]";

  const std::string line = json_object({
      {"correct", correct ? "true" : "false"},
      {"attempted", std::to_string(r.attempted)},
      {"failed", std::to_string(r.failed)},
      {"metrics", json_object(metrics)},
  });
  {
    std::ofstream out(out_file);
    out << json_object({{"workload", quote(o.workload)},
                        {"trace", o.trace ? "1" : "0"},
                        {"seconds", num(o.seconds)},
                        {"inputs", json_object(print)},
                        {"environment", json_object(stamp)},
                        {"details", json_object(details)},
                        {"gate_failures", gates},
                        {"no_verdict", no_verdict},
                        {"result", line}})
        << "\n";
  }
  if (auto it = args.find("spans"); it != args.end() && o.trace) {
    std::ofstream spans(it->second);
    r.spans.write_jsonl(spans);
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  std::string command = argv[1];
  try {
    auto args = parse(argc, argv);
    if (command == "generate") return cmd_generate(args);
    if (command == "run") return cmd_run(args);
  } catch (const std::exception& e) {
    std::cerr << "grca_perfbench: " << e.what() << "\n";
    return 2;
  }
  usage("unknown command " + command);
}
