// Shared helpers for the golden-value tests: an FNV-1a hasher over the
// exact bytes of doubles and integers, and a reader for the committed
// reference tables under tests/data/.
//
// A table is plain text: blank lines and lines starting with '#' are
// skipped, every other line is whitespace-separated fields. The first
// `key_fields` fields form the lookup key (joined by single spaces); the
// rest are the values, kept as strings. Doubles are written as C99
// hex-floats ("%a") so they round-trip bit for bit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifndef AUTONCS_TEST_DATA_DIR
#error "AUTONCS_TEST_DATA_DIR must point at tests/data"
#endif

namespace autoncs::testing {

class Fnv1a {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::vector<double>& values) {
    for (double v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// FNV-1a of a vector of doubles, bit for bit.
inline std::uint64_t digest(const std::vector<double>& values) {
  Fnv1a h;
  h.add(values);
  return h.value();
}

/// 16 lowercase hex digits.
inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses a hex-float (or decimal) field.
inline double parse_double(const std::string& field) {
  return std::strtod(field.c_str(), nullptr);
}

inline std::uint64_t parse_u64(const std::string& field) {
  return std::strtoull(field.c_str(), nullptr, 10);
}

/// Reads tests/data/<name> into key -> value fields (see the file
/// comment). A missing file yields an empty table, so every lookup fails
/// with a readable message instead of a crash.
inline std::map<std::string, std::vector<std::string>> read_table(
    const std::string& name, std::size_t key_fields) {
  std::ifstream in(std::string(AUTONCS_TEST_DATA_DIR) + "/" + name);
  std::map<std::string, std::vector<std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.size() < key_fields) continue;
    std::string key;
    for (std::size_t k = 0; k < key_fields; ++k)
      key += (k == 0 ? "" : " ") + tokens[k];
    out[key].assign(tokens.begin() + static_cast<std::ptrdiff_t>(key_fields),
                    tokens.end());
  }
  return out;
}

}  // namespace autoncs::testing
