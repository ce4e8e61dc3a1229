// Minimal command-line flag parsing for the tools/ binaries.
//
// Syntax: --key=value or --key value; bare --key is the boolean true.
// Unknown keys are collected so tools can reject typos explicitly.
#ifndef MPCG_UTIL_FLAGS_H
#define MPCG_UTIL_FLAGS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpcg {

class Flags {
 public:
  /// Parses argv (skipping argv[0]). Throws std::invalid_argument on
  /// malformed tokens (anything not starting with "--").
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value does not parse.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  /// get_int for counts and sizes: a negative value also throws, instead
  /// of wrapping to a huge std::size_t.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// Keys that were provided but never read by any getter — typo guard.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace mpcg

#endif  // MPCG_UTIL_FLAGS_H
