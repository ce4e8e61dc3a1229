#include "util/flags.h"

#include <stdexcept>

namespace mpcg {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("flags: expected --key[=value], got '" +
                                  token + "'");
    }
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(2, eq - 2)] = token.substr(eq + 1);
      continue;
    }
    const std::string key = token.substr(2);
    // --key value (if the next token is not itself a flag), else bool.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Flags::get_string(const std::string& key,
                              const std::string& def) const {
  read_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flags: --" + key + " wants an integer, got '" +
                                it->second + "'");
  }
}

std::size_t Flags::get_count(const std::string& key, std::size_t def) const {
  const std::int64_t v = get_int(key, static_cast<std::int64_t>(def));
  if (v < 0) {
    throw std::invalid_argument("flags: --" + key +
                                " wants a non-negative integer, got '" +
                                values_.at(key) + "'");
  }
  return static_cast<std::size_t>(v);
}

double Flags::get_double(const std::string& key, double def) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flags: --" + key + " wants a number, got '" +
                                it->second + "'");
  }
}

bool Flags::get_bool(const std::string& key, bool def) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("flags: --" + key + " wants true/false, got '" +
                              it->second + "'");
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (read_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace mpcg
