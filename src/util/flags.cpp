#include "util/flags.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace busytime {

Flags::Flags(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

std::int64_t Flags::get_int_in(const std::string& name, std::int64_t fallback,
                               std::int64_t lo, std::int64_t hi) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < lo || value > hi)
    throw std::invalid_argument("--" + name + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "], got '" + text + "'");
  return value;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace busytime
