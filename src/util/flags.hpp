// Minimal command-line flag parser for the example and benchmark binaries.
//
// Supports "--name=value", "--name value" and boolean "--name".  Unknown
// flags are reported; positional arguments are collected.  Deliberately tiny:
// the binaries are experiment drivers, not user-facing CLIs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace busytime {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// The integer flag `name`, or `fallback` when it is absent.  A value
  /// that is not a whole integer in [lo, hi] throws std::invalid_argument
  /// naming the flag and the range, so a size flag can neither go negative
  /// nor wrap when the caller narrows it.
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace busytime
