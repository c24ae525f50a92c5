#include "api/solver_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>

#include "exec/thread_pool.hpp"

namespace busytime {

namespace {

/// Parses `value` as an option of member type T; domains are check()'s.
template <typename T>
T parse_value(const std::string& key, const std::string& value) {
  if (value.empty()) throw SpecError("option '" + key + "' needs a value");
  if constexpr (std::is_same<T, bool>::value) {
    if (value == "1" || value == "true") return true;
    if (value == "0" || value == "false") return false;
    throw SpecError("option '" + key + "': expected 0/1/true/false, got '" + value + "'");
  } else {
    const char* const begin = value.c_str();
    char* end = nullptr;
    errno = 0;
    T parsed{};
    bool in_range = true;
    if constexpr (std::is_floating_point<T>::value) {
      parsed = std::strtod(begin, &end);
      // Overflow yields inf, which check() rejects.  Underflow to zero
      // would turn a tiny deadline into "none"; a subnormal result is what
      // value_of prints for one, so it parses back.
      in_range = !(errno == ERANGE && parsed == 0);
    } else if constexpr (std::is_signed<T>::value) {
      const long long wide = std::strtoll(begin, &end, 10);
      in_range = errno != ERANGE && wide >= std::numeric_limits<T>::min() &&
                 wide <= std::numeric_limits<T>::max();
      parsed = static_cast<T>(wide);
    } else {
      parsed = std::strtoull(begin, &end, 10);
      in_range = errno != ERANGE;
    }
    if (end == begin) throw SpecError("option '" + key + "': '" + value + "' is not a number");
    if (!in_range) throw SpecError("option '" + key + "': '" + value + "' is out of range");
    if (end != begin + value.size())
      throw SpecError("option '" + key + "': trailing garbage in '" + value + "'");
    return parsed;
  }
}

template <typename T>
std::string render(T value) {
  if constexpr (std::is_same<T, bool>::value) {
    return value ? "1" : "0";
  } else if constexpr (std::is_floating_point<T>::value) {
    // Default ostream formatting switches to scientific notation for tiny
    // values (std::to_string would render 1e-7 as "0.000000", silently
    // turning a guaranteed-to-trip deadline into "no deadline" on reparse).
    // 15 digits keep the text short; the few values they do not carry
    // exactly (DBL_MAX would even round up to inf) take all 17.
    std::ostringstream text;
    text << std::setprecision(15) << value;
    if (std::strtod(text.str().c_str(), nullptr) != value) {
      text.str("");
      text << std::setprecision(17) << value;
    }
    return text.str();
  } else {
    return std::to_string(value);
  }
}

}  // namespace

void SolverOptions::check(const std::string& assigned) const {
  const auto fail = [](const char* key, const std::string& domain) {
    throw SpecError(std::string("option '") + key + "' must be " + domain);
  };
  if (g < (assigned == "g" ? 1 : 0)) fail("g", "an integer >= 1");
  if (budget < (assigned == "budget" ? 0 : -1)) fail("budget", ">= 0");
  if (epoch_length < 1) fail("epoch", ">= 1");
  if (max_batch < 1) fail("max_batch", "an integer >= 1");
  if (threads < 0 || threads > exec::kMaxThreads)
    fail("threads", "in [0, " + std::to_string(exec::kMaxThreads) + "]");
  // inf/nan would reach the deadline duration_cast as UB (and an
  // "infinite" deadline means no deadline, which is spelled 0).
  if (!std::isfinite(deadline_ms) || deadline_ms < 0)
    fail("deadline_ms", "a finite number >= 0");
}

void SolverOptions::set(const std::string& key, const std::string& value) {
  const std::string name = key == "epoch_length" ? "epoch" : key;
  SolverOptions next = *this;
  bool known = false;
  fields([&](const char* field, auto member) {
    if (name != field) return;
    next.*member = parse_value<std::decay_t<decltype(next.*member)>>(name, value);
    known = true;
  });
  if (!known) throw SpecError("unknown solver option '" + key + "'");
  next.check(name);
  *this = next;
}

std::vector<std::string> SolverOptions::non_default_keys() const {
  const SolverOptions defaults;
  std::vector<std::string> keys;
  fields([&](const char* key, auto member) {
    if (this->*member != defaults.*member) keys.push_back(key);
  });
  return keys;
}

std::string SolverOptions::value_of(const std::string& key) const {
  std::string text;
  fields([&](const char* field, auto member) {
    if (key == field) text = render(this->*member);
  });
  if (text.empty()) throw SpecError("unknown solver option '" + key + "'");
  return text;
}

SolverOptions SolverOptions::parse(const std::string& text) {
  SolverOptions options;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    if (item.empty()) throw SpecError("empty option in '" + text + "'");
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw SpecError("option '" + item + "' is not of the form key=value");
    options.set(item.substr(0, eq), item.substr(eq + 1));
    pos = end + 1;
  }
  return options;
}

SolverSpec SolverSpec::parse(const std::string& text) {
  SolverSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  spec.check();
  if (colon != std::string::npos)
    spec.options = SolverOptions::parse(text.substr(colon + 1));
  return spec;
}

void SolverSpec::check() const {
  if (name.empty()) throw SpecError("solver spec has an empty name");
  if (name.find(':') != std::string::npos)
    throw SpecError("solver name '" + name + "' holds the option separator ':'");
}

std::string SolverSpec::to_string() const {
  std::string opts;
  for (const std::string& key : options.non_default_keys())
    opts += (opts.empty() ? "" : ",") + key + "=" + options.value_of(key);
  return opts.empty() ? name : name + ":" + opts;
}

}  // namespace busytime
