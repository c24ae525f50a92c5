// 64-bit FNV-1a: the stable, dependency-free byte-string hash behind the
// Service's instance fingerprints.  Stability matters more than speed here —
// the fingerprint is computed at most once per InstanceHandle, on its first
// result-cache lookup, and keys cache entries for the handle's whole
// lifetime, so the function must never change across builds or platforms.
#pragma once

#include <cstdint>
#include <string_view>

namespace busytime::util {

inline constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/// FNV-1a over a byte string.
inline constexpr std::uint64_t fnv1a_64(
    std::string_view bytes, std::uint64_t seed = kFnv1a64Offset) noexcept {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

}  // namespace busytime::util
