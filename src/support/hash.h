#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace jsceres {

inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a over a byte view. Frame-log checksums, canvas checksums
/// and stored-report file names are this hash, so its output must stay
/// bit-stable. Passing a previous result as `hash` continues it over more
/// bytes.
inline std::uint64_t fnv1a(std::span<const std::byte> bytes,
                           std::uint64_t hash = kFnv1aBasis) {
  for (const std::byte byte : bytes) {
    hash ^= std::to_integer<std::uint64_t>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace jsceres
