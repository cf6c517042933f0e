#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace murphy {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xBF58476D1CE4E5B9ULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::below(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  // uniform() can return 0; 1-u is in (0, 1].
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace murphy
