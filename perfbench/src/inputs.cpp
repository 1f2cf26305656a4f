#include "inputs.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A uniform double in [-1, 1) keyed by (key, a, b).
double unit_draw(std::uint64_t key, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = splitmix64(splitmix64(splitmix64(key) ^ a) ^ b);
  // 53 random mantissa bits -> [0, 1) -> [-1, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

}  // namespace

std::vector<PolyPair> make_poly_pairs(std::uint64_t seed, int count, int n) {
  std::vector<PolyPair> pairs(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    PolyPair& p = pairs[static_cast<std::size_t>(k)];
    p.f.resize(static_cast<std::size_t>(n));
    p.g.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      p.f[static_cast<std::size_t>(j)] =
          unit_draw(seed, 2 * static_cast<std::uint64_t>(k), j);
      p.g[static_cast<std::size_t>(j)] =
          unit_draw(seed, 2 * static_cast<std::uint64_t>(k) + 1, j);
    }
  }
  return pairs;
}

std::uint64_t lu_system_key(int seed31, int k) {
  return splitmix64((static_cast<std::uint64_t>(seed31) << 32) ^
                    static_cast<std::uint32_t>(k));
}

int seed31(std::uint64_t seed) {
  return static_cast<int>(splitmix64(seed) & 0x7fffffffULL);
}

double lu_entry(std::uint64_t key, int n, int i, int j) {
  const double off = unit_draw(key, static_cast<std::uint64_t>(i) + 1,
                               static_cast<std::uint64_t>(j));
  return i == j ? off + n : off;
}

double lu_x_true(std::uint64_t key, int i) {
  return unit_draw(key, 0, static_cast<std::uint64_t>(i));
}

}  // namespace perfbench
