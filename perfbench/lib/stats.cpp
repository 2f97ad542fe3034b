#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

TailChoice tail_for_count(std::size_t count, std::size_t min_beyond) {
  static const TailChoice ladder[] = {
      {0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}};
  for (const TailChoice& choice : ladder) {
    const double beyond = (1.0 - choice.q) * static_cast<double>(count);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return choice;
  }
  return {};
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
