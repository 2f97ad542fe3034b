#pragma once
// Small numeric and process helpers shared by the benchmark driver and its
// self-tests: nearest-rank percentiles, the "highest percentile with at
// least ten samples beyond it" rule, shortest round-trip number printing,
// an FNV-1a digest and the process peak RSS.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);

/// A tail percentile chosen from a fixed ladder (p99, p90, p75, p50): the
/// highest one with at least `min_beyond` of `count` samples above it.
/// Falls back to p50 when even p75 has fewer. Workloads have fixed sample
/// counts, so each always reports the same percentile.
struct TailChoice {
  double q = 0.5;
  std::string label = "p50";
};
TailChoice tail_for_count(std::size_t count, std::size_t min_beyond = 10);

/// Shortest decimal string that round-trips `value` exactly.
std::string number(double value);

/// Order-sensitive FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// splitmix64 finalizer: the counter-based RNG every generated input uses.
std::uint64_t mix64(std::uint64_t x);

/// Uniform double in [0, 1) from a 64-bit word.
double unit(std::uint64_t word);

/// Peak resident set (VmHWM) of this process in MB; 0 if unreadable.
double peak_rss_mb();

}  // namespace perfbench
