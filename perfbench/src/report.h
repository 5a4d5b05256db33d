#pragma once

// Sample statistics, build provenance and the result line.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> v);
/// Nearest-rank percentile `p` (0 < p <= 100) of `v`.
double percentile(std::vector<double> v, double p);
/// The highest of 99, 95, 90, ..., 55 that leaves at least ten samples above
/// it; 100 (the maximum) when no such percentile exists.
int tail_percentile(std::size_t samples);

double peak_rss_mib();

/// Build type, compiler, flags, SIMD width, BRICKX_OBS, usable CPUs and LLC
/// size, as one JSON object, so points from different builds are never
/// compared.
std::string provenance_json();
double llc_mib();

/// Human-readable metric table, then the final JSON line the driver reads.
void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
