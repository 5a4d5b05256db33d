#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/simd.h"
#include "obs/obs.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

int tail_percentile(std::size_t samples) {
  for (const int p : {99, 95, 90, 85, 80, 75, 70, 65, 60, 55}) {
    const auto at = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples >= at + 10) return p;
  }
  return 100;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

double llc_mib() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : 0.0;
}

std::string provenance_json() {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"flags\": \"%s\", \"simd_width\": %d, "
                "\"simd_detected\": %d, \"brickx_obs\": %d, \"nproc\": %d, "
                "\"llc_mib\": %.1f, \"malloc\": \"mmap_threshold=32MiB "
                "trim_threshold=1GiB\"}",
                PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_CXX_FLAGS,
                brickx::simd::kActiveWidth, brickx::simd::kDetectedWidth,
                BRICKX_OBS, usable_cpus(), llc_mib());
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value is a bug; null keeps the line valid JSON and
    // makes any consumer reject it rather than read a made-up number.
    char value[32] = "null";
    if (std::isfinite(metrics[i].value))
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
