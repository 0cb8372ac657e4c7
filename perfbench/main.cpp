// slj_perfbench: runs one workload of the steady benchmark and prints its
// result as the last line of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Usage:
//   slj_perfbench --workload clip_report|live_saturated --seed N
//                 --seconds S --trace 0|1 [--threads nproc]
// perfbench/run.py builds this binary and passes the host's nproc.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/simd.hpp"

#ifndef SLJ_BUILD_FLAGS
#define SLJ_BUILD_FLAGS "unknown"
#endif

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "0";  // flagged by a failed check in main
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = static_cast<unsigned>(std::stoul(value));
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  if (options.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slj_perfbench: %s\n", e.what());
    return 2;
  }
  const char* sha = std::getenv("SLJ_GIT_SHA");
#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("build: compiler %s; simd %s; flags %s; git %s\n", compiler,
              slj::simd::backend_name(), SLJ_BUILD_FLAGS, sha != nullptr ? sha : "unknown");
  std::printf("run: workload %s, seed %u, %.0f s, trace %d, %u threads\n",
              options.workload.c_str(), options.seed, options.seconds, options.trace ? 1 : 0,
              options.threads);
  std::fflush(stdout);

  perfbench::RunResult result;
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  try {
    if (options.workload == "clip_report") {
      result = perfbench::run_clip_report(options);
    } else if (options.workload == "live_saturated") {
      result = perfbench::run_live_saturated(options);
    } else {
      std::fprintf(stderr, "slj_perfbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slj_perfbench: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr, "workload finished in %.1f s\n", perfbench::seconds_since(start));
  for (const perfbench::Metric& m : result.metrics) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is not a finite number");
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "failed: %s\n", failure.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json.append("\"").append(escaped(m.name)).append("\": {\"value\": ").append(number(m.value));
    json.append(", \"unit\": \"").append(escaped(m.unit)).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
