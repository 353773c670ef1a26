// End-to-end benchmark binary for the LOCAT library.
//
//   locat_perfbench --workload tune-cold|grid-sim|serve-drift --seed N
//                   --seconds S --trace 0|1 [--smoke] [--tmp-dir DIR]
//
// Prints human-readable lines (environment, per-pass figures and output
// digests, and with --trace 1 the per-module self times and their
// reconciliation against wall time), then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"} holding every metric
// the run measured: the end-to-end ones, and with --trace 1 also the
// per-layer ones (run.py picks the set the mode reports). Exits 1 when any
// output check failed, 2 on bad arguments.
#include <sys/personality.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "common/thread_pool.h"
#include "math/kern/kern.h"

namespace {

using perfbench::Result;
using perfbench::RunOptions;

/// Process-wide knobs the library reads from the environment. The
/// benchmark measures the shipped defaults, so each is recorded and then
/// cleared before any library code runs.
const char* const kIsolatedEnv[] = {
    "LOCAT_SIM_CACHE", "LOCAT_SIM_CACHE_CAP", "LOCAT_CACHE_DIR",
    "LOCAT_GP_MODE",   "LOCAT_GP_THRESHOLD",  "LOCAT_SIMD",
    "LOCAT_SIM_ENGINE"};

int Usage() {
  std::cerr << "usage: locat_perfbench --workload tune-cold|grid-sim|"
               "serve-drift --seed N --seconds S --trace 0|1 [--smoke] "
               "[--tmp-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--tmp-dir" && has_value) {
      opts.tmp_dir = argv[++i];
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else {
      return Usage();
    }
  }
  void (*run)(const RunOptions&, Result*) = nullptr;
  // Load-generator threads plus library pool threads stay within the
  // machine's four cores: a cold tune is one caller on a 1-thread pool,
  // the grid is four runner threads over inline simulation, and serving
  // is two clients sharing a 2-thread pool with tuning inline. A wider
  // pool does not shorten a cold tune (on a 4-core x86-64 host one seed's
  // three tunes took 11.5-15.8 s on 4 threads and 13.2-14.8 s on 1), it
  // only adds the host's scheduling noise to every parallel region.
  int pool_threads = 1;
  if (workload == "tune-cold") {
    run = perfbench::RunTuneCold;
  } else if (workload == "grid-sim") {
    run = perfbench::RunGridSim;
  } else if (workload == "serve-drift") {
    run = perfbench::RunServeDrift;
    pool_threads = 2;
  } else {
    return Usage();
  }
  if (!(opts.seconds > 0)) return Usage();

  std::string env_line = "env:";
  for (const char* name : kIsolatedEnv) {
    const char* value = std::getenv(name);
    env_line += std::string(" ") + name + "=" +
                (value != nullptr ? value : "<unset>");
    unsetenv(name);
  }
  std::cout << env_line << " (all cleared)\n";
  locat::common::ThreadPool::SetGlobalThreads(pool_threads);
  std::cout << "pool: " << locat::common::ThreadPool::Global()->num_threads()
            << " threads | kern backend: "
            << locat::math::kern::ActiveBackendName()
            << " | address-space randomization: "
            << ((personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "off"
                                                                   : "on")
            << "\n";
  std::cout << "workload " << workload << " seed " << opts.seed
            << " seconds " << opts.seconds << " trace " << opts.trace
            << (opts.smoke ? " (smoke)" : "") << "\n";

  Result result;
  run(opts, &result);

  for (const auto& [name, metric] : result.metrics) {
    result.Check(std::isfinite(metric.value), name + " is not finite");
  }

  for (const std::string& line : result.info) std::cout << line << "\n";
  std::printf("failed_frac: %lld/%lld checks\n",
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.failed == 0 ? 0 : 1;
}
