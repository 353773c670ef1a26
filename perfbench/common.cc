#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  Add(static_cast<uint64_t>(s.size()));
}

void Digest::Add(const locat::sparksim::SparkConf& conf) {
  for (double v : conf.values()) Add(v);
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Result::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(check_mu);
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) std::cerr << "check failed: " << what << "\n";
}

double TimeSetup(const std::function<void()>& reset,
                 const std::function<void()>& build) {
  constexpr int kWarmup = 3;
  constexpr int kTimed = 15;
  std::vector<double> samples;
  for (int i = 0; i < kWarmup + kTimed; ++i) {
    reset();
    const auto t0 = Clock::now();
    build();
    if (i >= kWarmup) samples.push_back(SecondsSince(t0));
  }
  return *std::min_element(samples.begin(), samples.end());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

const char* LayerOf(const std::string& name, bool baseline_tuners) {
  auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("dagp/")) return "core/dagp";
  if (starts("qcsa/")) return "core/qcsa";
  if (starts("iicp/")) return "core/iicp";
  if (starts("session/")) return "core/tuning";
  if (starts("sim/") || name == "bench/run_app" || name == "bench/judge") {
    return "sparksim";
  }
  if (starts("service/")) return "core/online_service";
  if (starts("bench/lookup") || starts("bench/report") ||
      name == "bench/tick") {
    return "core/service_registry";
  }
  if (name == "tune" || starts("tune/") || name == "bench/tune") {
    return baseline_tuners ? "tuners" : "core/locat_tuner";
  }
  if (starts("qtune/") || starts("bo_search/") || starts("frontend/") ||
      starts("dac/") || starts("tuneful/")) {
    return "tuners";
  }
  if (starts("bench/")) return "harness";
  return "other";
}

/// Numeric value of `"key":value` inside a span's args, 0 when absent.
double ArgValue(const std::string& args, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = args.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::atof(args.c_str() + pos + needle.size());
}

}  // namespace

double SpanTotals::SelfSum() const {
  double sum = 0.0;
  for (const auto& [layer, s] : self_s) sum += s;
  return sum;
}

void SpanTotals::Add(const std::vector<locat::obs::TraceEvent>& events,
                     bool baseline_tuners) {
  std::map<int, std::vector<const locat::obs::TraceEvent*>> by_lane;
  for (const auto& ev : events) {
    if (ev.pid != locat::obs::kWallPid) continue;
    by_lane[ev.tid].push_back(&ev);
    lanes.insert(ev.tid);
    const double dur = static_cast<double>(ev.dur_ns) * 1e-9;
    if (ev.name == "dagp/refit" || ev.name == "dagp/append") {
      refit_s += dur;
    }
    if (ev.name == "dagp/refit") {
      refits += 1.0;
      refit_n_max = std::max(refit_n_max, ArgValue(ev.args, "n"));
      density_evals += ArgValue(ev.args, "density_evals");
    } else if (ev.name == "qcsa/analyze") {
      qcsa_s += dur;
    } else if (ev.name == "iicp/run") {
      iicp_s += dur;
    } else if (ev.name.rfind("session/", 0) == 0) {
      session_s += dur;
    } else if (ev.name.rfind("sim/", 0) == 0 || ev.name == "bench/judge") {
      sim_s += dur;
    }
  }
  for (auto& [tid, spans] : by_lane) {
    // Parents start no later and end no earlier than their children; the
    // recorded depth breaks ties between spans sharing a timestamp.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      if (a->dur_ns != b->dur_ns) return a->dur_ns > b->dur_ns;
      return a->depth < b->depth;
    });
    std::vector<std::pair<const locat::obs::TraceEvent*, uint64_t>> stack;
    auto close = [&](const locat::obs::TraceEvent* ev, uint64_t child_ns) {
      const uint64_t self_ns = ev->dur_ns > child_ns ? ev->dur_ns - child_ns
                                                     : 0;
      self_s[LayerOf(ev->name, baseline_tuners)] +=
          static_cast<double>(self_ns) * 1e-9;
    };
    for (const auto* ev : spans) {
      while (!stack.empty() && stack.back().first->start_ns +
                                       stack.back().first->dur_ns <=
                                   ev->start_ns) {
        close(stack.back().first, stack.back().second);
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().second += ev->dur_ns;
      stack.emplace_back(ev, 0);
    }
    while (!stack.empty()) {
      close(stack.back().first, stack.back().second);
      stack.pop_back();
    }
  }
}

void ReportLayers(const SpanTotals& spans, const LayerCounts& counts,
                  double traced_wall_s, double untraced_wall_s,
                  Result* result) {
  const auto self = [&spans](const char* layer) {
    const auto it = spans.self_s.find(layer);
    return it == spans.self_s.end() ? 0.0 : it->second;
  };
  result->Set("dagp.refits", spans.refits, "count");
  result->Set("dagp.refit_s", spans.refit_s, "s");
  result->Set("dagp.refit_n_max", spans.refit_n_max, "count");
  result->Set("dagp.density_evals", spans.density_evals, "count");
  result->Set("tuner.self_s", self("core/locat_tuner"), "s");
  result->Set("tuner.evals", counts.tuner_evals, "count");
  result->Set("tuner.failed_evals", counts.failed_evals, "count");
  result->Set("qcsa.analyze_s", spans.qcsa_s, "s");
  result->Set("iicp.run_s", spans.iicp_s, "s");
  result->Set("qcsa.rqa_queries", counts.rqa_queries, "count");
  result->Set("session.evals", counts.session_evals, "count");
  result->Set("session.eval_s", spans.session_s, "s");
  result->Set("session.opt_sim_h", counts.opt_h, "h");
  result->Set("sim.app_runs", counts.app_runs, "count");
  result->Set("sim.query_cells", counts.query_cells, "count");
  result->Set("sim.run_s", spans.sim_s, "s");
  result->Set("sim.batch_lanes", counts.batch_lanes, "count");
  result->Set("baseline.self_s", self("tuners"), "s");

  // Each lane's root spans are the benchmark's own spans around public
  // calls, so their self times partition the lane's traced time; what is
  // left of the wall is the benchmark's loop between calls (and, on lanes
  // that wait at round barriers, idle time).
  const double lanes =
      static_cast<double>(std::max<size_t>(1, spans.lanes.size()));
  const double lane_wall_s = lanes * traced_wall_s;
  char line[160];
  for (const auto& [layer, s] : spans.self_s) {
    std::snprintf(line, sizeof(line), "self time %-24s %10.4f s  %5.1f%%",
                  layer.c_str(), s,
                  lane_wall_s > 0 ? 100.0 * s / lane_wall_s : 0.0);
    result->Info(line);
  }
  const double frac = lane_wall_s > 0 ? spans.SelfSum() / lane_wall_s : 0.0;
  std::snprintf(line, sizeof(line),
                "reconcile: layer self-time sum %.4f s over %.0f lane(s) vs "
                "traced wall %.4f s per lane = %.2f%%",
                spans.SelfSum(), lanes, traced_wall_s, 100.0 * frac);
  result->Info(line);
  const double overhead =
      untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0;
  std::snprintf(line, sizeof(line),
                "trace overhead: traced %.4f s vs untraced %.4f s = %+.2f%%",
                traced_wall_s, untraced_wall_s, 100.0 * overhead);
  result->Info(line);
  result->Set("trace.self_sum_frac", frac, "ratio");
  result->Set("trace.overhead_frac", overhead, "ratio");
}

bool ValidConf(const locat::sparksim::ConfigSpace& space,
               const locat::sparksim::SparkConf& conf) {
  if (!space.Validate(conf).ok()) return false;
  for (double v : conf.values()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace perfbench
