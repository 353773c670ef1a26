#include "harness/experiments.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "core/locat_tuner.h"
#include "core/qcsa.h"
#include "obs/log.h"
#include "tuners/baselines.h"
#include "tuners/frontend.h"
#include "workloads/workloads.h"

namespace locat::harness {
namespace {

// Leads every cell key, and each cell's simulator is seeded with
// StableHash(Key()), so it is part of every cell's noise stream: changing
// it re-rolls every experiment (and moves the pinned baseline-grid
// digest). Results caching is versioned separately, by kCacheVersion.
constexpr const char* kKeySalt = "v3";

// Versions the rows of the results cache (results.csv). Bump it whenever
// any tuner's output changes, so an existing cache stops serving the old
// results to the figures.
constexpr const char* kCacheVersion = "v4";

uint64_t StableHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

std::string CacheKey(const CellSpec& spec) {
  return std::string(kCacheVersion) + "|" + spec.Key();
}

}  // namespace

std::string CellSpec::Key() const {
  std::ostringstream os;
  os << kKeySalt << "|" << tuner << "|" << app << "|" << cluster << "|"
     << datasize_gb << "|" << seed;
  return os.str();
}

std::string CellResult::Serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << optimization_seconds << "," << best_app_seconds << ","
     << default_app_seconds << "," << gc_seconds << "," << csq_seconds << ","
     << ciq_seconds << "," << evaluations;
  return os.str();
}

bool CellResult::Deserialize(const std::string& line, CellResult* out) {
  std::istringstream is(line);
  char comma;
  is >> out->optimization_seconds >> comma >> out->best_app_seconds >>
      comma >> out->default_app_seconds >> comma >> out->gc_seconds >>
      comma >> out->csq_seconds >> comma >> out->ciq_seconds >> comma >>
      out->evaluations;
  return !is.fail();
}

sparksim::ClusterSpec MakeCluster(const std::string& name) {
  if (name == "arm") return sparksim::ArmCluster();
  return sparksim::X86Cluster();
}

sparksim::SparkSqlApp MakeApp(const std::string& name) {
  if (name == "TPC-DS") return workloads::TpcDs();
  if (name == "TPC-H") return workloads::TpcH();
  if (name == "Join") return workloads::HiBenchJoin();
  if (name == "Scan") return workloads::HiBenchScan();
  return workloads::HiBenchAggregation();
}

const std::vector<std::string>& SotaTunerNames() {
  static const std::vector<std::string>& names =
      *new std::vector<std::string>{"Tuneful", "DAC", "GBO-RL", "QTune"};
  return names;
}

std::unique_ptr<core::Tuner> MakeTuner(const std::string& name,
                                       uint64_t seed_salt) {
  if (name == "LOCAT" || name == "LOCAT-AP") {
    core::LocatTuner::Options opts;
    opts.seed = 101 + seed_salt;
    opts.enable_iicp = (name == "LOCAT");
    return std::make_unique<core::LocatTuner>(opts);
  }
  // Section 5.10 composites: "<Baseline>+QCSA" / "+IICP" / "+QIT".
  const auto plus = name.find('+');
  if (plus != std::string::npos) {
    const std::string base = name.substr(0, plus);
    const std::string mode = name.substr(plus + 1);
    tuners::QcsaIicpFrontend::Options fopts;
    fopts.apply_qcsa = (mode == "QCSA" || mode == "QIT");
    fopts.apply_iicp = (mode == "IICP" || mode == "QIT");
    fopts.seed = 61 + seed_salt;
    return std::make_unique<tuners::QcsaIicpFrontend>(
        tuners::MakeBaseline(base, seed_salt), fopts);
  }
  return tuners::MakeBaseline(name, seed_salt);
}

ExperimentRunner::ExperimentRunner(std::string cache_path)
    : cache_path_(std::move(cache_path)) {
  if (cache_path_.empty()) {
    const char* dir = std::getenv("LOCAT_CACHE_DIR");
    cache_path_ = std::string(dir != nullptr ? dir : ".locat_cache") +
                  "/results.csv";
  }
  Load();
}

ExperimentRunner::~ExperimentRunner() { Save(); }

void ExperimentRunner::Load() {
  std::ifstream in(cache_path_);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    const auto sep = line.find('\t');
    if (sep == std::string::npos) continue;
    CellResult result;
    if (CellResult::Deserialize(line.substr(sep + 1), &result)) {
      cache_[line.substr(0, sep)] = result;
    }
  }
}

void ExperimentRunner::Save() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_) return;
  std::filesystem::path path(cache_path_);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }

  // Concurrent runners (separate processes sharing $LOCAT_CACHE_DIR) must
  // not lose each other's rows or expose torn files: serialize savers on
  // an advisory lock, merge rows written since our Load, write to a
  // process/thread-unique temp file and publish it with an atomic rename.
  const std::string lock_path = cache_path_ + ".lock";
  const int lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);

  {
    std::ifstream in(cache_path_);
    std::string line;
    while (in && std::getline(in, line)) {
      const auto sep = line.find('\t');
      if (sep == std::string::npos) continue;
      const std::string key = line.substr(0, sep);
      CellResult result;
      if (cache_.find(key) == cache_.end() &&
          CellResult::Deserialize(line.substr(sep + 1), &result)) {
        cache_[key] = result;
      }
    }
  }

  std::ostringstream tmp_name;
  tmp_name << cache_path_ << ".tmp." << ::getpid() << "."
           << std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::string tmp_path = tmp_name.str();
  bool wrote = false;
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (out) {
      for (const auto& [key, result] : cache_) {
        out << key << "\t" << result.Serialize() << "\n";
      }
      out.flush();
      wrote = out.good();
    }
  }
  std::error_code ec;
  if (wrote) {
    std::filesystem::rename(tmp_path, cache_path_, ec);
    if (!ec) dirty_ = false;
  }
  if (!wrote || ec) {
    std::filesystem::remove(tmp_path, ec);
    obs::Log::Global()->Warn("harness", "results cache save failed",
                             {{"path", cache_path_}});
  } else {
    obs::Log::Global()->Debug(
        "harness", "results cache saved",
        {{"path", cache_path_},
         {"rows", static_cast<double>(cache_.size())}});
  }

  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
}

std::vector<int> ExperimentRunner::CanonicalCsq(const std::string& app_name,
                                                const std::string& cluster) {
  const std::string key = app_name + "|" + cluster;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = csq_cache_.find(key);
    if (it != csq_cache_.end()) return it->second;
  }

  // 30 random configurations at 100 GB with a fixed seed, per Section 5.1.
  const sparksim::SparkSqlApp app = MakeApp(app_name);
  sparksim::ClusterSimulator sim(MakeCluster(cluster),
                                 StableHash("csq|" + key));
  sparksim::ConfigSpace space(sim.cluster());
  Rng rng(StableHash("csq-rng|" + key));
  std::vector<std::vector<double>> times(
      static_cast<size_t>(app.num_queries()));
  for (int i = 0; i < 30; ++i) {
    const auto run = sim.RunApp(app, space.RandomValid(&rng), 100.0);
    for (size_t q = 0; q < run.per_query.size(); ++q) {
      times[q].push_back(run.per_query[q].exec_seconds);
    }
  }
  std::vector<int> csq;
  auto qcsa = core::AnalyzeQuerySensitivity(times);
  if (qcsa.ok()) {
    csq = qcsa->csq_indices;
  } else {
    csq.resize(static_cast<size_t>(app.num_queries()));
    for (int q = 0; q < app.num_queries(); ++q) csq[static_cast<size_t>(q)] = q;
  }
  std::lock_guard<std::mutex> lock(mu_);
  csq_cache_[key] = csq;
  return csq;
}

CellResult ExperimentRunner::Compute(const CellSpec& spec) {
  const sparksim::SparkSqlApp app = MakeApp(spec.app);
  sparksim::ClusterSimulator sim(MakeCluster(spec.cluster),
                                 StableHash(spec.Key()));
  core::TuningSession session(&sim, app);
  std::unique_ptr<core::Tuner> tuner = MakeTuner(spec.tuner, spec.seed);

  const core::TuningResult tr = tuner->Tune(&session, spec.datasize_gb);

  CellResult cell;
  cell.optimization_seconds = tr.optimization_seconds;
  cell.evaluations = tr.evaluations;

  // Judge the tuned configuration on the full application (not charged);
  // three *successful* repetitions average out run-to-run noise — under
  // fault injection a rep may die, so up to 9 attempts are made (with
  // faults off every rep succeeds and this is the original 3-rep loop).
  // The last successful run supplies the per-query/GC breakdowns.
  sparksim::AppRunResult final_run;
  int good_reps = 0;
  for (int attempt = 0; attempt < 9 && good_reps < 3; ++attempt) {
    sparksim::AppRunResult run =
        session.MeasureFinal(tr.best_conf, spec.datasize_gb);
    if (run.failed) continue;
    final_run = std::move(run);
    cell.best_app_seconds += final_run.total_seconds / 3.0;
    cell.gc_seconds += final_run.gc_seconds / 3.0;
    ++good_reps;
  }

  good_reps = 0;
  for (int attempt = 0; attempt < 9 && good_reps < 3; ++attempt) {
    const sparksim::AppRunResult run = session.MeasureFinal(
        session.space().Repair(session.space().DefaultConf()),
        spec.datasize_gb);
    if (run.failed) continue;
    cell.default_app_seconds += run.total_seconds / 3.0;
    ++good_reps;
  }

  const std::vector<int> csq = CanonicalCsq(spec.app, spec.cluster);
  std::vector<bool> is_csq(final_run.per_query.size(), false);
  for (int idx : csq) {
    if (idx >= 0 && static_cast<size_t>(idx) < is_csq.size()) {
      is_csq[static_cast<size_t>(idx)] = true;
    }
  }
  for (size_t q = 0; q < final_run.per_query.size(); ++q) {
    (is_csq[q] ? cell.csq_seconds : cell.ciq_seconds) +=
        final_run.per_query[q].exec_seconds;
  }
  return cell;
}

bool ExperimentRunner::Find(const CellSpec& spec, CellResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(CacheKey(spec));
  if (it == cache_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

void ExperimentRunner::InsertResult(const CellSpec& spec,
                                    const CellResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_[CacheKey(spec)] = result;
  dirty_ = true;
}

CellResult ExperimentRunner::Run(const CellSpec& spec) {
  CellResult result;
  if (Find(spec, &result)) {
    obs::Log::Global()->Debug("harness", "cell cache hit",
                              {{"key", spec.Key()}});
    return result;
  }
  result = Compute(spec);
  obs::Log::Global()->Debug(
      "harness", "cell computed",
      {{"key", spec.Key()},
       {"best_app_seconds", result.best_app_seconds},
       {"optimization_seconds", result.optimization_seconds},
       {"evaluations", result.evaluations}});
  InsertResult(spec, result);
  return result;
}

std::vector<CellResult> ExperimentRunner::RunAll(
    const std::vector<CellSpec>& specs, int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  threads = std::min<int>(threads, static_cast<int>(specs.size()));
  if (threads <= 1) {
    std::vector<CellResult> results;
    results.reserve(specs.size());
    for (const auto& spec : specs) results.push_back(Run(spec));
    return results;
  }

  obs::Log::Global()->Info("harness", "experiment grid",
                           {{"cells", static_cast<double>(specs.size())},
                            {"threads", threads}});
  // Cells differ in cost by orders of magnitude, so workers claim them one
  // at a time from a shared cursor instead of in contiguous blocks. Each
  // cell writes only its own slot, so results keep input order and bits.
  common::ThreadPool pool(threads);
  std::vector<CellResult> results(specs.size());
  std::atomic<size_t> next{0};
  pool.ParallelFor(static_cast<size_t>(threads), [&](size_t, size_t) {
    for (size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      results[i] = Run(specs[i]);
    }
  });
  Save();
  return results;
}

WarmSequenceResult RunLocatWarmSequence(const std::string& app_name,
                                        const std::string& cluster,
                                        const std::vector<double>& ds_list,
                                        uint64_t seed) {
  const sparksim::SparkSqlApp app = MakeApp(app_name);
  sparksim::ClusterSimulator sim(MakeCluster(cluster),
                                 StableHash("warm|" + app_name + cluster) +
                                     seed);
  core::TuningSession session(&sim, app);
  core::LocatTuner::Options opts;
  opts.seed = 211 + seed;
  core::LocatTuner tuner(opts);

  WarmSequenceResult out;
  for (double ds : ds_list) {
    const core::TuningResult tr = tuner.Tune(&session, ds);
    out.datasizes_gb.push_back(ds);
    out.incremental_optimization_seconds.push_back(tr.optimization_seconds);
    out.best_app_seconds.push_back(
        session.MeasureFinal(tr.best_conf, ds).total_seconds);
  }
  return out;
}

}  // namespace locat::harness
