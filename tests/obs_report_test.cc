// Tests of the telemetry report and of the JSONL parser's robustness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace locat {
namespace {

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(LOCAT_TEST_DATA_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

obs::Event Iteration(const char* phase, double eval_seconds,
                     double incumbent) {
  return obs::Event("iteration", "LOCAT", phase,
                    {{"eval_seconds", eval_seconds},
                     {"incumbent_seconds", incumbent}});
}

obs::Event Summary(int evaluations, double optimization_seconds,
                   double best_seconds) {
  return obs::Event("phase", "LOCAT", "summary",
                    {{"evaluations", evaluations},
                     {"optimization_seconds", optimization_seconds},
                     {"best_seconds", best_seconds}});
}

// A telemetry file from `locat tune Scan x86 100 --seed 3` written before
// the record types were unified, plus a log line and a sim_engine phase
// line of the format older builds wrote. The expected strings are what
// `locat report` printed for this file then.
TEST(ObsReportTest, FixtureSummarizesToThePrintedReport) {
  const auto parsed = obs::ParseTelemetry(
      ReadFixture("tune_scan_x86_seed3.jsonl"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 64u);
  EXPECT_EQ((*parsed)[0].type, "log");
  EXPECT_EQ(parsed->back().name, "sim_engine");

  const auto report = obs::SummarizeTelemetry(*parsed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const obs::TelemetryReport& r = *report;
  EXPECT_EQ(r.tuner, "LOCAT");
  struct Row {
    const char* phase;
    int evals;
    const char* charged;
    int refits;
    const char* fit;
    const char* acq;
    const char* best;
  };
  const Row rows[] = {
      {"lhs", 3, "179.7", 0, "0.000", "0.000", "54.6"},
      {"qcsa", 27, "1673.5", 9, "0.074", "0.029", "54.4"},
      {"reduced", 25, "1481.0", 6, "0.040", "0.102", "54.4"},
      {"recommend", 3, "177.9", 0, "0.000", "0.000", "57.1"},
  };
  ASSERT_EQ(r.phases.size(), std::size(rows));
  for (size_t i = 0; i < r.phases.size(); ++i) {
    const auto& p = r.phases[i];
    SCOPED_TRACE(rows[i].phase);
    EXPECT_EQ(p.phase, rows[i].phase);
    EXPECT_EQ(p.events, rows[i].evals);
    EXPECT_EQ(Fixed(p.eval_seconds, 1), rows[i].charged);
    EXPECT_EQ(p.refits, rows[i].refits);
    EXPECT_EQ(Fixed(p.fit_seconds, 3), rows[i].fit);
    EXPECT_EQ(Fixed(p.acq_seconds, 3), rows[i].acq);
    EXPECT_EQ(Fixed(p.best_seconds, 1), rows[i].best);
  }
  EXPECT_EQ(r.total.events, 58);
  EXPECT_EQ(Fixed(r.total.eval_seconds, 1), "3512.0");
  EXPECT_EQ(r.total.refits, 15);
  EXPECT_EQ(Fixed(r.total.fit_seconds, 3), "0.113");
  EXPECT_EQ(Fixed(r.total.acq_seconds, 3), "0.132");

  // "meter: 3512.0 s over 58 evaluations | best 57.1 s | phase sum vs
  // meter: -0.00%"
  EXPECT_EQ(r.summaries, 1);
  EXPECT_EQ(Fixed(r.meter_seconds, 1), "3512.0");
  EXPECT_EQ(Fixed(r.meter_evaluations, 0), "58");
  EXPECT_EQ(Fixed(r.meter_best_seconds, 1), "57.1");
  EXPECT_EQ(Fixed(r.MeterDrift(), 2), "-0.00");

  // "iicp: 1 reduction(s), 1 from own samples, 0 transferred | mean 14.0
  // params -> 8.0 latent dims"
  EXPECT_EQ(r.iicp_own, 1);
  EXPECT_EQ(r.iicp_transferred, 0);
  EXPECT_EQ(Fixed(r.iicp_params_sum, 1), "14.0");
  EXPECT_EQ(Fixed(r.iicp_latent_sum, 1), "8.0");

  // "linalg: avx2 dispatch | 0.245 s in math kernels (fit 46.3% / acq
  // 53.7%)"
  EXPECT_EQ(r.linalg_backend_id, 1.0);
  const double kern = r.total.fit_seconds + r.total.acq_seconds;
  EXPECT_EQ(Fixed(kern, 3), "0.245");
  EXPECT_EQ(Fixed(100.0 * r.total.fit_seconds / kern, 1), "46.3");
  EXPECT_TRUE(r.serving.empty());
  // Written before iteration records carried the surrogate's prediction:
  // no calibration line.
  EXPECT_FALSE(r.has_calibration);
}

obs::Event Predicted(const char* phase, double objective, double mean,
                     double sd) {
  return obs::Event("iteration", "LOCAT", phase,
                    {{"objective_seconds", objective},
                     {"pred_log_mean", mean},
                     {"pred_log_sd", sd}});
}

// z = (ln objective - mean) / sd per proposed run; a zero sd (no
// proposal, or a failed run whose objective is imputed) is not scored.
TEST(ObsReportTest, CalibrationScoresProposedSuccessfulRuns) {
  const double e = std::exp(1.0);
  const std::vector<obs::Event> events = {
      Predicted("lhs", 50.0, 0.0, 0.0),
      Predicted("reduced", e, 1.0, 0.5),        // z = 0
      Predicted("reduced", e * e, 1.0, 0.75),   // |z| = 1.33
      Predicted("reduced", 1.0, 1.0, 0.25),     // |z| = 4
      Predicted("reduced", 400.0, 0.0, 0.0),    // failed: not scored
      Predicted("warm", e, 1.5, 1.0),           // |z| = 0.5
  };
  const auto report = obs::SummarizeTelemetry(events);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->has_calibration);
  ASSERT_EQ(report->phases.size(), 3u);
  EXPECT_EQ(report->phases[0].calibrated, 0);
  const auto& reduced = report->phases[1];
  EXPECT_EQ(reduced.events, 4);
  EXPECT_EQ(reduced.calibrated, 3);
  EXPECT_NEAR(reduced.abs_z_sum, 0.0 + 4.0 / 3.0 + 4.0, 1e-12);
  EXPECT_EQ(reduced.within_1sd, 1);
  EXPECT_EQ(reduced.within_2sd, 2);
  EXPECT_EQ(report->phases[2].calibrated, 1);
  EXPECT_EQ(report->phases[2].within_1sd, 1);
  EXPECT_EQ(report->total.calibrated, 0);
}

// Every tuning pass ends with its own summary, so the meter is the sum
// over all of them: reconciling against the last one alone reads the
// first pass's charges as drift.
TEST(ObsReportTest, SumsEverySummaryAcrossPasses) {
  const std::vector<obs::Event> events = {
      Iteration("lhs", 100.0, 90.0),   Iteration("reduced", 50.0, 80.0),
      Summary(2, 150.0, 80.0),         Iteration("lhs", 30.0, 70.0),
      Iteration("reduced", 20.0, 75.0), Summary(2, 50.0, 70.0),
  };
  const auto report = obs::SummarizeTelemetry(events);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summaries, 2);
  EXPECT_DOUBLE_EQ(report->meter_seconds, 200.0);
  EXPECT_DOUBLE_EQ(report->meter_evaluations, 4.0);
  EXPECT_DOUBLE_EQ(report->meter_best_seconds, 70.0);
  EXPECT_DOUBLE_EQ(report->total.eval_seconds, 200.0);
  EXPECT_DOUBLE_EQ(report->MeterDrift(), 0.0);
  ASSERT_EQ(report->phases.size(), 2u);
  EXPECT_EQ(report->phases[0].events, 2);
  EXPECT_DOUBLE_EQ(report->phases[0].eval_seconds, 130.0);
  EXPECT_DOUBLE_EQ(report->phases[0].best_seconds, 70.0);

  // One pass alone reads exactly as before.
  const std::vector<obs::Event> one(events.begin(), events.begin() + 3);
  const auto single = obs::SummarizeTelemetry(one);
  ASSERT_TRUE(single.ok());
  EXPECT_DOUBLE_EQ(single->meter_seconds, 150.0);
  EXPECT_DOUBLE_EQ(single->meter_best_seconds, 80.0);
  EXPECT_DOUBLE_EQ(single->MeterDrift(), 0.0);
}

TEST(ObsReportTest, RejectsTelemetryWithoutIterationsOrServing) {
  EXPECT_FALSE(obs::SummarizeTelemetry({}).ok());
  EXPECT_FALSE(obs::SummarizeTelemetry({Summary(1, 1.0, 1.0)}).ok());
  const auto serving = obs::SummarizeTelemetry(
      {obs::Event("phase", "TPC-H", "serving", {{"recommendations", 3}})});
  ASSERT_TRUE(serving.ok());
  ASSERT_EQ(serving->serving.size(), 1u);
  EXPECT_EQ(serving->serving[0].source, "TPC-H");
  EXPECT_DOUBLE_EQ(serving->serving[0].Num("recommendations"), 3.0);
}

/// Parses `text`; a parse must end in an error or in records that
/// summarize without fault and re-encode to a fixed point.
void ExpectErrorOrRecords(const std::string& text) {
  const auto parsed = obs::ParseTelemetry(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  (void)obs::SummarizeTelemetry(*parsed);
  std::ostringstream once;
  for (const obs::Event& e : *parsed) obs::WriteJsonl(once, e);
  const auto reparsed = obs::ParseTelemetry(once.str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << once.str();
  ASSERT_EQ(reparsed->size(), parsed->size());
  std::ostringstream twice;
  for (const obs::Event& e : *reparsed) obs::WriteJsonl(twice, e);
  EXPECT_EQ(twice.str(), once.str());
}

TEST(ObsParseFuzzTest, HandPickedHostileLines) {
  const std::string deep_object = std::string(4096, '{');
  const std::string deep_value =
      "{\"type\":\"phase\",\"a\":" + std::string(4096, '[') + "}";
  std::string many_fields = "{\"type\":\"phase\"";
  for (size_t i = 0; i <= obs::Event::kMaxFields; ++i) {
    many_fields += ",\"f" + std::to_string(i) + "\":1";
  }
  many_fields += "}";
  const std::string long_key = "{\"type\":\"phase\",\"" +
                               std::string(obs::Field::kKeySize, 'k') +
                               "\":1}";
  const std::string huge = "{\"type\":\"phase\",\"x\":1e999}";
  const std::vector<std::string> inputs = {
      "",
      "\n\n\n",
      "   ",
      "{",
      "}",
      "{\"type\"",
      "{\"type\":",
      "{\"type\":\"phase\"",
      "{\"type\":\"phase\",}",
      "{\"type\":\"phase\",\"x\":}",
      huge,
      "{\"type\":\"phase\",\"x\":-1e999,\"y\":1e-999}",
      "{\"type\":\"phase\",\"x\":NaN,\"y\":nan,\"z\":-inf}",
      "{\"type\":\"phase\",\"x\":\"unterminated",
      "{\"type\":\"phase\",\"unterminated key",
      "{\"type\":\"phase\",\"x\":\"\\",
      "{\"type\":\"phase\",\"x\":\"\\u12",
      "{\"type\":\"phase\",\"x\":\"\\u0000\\u001f\\\"\"}",
      "{\"type\":\"phase\",\"\\u0000\":1}",
      "{\"type\":\"iteration\",\"tuner\":1,\"phase\":true}",
      "{\"type\":\"log\",\"t_ns\":-5,\"level\":3}",
      "{\"type\":\"log\",\"t_ns\":1e30}",
      "{\"type\":\"\"}",
      "{\"type\":\"phase\",\"type\":\"iteration\"}",
      long_key,
      deep_object,
      deep_value,
      many_fields,
  };
  for (const std::string& input : inputs) {
    SCOPED_TRACE(input.substr(0, 80));
    ExpectErrorOrRecords(input);
  }
  // Overlong keys and overfull records are errors, not truncations.
  EXPECT_FALSE(obs::ParseTelemetry(long_key).ok());
  EXPECT_FALSE(obs::ParseTelemetry(many_fields).ok());
  const auto inf = obs::ParseTelemetry(huge);
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf((*inf)[0].Num("x")));
}

// Seeded mutations of the checked-in corpus: truncations, byte flips,
// stray quotes and braces, numeric specials spliced over values, and
// random garbage. Each input must come back as an error or as records.
TEST(ObsParseFuzzTest, MutatedCorpusNeverCrashesOrHangs) {
  const std::string corpus = ReadFixture("tune_scan_x86_seed3.jsonl");
  std::vector<std::string> lines;
  {
    std::istringstream is(corpus);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());
  const char* const kSplices[] = {"1e999", "NaN",  "-inf", "\"",   "\\",
                                  "{",     "}",    ",",    ":",    "\n",
                                  "\\u00", "true", "\"\"", "0x1p3"};
  const char kAlphabet[] = "{}[]\":,\\ \t\n0123456789.eE+-abtnrufl";
  std::mt19937_64 rng(20261019);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
  };
  for (int round = 0; round < 3000; ++round) {
    // One to three consecutive lines, so mutations can cross lines.
    const size_t first = pick(lines.size());
    std::string text;
    for (size_t i = first; i < std::min(lines.size(), first + 1 + pick(3));
         ++i) {
      text += lines[i] + "\n";
    }
    switch (round % 6) {
      case 0:  // truncation
        text.resize(pick(text.size()));
        break;
      case 1:  // byte flips
        for (int k = 0; k < 1 + static_cast<int>(pick(4)); ++k) {
          text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
        }
        break;
      case 2:  // splice a hostile token over a stretch
        text.replace(pick(text.size()), pick(8),
                     kSplices[pick(std::size(kSplices))]);
        break;
      case 3:  // drop a stretch (often a closing quote or brace)
        text.erase(pick(text.size()), 1 + pick(12));
        break;
      case 4:  // insert garbage
        for (int k = 0; k < 1 + static_cast<int>(pick(16)); ++k) {
          text.insert(text.begin() + static_cast<long>(pick(text.size())),
                      kAlphabet[pick(sizeof(kAlphabet) - 1)]);
        }
        break;
      case 5:  // pure garbage
        text.assign(pick(256), '\0');
        for (char& c : text) c = static_cast<char>(rng());
        break;
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectErrorOrRecords(text);
    if (HasFatalFailure()) return;
  }
  // Whole-file truncations keep every earlier line.
  for (int k = 0; k < 20; ++k) {
    ExpectErrorOrRecords(corpus.substr(0, pick(corpus.size())));
  }
}

}  // namespace
}  // namespace locat
