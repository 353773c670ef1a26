#include "core/iicp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/spearman.h"

namespace locat::core {
namespace {

// CPS keeps parameters with |Spearman correlation| >= this bound; 0.2 is
// the paper's "poor correlation" cutoff.
constexpr double kSccThreshold = 0.2;
// CPE keeps the KPCA components covering this fraction of the spectrum.
constexpr double kKpcaVarianceToRetain = 0.90;

// Median pairwise Euclidean distance over the rows of x; the standard
// Gaussian-kernel bandwidth heuristic.
double MedianPairwiseDistance(const math::Matrix& x) {
  std::vector<double> dists;
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = i + 1; j < x.rows(); ++j) {
      dists.push_back((x.Row(i) - x.Row(j)).Norm());
    }
  }
  if (dists.empty()) return 1.0;
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  const double med = dists[dists.size() / 2];
  return med > 1e-9 ? med : 1.0;
}

}  // namespace

math::Vector IicpResult::Encode(const math::Vector& unit_conf) const {
  math::Matrix row(1, unit_conf.size());
  row.SetRow(0, unit_conf);
  return EncodeRows(row).Row(0);
}

math::Matrix IicpResult::EncodeRows(const math::Matrix& unit_confs) const {
  return kpca_.ProjectRows(SelectDims(unit_confs));
}

math::Matrix IicpResult::SelectDims(const math::Matrix& unit_confs) const {
  math::Matrix reduced(unit_confs.rows(), selected_.size());
  for (size_t r = 0; r < unit_confs.rows(); ++r) {
    const double* unit = unit_confs.RowData(r);
    double* out = reduced.RowData(r);
    for (size_t i = 0; i < selected_.size(); ++i) {
      out[i] = unit[static_cast<size_t>(selected_[i])] * weights_[i];
    }
  }
  return reduced;
}

StatusOr<IicpResult> Iicp::Run(const math::Matrix& unit_confs,
                               const std::vector<double>& times,
                               obs::Tracer* tracer) {
  const size_t n = unit_confs.rows();
  const size_t d = unit_confs.cols();
  if (n < 4 || times.size() != n) {
    return Status::InvalidArgument(
        "IICP needs >= 4 samples with matching times");
  }
  obs::ScopedSpan run_span(tracer, "iicp/run", "analysis");

  IicpResult result;
  result.scc_abs_.resize(d, 0.0);

  // --- CPS: Spearman correlation of each parameter against runtime.
  {
    obs::ScopedSpan cps_span(tracer, "iicp/cps", "analysis");
    std::vector<double> column(n);
    for (size_t p = 0; p < d; ++p) {
      for (size_t i = 0; i < n; ++i) column[i] = unit_confs(i, p);
      result.scc_abs_[p] =
          std::fabs(ml::SpearmanCorrelation(column, times));
      if (result.scc_abs_[p] >= kSccThreshold) {
        result.selected_.push_back(static_cast<int>(p));
      }
    }
    if (result.selected_.size() < 3) {
      // Keep the 3 strongest correlations so CPE always has something to
      // work with.
      std::vector<int> order(d);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return result.scc_abs_[static_cast<size_t>(a)] >
               result.scc_abs_[static_cast<size_t>(b)];
      });
      result.selected_.assign(order.begin(), order.begin() + 3);
      std::sort(result.selected_.begin(), result.selected_.end());
    }
    cps_span.Arg("params", static_cast<double>(d));
    cps_span.Arg("selected", static_cast<double>(result.selected_.size()));
  }

  // --- CPE: Gaussian-kernel KPCA on the CPS-selected dimensions. This is
  // where the "hybrid" of selection and extraction bites: each selected
  // dimension is scaled by its CPS correlation strength, so the kernel's
  // principal directions emphasize runtime-relevant parameters instead of
  // plain configuration variance.
  obs::ScopedSpan cpe_span(tracer, "iicp/cpe", "analysis");
  double max_scc = 1e-9;
  for (int p : result.selected_) {
    max_scc = std::max(max_scc, result.scc_abs_[static_cast<size_t>(p)]);
  }
  result.weights_.resize(result.selected_.size());
  for (size_t j = 0; j < result.selected_.size(); ++j) {
    const double w =
        result.scc_abs_[static_cast<size_t>(result.selected_[j])] / max_scc;
    result.weights_[j] = std::max(0.25, w);
  }
  const math::Matrix reduced = result.SelectDims(unit_confs);
  // Median-distance bandwidth heuristic with a floor at the expected
  // distance of uniform points in the [0,1]^m cube (~sqrt(m/6)); without
  // the floor, clustered training samples yield a bandwidth so small that
  // unseen configurations all project to the same constant.
  const double uniform_scale =
      std::sqrt(static_cast<double>(result.selected_.size()) / 6.0);
  const double bandwidth =
      std::max(MedianPairwiseDistance(reduced), uniform_scale);
  result.kernel_ = std::make_shared<ml::GaussianKernel>(bandwidth);

  ml::Kpca::Options kopts;
  kopts.variance_to_retain = kKpcaVarianceToRetain;
  LOCAT_RETURN_IF_ERROR(result.kpca_.Fit(reduced, result.kernel_.get(), kopts));
  cpe_span.Arg("bandwidth", bandwidth);
  cpe_span.Arg("latent_dim", static_cast<double>(result.latent_dim()));
  run_span.Arg("samples", static_cast<double>(n));
  run_span.Arg("selected", static_cast<double>(result.selected_.size()));
  run_span.Arg("latent_dim", static_cast<double>(result.latent_dim()));
  return result;
}

}  // namespace locat::core
