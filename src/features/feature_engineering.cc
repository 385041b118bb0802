#include "features/feature_engineering.h"

#include <cmath>
#include <algorithm>
#include <numbers>
#include <string>

#include "core/checked.h"
#include "core/logging.h"
#include "ts/calendar.h"
#include "ts/interpolation.h"

namespace fedfc::features {

std::vector<double> FeatureEngineeringSpec::ToTensor() const {
  std::vector<double> t;
  t.push_back(static_cast<double>(n_lags));
  t.push_back(include_time_features ? 1.0 : 0.0);
  t.push_back(include_trend_feature ? 1.0 : 0.0);
  t.push_back(static_cast<double>(seasonal_periods.size()));
  t.insert(t.end(), seasonal_periods.begin(), seasonal_periods.end());
  t.push_back(static_cast<double>(selected_features.size()));
  for (size_t s : selected_features) t.push_back(static_cast<double>(s));
  return t;
}

// The per-field caps bound the widest schema FeatureSchema can name: lags,
// the trend column, six calendar columns and a sin/cos pair per period.
static_assert(kMaxSpecLags + 7 + 2 * kMaxSpecSeasonalPeriods <= kMaxSpecColumns);

Result<FeatureEngineeringSpec> FeatureEngineeringSpec::FromTensor(
    const std::vector<double>& t) {
  if (t.size() < 5) {
    return Status::InvalidArgument("feature spec tensor too short");
  }
  // Every count field arrives as a double off the wire (or out of an
  // on-disk artifact): NaN, negative, fractional, or huge values are all
  // possible, and static_cast of those is undefined behavior. CheckedCount
  // validates each field against its hard cap before the cast and before
  // anything is allocated.
  FeatureEngineeringSpec spec;
  size_t i = 0;
  FEDFC_ASSIGN_OR_RETURN(
      spec.n_lags, CheckedCount(t[i++], kMaxSpecLags, "feature spec n_lags"));
  spec.include_time_features = t[i++] != 0.0;
  spec.include_trend_feature = t[i++] != 0.0;
  FEDFC_ASSIGN_OR_RETURN(size_t n_periods,
                         CheckedCount(t[i++], kMaxSpecSeasonalPeriods,
                                      "feature spec seasonal periods"));
  if (i + n_periods + 1 > t.size()) {
    return Status::InvalidArgument("feature spec tensor: bad periods block");
  }
  for (size_t p = 0; p < n_periods; ++p) {
    if (!std::isfinite(t[i])) {
      return Status::InvalidArgument(
          "feature spec tensor: non-finite seasonal period");
    }
    spec.seasonal_periods.push_back(t[i++]);
  }
  const double n_selected_field = t[i++];
  FEDFC_ASSIGN_OR_RETURN(
      size_t n_selected,
      CheckedCount(n_selected_field, t.size() - i,
                   "feature spec selection block"));
  if (i + n_selected != t.size()) {
    return Status::InvalidArgument("feature spec tensor: bad selection block");
  }
  for (size_t s = 0; s < n_selected; ++s) {
    FEDFC_ASSIGN_OR_RETURN(
        size_t idx,
        CheckedCount(t[i++], kMaxSpecColumns, "feature spec selected index"));
    spec.selected_features.push_back(idx);
  }
  return spec;
}

std::vector<std::string> FeatureSchema(const FeatureEngineeringSpec& spec) {
  std::vector<std::string> names;
  for (size_t l = 1; l <= spec.n_lags; ++l) names.push_back("lag_" + std::to_string(l));
  if (spec.include_trend_feature) names.push_back("trend");
  if (spec.include_time_features) {
    names.insert(names.end(), {"hour_sin", "hour_cos", "dow_sin", "dow_cos",
                               "month_sin", "month_cos"});
  }
  for (size_t s = 0; s < spec.seasonal_periods.size(); ++s) {
    names.push_back("seasonal_" + std::to_string(s) + "_sin");
    names.push_back("seasonal_" + std::to_string(s) + "_cos");
  }
  return names;
}

Result<EngineeredData> EngineerFeatures(const ts::Series& series,
                                        const FeatureEngineeringSpec& spec) {
  if (spec.n_lags == 0) {
    return Status::InvalidArgument("EngineerFeatures: need at least one lag");
  }
  if (series.size() <= spec.n_lags + 4) {
    return Status::InvalidArgument("EngineerFeatures: series shorter than lags");
  }
  std::vector<double> values = ts::LinearInterpolate(series.values());

  EngineeredData out;
  out.feature_names = FeatureSchema(spec);
  if (spec.include_trend_feature) out.trend = ts::FitTrend(values);

  const size_t n_rows = values.size() - spec.n_lags;
  const size_t n_cols = out.feature_names.size();
  out.x = Matrix(n_rows, n_cols, 0.0);
  out.y.resize(n_rows);

  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (size_t r = 0; r < n_rows; ++r) {
    size_t t = r + spec.n_lags;  // Index of the prediction target.
    out.y[r] = values[t];
    double* row = out.x.Row(r);
    size_t c = 0;
    for (size_t l = 1; l <= spec.n_lags; ++l) row[c++] = values[t - l];
    if (spec.include_trend_feature) {
      row[c++] = out.trend.Evaluate(static_cast<double>(t));
    }
    if (spec.include_time_features) {
      ts::CivilTime ct = ts::CivilFromEpoch(series.TimestampAt(t));
      row[c++] = std::sin(kTwoPi * ct.hour / 24.0);
      row[c++] = std::cos(kTwoPi * ct.hour / 24.0);
      row[c++] = std::sin(kTwoPi * ct.weekday / 7.0);
      row[c++] = std::cos(kTwoPi * ct.weekday / 7.0);
      row[c++] = std::sin(kTwoPi * (ct.month - 1) / 12.0);
      row[c++] = std::cos(kTwoPi * (ct.month - 1) / 12.0);
    }
    for (double period : spec.seasonal_periods) {
      double phase = kTwoPi * static_cast<double>(t) / std::max(period, 2.0);
      row[c++] = std::sin(phase);
      row[c++] = std::cos(phase);
    }
    FEDFC_DCHECK(c == n_cols);
  }

  if (!spec.selected_features.empty()) {
    for (size_t idx : spec.selected_features) {
      if (idx >= n_cols) {
        return Status::InvalidArgument("EngineerFeatures: selected index OOB");
      }
    }
    out.x = out.x.SelectColumns(spec.selected_features);
    std::vector<std::string> kept;
    for (size_t idx : spec.selected_features) kept.push_back(out.feature_names[idx]);
    out.feature_names = std::move(kept);
  }
  return out;
}

}  // namespace fedfc::features
