#ifndef FEDFC_FEATURES_FEATURE_ENGINEERING_H_
#define FEDFC_FEATURES_FEATURE_ENGINEERING_H_

#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/result.h"
#include "ts/series.h"
#include "ts/trend.h"

namespace fedfc::features {

/// Hard caps on the FeatureEngineeringSpec count fields, enforced by
/// FromTensor before any allocation. A spec travels the wire (broadcast to
/// every client) and sits inside on-disk model artifacts, so its counts are
/// untrusted; the engine never produces values anywhere near these — the
/// caps only trip on corrupted or hostile tensors.
inline constexpr size_t kMaxSpecLags = 4096;
inline constexpr size_t kMaxSpecSeasonalPeriods = 256;
/// Bound on the full engineered schema width, and so on a selected index.
inline constexpr size_t kMaxSpecColumns = 1u << 16;

/// Server-broadcast recipe for the *unified* feature engineering the paper
/// describes (Section 4.2): every client builds the same feature schema so
/// the federated models are compatible.
struct FeatureEngineeringSpec {
  /// Number of lag features (the max count of significant PACF lags across
  /// clients, Section 4.2.1 item 3).
  size_t n_lags = 4;
  /// Global seasonal periods (in samples) from the weighted periodogram
  /// (Section 4.2.1 item 4); one sin/cos pair per period.
  std::vector<double> seasonal_periods;
  /// Calendar features (Section 4.2.1 item 2).
  bool include_time_features = true;
  /// ADF-gated parametric trend feature (Section 4.2.1 item 1).
  bool include_trend_feature = true;
  /// Optional feature subset chosen by federated feature selection
  /// (Section 4.2.2); empty = keep all columns.
  std::vector<size_t> selected_features;

  /// Serialized form for FL payload broadcast.
  [[nodiscard]] std::vector<double> ToTensor() const;
  static Result<FeatureEngineeringSpec> FromTensor(const std::vector<double>& t);
};

/// A supervised view of a client's series under a spec.
struct EngineeredData {
  Matrix x;
  std::vector<double> y;
  std::vector<std::string> feature_names;
  /// The trend model fitted on this client's split (kept for forecasting
  /// future trend values).
  ts::TrendModel trend;
};

/// Builds the supervised matrix for one client split: linear interpolation,
/// then lag / trend / calendar / seasonal features, one row per predictable
/// time step (the first n_lags steps have no complete lag window).
/// Applies `spec.selected_features` when non-empty.
Result<EngineeredData> EngineerFeatures(const ts::Series& series,
                                        const FeatureEngineeringSpec& spec);

/// Feature schema (names only) for a spec, before selection. Useful for
/// aligning importances server-side.
std::vector<std::string> FeatureSchema(const FeatureEngineeringSpec& spec);

}  // namespace fedfc::features

#endif  // FEDFC_FEATURES_FEATURE_ENGINEERING_H_
