#ifndef FEDFC_AUTOML_PHASES_FEATURE_PHASE_H_
#define FEDFC_AUTOML_PHASES_FEATURE_PHASE_H_

#include "automl/phases/round_options.h"
#include "core/result.h"
#include "features/feature_engineering.h"
#include "features/meta_features.h"
#include "fl/round.h"

namespace fedfc::automl::phases {

struct FeaturePhaseInput {
  /// Aggregated meta-features from the meta phase (not owned).
  const features::AggregatedMetaFeatures* aggregated = nullptr;
  bool feature_selection = true;
  double feature_coverage = 0.95;  ///< Importance mass kept (Section 4.2.2).
  size_t max_lags = 12;            ///< Cap on unified lag features.
};

/// Section 4.2: derives the unified feature-engineering spec from the
/// aggregated meta-features, then (when enabled) runs one
/// `feature_importance` round and keeps the smallest feature subset covering
/// `feature_coverage` of the weighted importance mass. Selection is
/// best-effort: a failed round or undecodable replies leave the spec
/// unselected rather than failing the run.
Result<features::FeatureEngineeringSpec> RunFeaturePhase(
    fl::RoundRunner& runner, const FeaturePhaseInput& input,
    const PhaseRoundOptions& round);

}  // namespace fedfc::automl::phases

#endif  // FEDFC_AUTOML_PHASES_FEATURE_PHASE_H_
