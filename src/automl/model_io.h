#ifndef FEDFC_AUTOML_MODEL_IO_H_
#define FEDFC_AUTOML_MODEL_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automl/search_space.h"
#include "core/matrix.h"
#include "core/result.h"
#include "features/feature_engineering.h"
#include "fl/aggregation.h"
#include "ml/model.h"
#include "ml/tree/gbdt.h"

namespace fedfc::automl {

/// Hard cap on a serialized model blob (doubles, 128 MiB). Anything larger
/// is rejected as garbage before any allocation happens — a model published
/// by this engine is orders of magnitude smaller, so the cap only ever trips
/// on corrupted or hostile input.
inline constexpr size_t kMaxModelBlobDoubles = 1u << 24;

/// Serializes a fitted search-space model into a flat tensor for FL payload
/// transfer: flat parameters for the linear family, the full tree encoding
/// for XGB.
Result<std::vector<double>> SerializeModel(const Configuration& config,
                                           const ml::Regressor& model);

/// Reconstructs a fitted model from its configuration and serialized blob.
/// Decoding is adversarial-input-safe: oversized blobs, non-finite values
/// (the usual face of a bit flip), truncated tree sections, and implausible
/// counts are typed InvalidArgument errors checked before allocation — a
/// blob read from disk or the wire is never trusted.
Result<std::unique_ptr<ml::Regressor>> DeserializeModel(
    const Configuration& config, const std::vector<double>& blob);

/// Streaming fold over per-client model blobs (Algorithm 1, lines 26-27).
/// `Add` decodes each blob with DeserializeModel, so a blob that no client,
/// evaluate round or Forecaster could load is rejected before it touches
/// the fold, and then folds the decoded model:
///  - linear family: weighted average of the flat parameters (FedAvg);
///  - XGB: weighted ensemble, realized as one boosted model through
///    GbdtRegressor::Merge (prediction-equivalent to the weighted ensemble).
/// Weights are raw (|D_j|-style) and renormalized on the running total at
/// `Finish`, so one client's blob can be folded in and dropped as it
/// arrives — the model analogue of fl::ScalarAccumulator. `Finish` is
/// one-shot: it finalizes the accumulated state and returns the global
/// blob. This is the one place client models become the global model.
class ModelBlobAccumulator {
 public:
  explicit ModelBlobAccumulator(const Configuration& config) : config_(config) {}

  Status Add(double weight, const std::vector<double>& blob);
  Result<std::vector<double>> Finish();

 private:
  Configuration config_;
  bool any_ = false;
  double total_weight_ = 0.0;
  fl::TensorAccumulator params_;  ///< Linear family: weighted parameter sums.
  ml::GbdtRegressor merged_;      ///< XGB: the merged client trees.
};

// ---------------------------------------------------------------------------
// Model artifacts & the serving registry's publish side.
//
// A finished engine run is deployed as one *artifact*: the winning
// configuration, the unified feature-engineering spec, and the aggregated
// global model blob — everything fedfc_serve needs to answer forecasts.
// Artifacts live in a versioned registry directory:
//
//   <root>/v<NNN>/model.fpb   serialized artifact (fl::Payload bytes)
//   <root>/v<NNN>/MANIFEST    written LAST — the commit point
//
// The MANIFEST records the artifact's byte count and CRC32; a version
// directory without a MANIFEST is an aborted publish and is never served.
// Readers (serve/registry) treat the MANIFEST as the source of truth: size
// or CRC mismatch means the version is corrupt, not loadable. The publish
// side lives here (not in serve/) so the engine can deploy a model at the
// end of a run without depending on the serving layer above it.
// ---------------------------------------------------------------------------

struct ModelArtifact {
  Configuration config;
  features::FeatureEngineeringSpec spec;
  std::vector<double> blob;  ///< Serialized global model (SerializeModel).
};

/// Artifact <-> bytes via the fl::ModelArtifactRecord payload codec. Decode
/// applies the same hardening as DeserializeModel's blob path plus strict
/// config/spec tensor decodes; it does NOT build the model (see Forecaster).
std::vector<uint8_t> EncodeModelArtifact(const ModelArtifact& artifact);
Result<ModelArtifact> DecodeModelArtifact(const std::vector<uint8_t>& bytes);

/// Registry layout vocabulary, shared with serve/registry.
inline constexpr char kRegistryModelFile[] = "model.fpb";
inline constexpr char kRegistryManifestFile[] = "MANIFEST";
/// "v007" for 7 (three digits zero-padded; wider numbers print in full).
std::string RegistryVersionDir(int version);
/// Inverse of RegistryVersionDir; error for anything else.
Result<int> ParseRegistryVersionDir(const std::string& name);

/// The MANIFEST body: a tiny deterministic key:value text record.
struct RegistryManifest {
  int version = 0;
  std::string file;      ///< Artifact file name within the version dir.
  uint64_t bytes = 0;    ///< Exact artifact size.
  uint32_t crc32 = 0;    ///< core/crc32 checksum of the artifact bytes.
};
std::string FormatRegistryManifest(const RegistryManifest& manifest);
Result<RegistryManifest> ParseRegistryManifest(const std::string& text);

/// Publishes `artifact` as the next version under `root` (creating `root`
/// if needed): writes the artifact file first, the MANIFEST last, and
/// returns the new version number. Version numbers advance past any v<NNN>
/// directory present, committed or not, so an aborted publish never gets
/// overwritten or resurrected.
Result<int> PublishModelArtifact(const std::string& root,
                                 const ModelArtifact& artifact);

/// The forecast entry point on a fitted global model: a decoded artifact
/// bound to its reconstructed Regressor, with the feature width pinned by
/// the spec's schema. `Forecast` is the one prediction path the serving
/// layer uses — a batch of rows is evaluated in a single `Predict` call, so
/// batched serving is bit-identical to in-process prediction by
/// construction (Predict is row-independent for every Table 2 family).
class Forecaster {
 public:
  static Result<Forecaster> FromArtifact(const ModelArtifact& artifact);

  [[nodiscard]] const Configuration& config() const { return config_; }
  [[nodiscard]] const features::FeatureEngineeringSpec& spec() const {
    return spec_;
  }
  /// Columns every request row must have: the spec's engineered schema
  /// width after feature selection.
  [[nodiscard]] size_t n_features() const { return n_features_; }

  /// One prediction per row of `x`; InvalidArgument when `x` is empty or
  /// its width is not n_features().
  [[nodiscard]] Result<std::vector<double>> Forecast(const Matrix& x) const;

 private:
  Configuration config_;
  features::FeatureEngineeringSpec spec_;
  size_t n_features_ = 0;
  /// Shared (not unique) so a Forecaster can be copied into the serving
  /// layer's snapshot structure; the fitted model itself is immutable.
  std::shared_ptr<const ml::Regressor> model_;
};

}  // namespace fedfc::automl

#endif  // FEDFC_AUTOML_MODEL_IO_H_
