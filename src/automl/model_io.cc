#include "automl/model_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/crc32.h"
#include "fl/task_codec.h"

namespace fedfc::automl {

Result<std::vector<double>> SerializeModel(const Configuration& config,
                                           const ml::Regressor& model) {
  if (config.algorithm == AlgorithmId::kXgb) {
    const auto* gbdt = dynamic_cast<const ml::GbdtRegressor*>(&model);
    if (gbdt == nullptr) {
      return Status::InvalidArgument("SerializeModel: XGB config, non-GBDT model");
    }
    return gbdt->SerializeModel();
  }
  std::vector<double> params = model.GetParameters();
  // An unfitted linear model reports only its (zero) intercept; any fitted
  // model carries at least one feature weight plus the intercept.
  if (params.size() < 2) {
    return Status::InvalidArgument("SerializeModel: model appears unfitted");
  }
  return params;
}

Status ModelBlobAccumulator::Add(double weight, const std::vector<double>& blob) {
  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         DeserializeModel(config_, blob));
  if (config_.algorithm == AlgorithmId::kXgb) {
    // DeserializeModel builds XGB configs as GbdtRegressor.
    merged_.Merge(weight, static_cast<const ml::GbdtRegressor&>(*model));
  } else {
    FEDFC_RETURN_IF_ERROR(params_.Add(weight, model->GetParameters()));
  }
  any_ = true;
  total_weight_ += weight;
  return Status::OK();
}

Result<std::vector<double>> ModelBlobAccumulator::Finish() {
  if (!any_) {
    return Status::InvalidArgument("ModelBlobAccumulator: no blobs to aggregate");
  }
  if (total_weight_ <= 0.0) {
    return Status::InvalidArgument("ModelBlobAccumulator: zero total weight");
  }
  if (config_.algorithm != AlgorithmId::kXgb) return params_.Mean();
  merged_.FinishMerge(total_weight_);
  return merged_.SerializeModel();
}

Result<std::unique_ptr<ml::Regressor>> DeserializeModel(
    const Configuration& config, const std::vector<double>& blob) {
  if (blob.size() > kMaxModelBlobDoubles) {
    return Status::InvalidArgument(
        "DeserializeModel: blob of " + std::to_string(blob.size()) +
        " doubles exceeds the " + std::to_string(kMaxModelBlobDoubles) +
        " cap (corrupt or hostile input)");
  }
  // Every field of a legitimate blob is finite — parameters, thresholds,
  // leaf weights, and the small-integer structure fields alike — so one
  // scan up front rejects the usual face of a bit flip before any decoder
  // state is built.
  for (double v : blob) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "DeserializeModel: non-finite value in blob (bit flip or "
          "corruption)");
    }
  }
  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         CreateRegressor(config));
  if (config.algorithm == AlgorithmId::kXgb) {
    auto* gbdt = dynamic_cast<ml::GbdtRegressor*>(model.get());
    if (gbdt == nullptr) {
      return Status::Internal("DeserializeModel: XGB factory mismatch");
    }
    FEDFC_RETURN_IF_ERROR(gbdt->DeserializeModel(blob));
    return model;
  }
  FEDFC_RETURN_IF_ERROR(model->SetParameters(blob));
  return model;
}

// ---------------------------------------------------------------------------
// Artifact codec.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeModelArtifact(const ModelArtifact& artifact) {
  fl::ModelArtifactRecord record;
  record.config = artifact.config.ToTensor();
  record.spec = artifact.spec.ToTensor();
  record.model_blob = artifact.blob;
  return record.ToPayload().Serialize();
}

Result<ModelArtifact> DecodeModelArtifact(const std::vector<uint8_t>& bytes) {
  FEDFC_ASSIGN_OR_RETURN(fl::Payload payload, fl::Payload::Deserialize(bytes));
  FEDFC_ASSIGN_OR_RETURN(fl::ModelArtifactRecord record,
                         fl::ModelArtifactRecord::FromPayload(payload));
  ModelArtifact artifact;
  FEDFC_ASSIGN_OR_RETURN(artifact.config,
                         Configuration::FromTensor(record.config));
  FEDFC_ASSIGN_OR_RETURN(
      artifact.spec,
      features::FeatureEngineeringSpec::FromTensor(record.spec));
  if (record.model_blob.size() > kMaxModelBlobDoubles) {
    return Status::InvalidArgument(
        "DecodeModelArtifact: model blob of " +
        std::to_string(record.model_blob.size()) + " doubles exceeds the " +
        std::to_string(kMaxModelBlobDoubles) + " cap");
  }
  artifact.blob = std::move(record.model_blob);
  return artifact;
}

// ---------------------------------------------------------------------------
// Registry layout & manifest.
// ---------------------------------------------------------------------------

std::string RegistryVersionDir(int version) {
  std::string digits = std::to_string(version);
  while (digits.size() < 3) digits.insert(digits.begin(), '0');
  return "v" + digits;
}

Result<int> ParseRegistryVersionDir(const std::string& name) {
  if (name.size() < 4 || name[0] != 'v') {
    return Status::InvalidArgument("not a registry version dir: " + name);
  }
  int value = 0;
  const auto* first = name.data() + 1;
  const auto* last = name.data() + name.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  // Canonical form only: the round trip rejects signs, stray characters,
  // overflow, and non-canonical padding like "v0007".
  if (ec != std::errc() || ptr != last || value < 1 ||
      name != RegistryVersionDir(value)) {
    return Status::InvalidArgument("not a registry version dir: " + name);
  }
  return value;
}

std::string FormatRegistryManifest(const RegistryManifest& manifest) {
  std::string out;
  out += "version: " + std::to_string(manifest.version) + "\n";
  out += "file: " + manifest.file + "\n";
  out += "bytes: " + std::to_string(manifest.bytes) + "\n";
  out += "crc32: " + std::to_string(manifest.crc32) + "\n";
  return out;
}

namespace {

/// One "key: value" manifest line; strict about the key and the separator.
Result<std::string> ManifestField(std::istream& in, const char* key) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(std::string("manifest: missing field '") +
                                   key + "'");
  }
  const std::string prefix = std::string(key) + ": ";
  if (line.rfind(prefix, 0) != 0) {
    return Status::InvalidArgument(std::string("manifest: expected '") + key +
                                   ": ...', got '" + line + "'");
  }
  return line.substr(prefix.size());
}

template <typename Int>
Result<Int> ManifestNumber(const std::string& text, const char* key) {
  Int value{};
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(std::string("manifest: bad number for '") +
                                   key + "': " + text);
  }
  return value;
}

}  // namespace

Result<RegistryManifest> ParseRegistryManifest(const std::string& text) {
  std::istringstream in(text);
  RegistryManifest manifest;
  FEDFC_ASSIGN_OR_RETURN(std::string version, ManifestField(in, "version"));
  FEDFC_ASSIGN_OR_RETURN(manifest.version,
                         ManifestNumber<int>(version, "version"));
  FEDFC_ASSIGN_OR_RETURN(manifest.file, ManifestField(in, "file"));
  FEDFC_ASSIGN_OR_RETURN(std::string bytes, ManifestField(in, "bytes"));
  FEDFC_ASSIGN_OR_RETURN(manifest.bytes,
                         ManifestNumber<uint64_t>(bytes, "bytes"));
  FEDFC_ASSIGN_OR_RETURN(std::string crc, ManifestField(in, "crc32"));
  FEDFC_ASSIGN_OR_RETURN(manifest.crc32, ManifestNumber<uint32_t>(crc, "crc32"));
  if (manifest.version < 1 || manifest.file.empty()) {
    return Status::InvalidArgument("manifest: version must be >= 1 and file "
                                   "non-empty");
  }
  return manifest;
}

Result<int> PublishModelArtifact(const std::string& root,
                                 const ModelArtifact& artifact) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Status::IOError("publish: cannot create registry root '" + root +
                           "': " + ec.message());
  }
  // Advance past every v<NNN> directory, committed or not, so an aborted
  // publish is never overwritten or resurrected.
  int next = 1;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    Result<int> parsed = ParseRegistryVersionDir(entry.path().filename());
    if (parsed.ok()) next = std::max(next, parsed.value() + 1);
  }
  if (ec) {
    return Status::IOError("publish: cannot scan registry root '" + root +
                           "': " + ec.message());
  }
  const std::vector<uint8_t> bytes = EncodeModelArtifact(artifact);
  const fs::path dir = fs::path(root) / RegistryVersionDir(next);
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("publish: cannot create " + dir.string() + ": " +
                           ec.message());
  }
  {
    std::ofstream out(dir / kRegistryModelFile,
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return Status::IOError("publish: cannot write artifact under " +
                             dir.string());
    }
  }
  RegistryManifest manifest;
  manifest.version = next;
  manifest.file = kRegistryModelFile;
  manifest.bytes = bytes.size();
  manifest.crc32 = Crc32(bytes.data(), bytes.size());
  {
    // The MANIFEST is written last: its presence commits the version.
    std::ofstream out(dir / kRegistryManifestFile,
                      std::ios::binary | std::ios::trunc);
    out << FormatRegistryManifest(manifest);
    if (!out) {
      return Status::IOError("publish: cannot write MANIFEST under " +
                             dir.string());
    }
  }
  return next;
}

// ---------------------------------------------------------------------------
// Forecaster.
// ---------------------------------------------------------------------------

Result<Forecaster> Forecaster::FromArtifact(const ModelArtifact& artifact) {
  Forecaster f;
  f.config_ = artifact.config;
  f.spec_ = artifact.spec;
  const size_t full_width = features::FeatureSchema(artifact.spec).size();
  if (artifact.spec.selected_features.empty()) {
    f.n_features_ = full_width;
  } else {
    for (size_t idx : artifact.spec.selected_features) {
      if (idx >= full_width) {
        return Status::InvalidArgument(
            "Forecaster: selected feature index " + std::to_string(idx) +
            " outside the spec's " + std::to_string(full_width) +
            "-column schema");
      }
    }
    f.n_features_ = artifact.spec.selected_features.size();
  }
  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         DeserializeModel(artifact.config, artifact.blob));
  // The blob and the spec travel together but are independently attacker-
  // controllable; a model whose width disagrees with the spec's schema
  // must be a typed error here, not an abort or out-of-bounds read at the
  // first Forecast.
  FEDFC_RETURN_IF_ERROR(model->ValidateFeatureWidth(f.n_features_));
  f.model_ = std::move(model);
  return f;
}

Result<std::vector<double>> Forecaster::Forecast(const Matrix& x) const {
  if (x.rows() == 0 || x.cols() != n_features_) {
    return Status::InvalidArgument(
        "Forecaster: expected a non-empty matrix with " +
        std::to_string(n_features_) + " columns, got " +
        std::to_string(x.rows()) + "x" + std::to_string(x.cols()));
  }
  return model_->Predict(x);
}

}  // namespace fedfc::automl
