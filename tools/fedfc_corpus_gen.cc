// Seed-corpus generator for the fuzz harnesses in tests/fuzz/ (see
// docs/STATIC_ANALYSIS.md "Fuzzing" and docs/CLI.md).
//
//   fedfc_corpus_gen [--root DIR]            write seed corpora (default
//                                            root: tests/fuzz), round-
//                                            tripping the real encoders so
//                                            coverage starts deep
//   fedfc_corpus_gen --regressions [--root DIR]
//                                            also write the crash-regression
//                                            inputs for every decoder defect
//                                            fixed in this tree (each one
//                                            crashed a pre-fix build)
//   fedfc_corpus_gen --minimize --fuzzer-dir BUILDDIR [--root DIR]
//                                            minimize each seed corpus with
//                                            the libFuzzer binaries
//                                            (BUILDDIR/tests/fuzz/
//                                            fedfc_fuzz_<name> -merge=1);
//                                            harnesses without a binary are
//                                            skipped with a notice
//
// Everything written is deterministic — no clocks, no random state — so
// regenerating the corpus is reproducible and diffs stay meaningful.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "automl/model_io.h"
#include "automl/search_space.h"
#include "core/crc32.h"
#include "features/feature_engineering.h"
#include "fl/payload.h"
#include "fl/task_codec.h"
#include "net/frame.h"

namespace {

namespace fs = std::filesystem;
using fedfc::automl::ModelArtifact;

void WriteFile(const fs::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

void WriteText(const fs::path& dir, const std::string& name,
               const std::string& text) {
  WriteFile(dir, name, std::vector<uint8_t>(text.begin(), text.end()));
}

std::vector<uint8_t> DoublesToBytes(const std::vector<double>& doubles) {
  std::vector<uint8_t> bytes(doubles.size() * sizeof(double));
  if (!bytes.empty()) std::memcpy(bytes.data(), doubles.data(), bytes.size());
  return bytes;
}

// ---------------------------------------------------------------------------
// Shared specimens: real encoder output, so harness coverage starts past
// the reject-everything frontier.
// ---------------------------------------------------------------------------

fedfc::fl::Payload SpecimenPayload() {
  fedfc::fl::Payload p;
  p.SetInt("n_cols", 3);
  p.SetTensor("rows", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  p.SetString("config", "lasso");
  p.SetDouble("valid_loss", 0.25);
  return p;
}

fedfc::automl::Configuration LassoConfig() {
  return fedfc::automl::SearchSpace::ForAlgorithm(
             fedfc::automl::AlgorithmId::kLasso)
      .Decode({0.5, 0.25});
}

fedfc::automl::Configuration XgbConfig() {
  return fedfc::automl::SearchSpace::ForAlgorithm(
             fedfc::automl::AlgorithmId::kXgb)
      .Decode({0.5, 0.5, 0.5, 0.5, 0.9});
}

fedfc::features::FeatureEngineeringSpec SpecimenSpec() {
  fedfc::features::FeatureEngineeringSpec spec;
  spec.seasonal_periods = {24.0, 168.0};
  return spec;
}

/// One boosted tree in wire form: a root split on feature 0 with two
/// leaves, preorder as GbdtTree::AppendTo lays it out.
std::vector<double> SpecimenTreeBlob() {
  return {
      0.5, 0.1, 1.0,                   // base score, learning rate, n_trees
      3.0,                             // n_nodes
      0.0, 0.5, 1.0, 2.0, 0.0,         // split: feature 0, thr 0.5, children 1/2
      -1.0, 0.0, -1.0, -1.0, 0.3,      // left leaf
      -1.0, 0.0, -1.0, -1.0, -0.3,     // right leaf
  };
}

ModelArtifact LinearArtifact() {
  ModelArtifact artifact;
  artifact.config = LassoConfig();
  artifact.spec = SpecimenSpec();
  const size_t width = fedfc::features::FeatureSchema(artifact.spec).size();
  artifact.blob.assign(width + 1, 0.01);  // weights + intercept
  artifact.blob.back() = 1.5;
  return artifact;
}

ModelArtifact XgbArtifact() {
  ModelArtifact artifact;
  artifact.config = XgbConfig();
  artifact.spec = SpecimenSpec();
  artifact.blob = SpecimenTreeBlob();
  return artifact;
}

// ---------------------------------------------------------------------------
// Seed corpora.
// ---------------------------------------------------------------------------

void GenFrameSeeds(const fs::path& dir) {
  namespace net = fedfc::net;
  namespace tasks = fedfc::fl::tasks;

  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.task = tasks::kFitEvaluate;
  request.body = SpecimenPayload().Serialize();
  WriteFile(dir, "request-fit-evaluate", net::EncodeFrame(request));

  net::Frame reply = request;
  reply.type = net::FrameType::kReply;
  reply.task = tasks::kForecast;
  reply.client_index = 7;
  WriteFile(dir, "reply-forecast", net::EncodeFrame(reply));

  // client_index edge: the full 32-bit range is legal on the wire.
  net::Frame edge = request;
  edge.task = tasks::kPing;
  edge.body.clear();
  edge.client_index = 0xFFFFFFFFu;
  WriteFile(dir, "request-ping-max-client-index", net::EncodeFrame(edge));

  WriteFile(dir, "error-frame",
            net::EncodeFrame(net::MakeErrorFrame(
                tasks::kMetaFeatures,
                fedfc::Status::InvalidArgument("specimen error"))));

  net::Frame shutdown;
  shutdown.type = net::FrameType::kShutdown;
  WriteFile(dir, "shutdown", net::EncodeFrame(shutdown));
}

void GenPayloadSeeds(const fs::path& dir) {
  WriteFile(dir, "mixed-tags", SpecimenPayload().Serialize());
  WriteFile(dir, "empty", fedfc::fl::Payload().Serialize());

  fedfc::fl::Payload tensors;
  tensors.SetTensor("params", {0.0, -1.5, 2.5});
  tensors.SetTensor("model_blob", SpecimenTreeBlob());
  WriteFile(dir, "tensors", tensors.Serialize());
}

void GenTaskCodecSeeds(const fs::path& dir) {
  namespace fl = fedfc::fl;

  fl::MetaFeaturesReply meta;
  meta.meta_features = {1.0, 2.0, 3.0};
  meta.n_instances = 128;
  WriteFile(dir, "meta-features-reply", meta.ToPayload().Serialize());

  fl::FitEvaluateRequest fit;
  fit.spec = SpecimenSpec().ToTensor();
  fit.config = LassoConfig().ToTensor();
  WriteFile(dir, "fit-evaluate-request", fit.ToPayload().Serialize());

  fl::FitFinalReply final_reply;
  final_reply.model_blob = SpecimenTreeBlob();
  final_reply.n_fit = 96;
  WriteFile(dir, "fit-final-reply", final_reply.ToPayload().Serialize());

  fl::EvaluateModelRequest evaluate;
  evaluate.spec = SpecimenSpec().ToTensor();
  evaluate.config = XgbConfig().ToTensor();
  evaluate.model_blob = SpecimenTreeBlob();
  WriteFile(dir, "evaluate-model-request", evaluate.ToPayload().Serialize());

  fl::NBeatsRoundReply nbeats;
  nbeats.params = {0.1, 0.2, 0.3, 0.4};
  nbeats.train_loss = 0.05;
  nbeats.n_train = 64;
  WriteFile(dir, "nbeats-round-reply", nbeats.ToPayload().Serialize());

  fl::ForecastRequest forecast;
  forecast.n_cols = 3;
  forecast.rows = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  WriteFile(dir, "forecast-request", forecast.ToPayload().Serialize());

  fl::ForecastReply forecast_reply;
  forecast_reply.predictions = {1.5, 2.5};
  forecast_reply.model_version = 3;
  WriteFile(dir, "forecast-reply", forecast_reply.ToPayload().Serialize());

  fl::PingReply ping;
  ping.model_version = 2;
  WriteFile(dir, "ping-reply", ping.ToPayload().Serialize());
}

void GenModelArtifactSeeds(const fs::path& dir) {
  namespace automl = fedfc::automl;
  WriteFile(dir, "linear-artifact",
            automl::EncodeModelArtifact(LinearArtifact()));
  WriteFile(dir, "xgb-artifact", automl::EncodeModelArtifact(XgbArtifact()));
  // Raw tensors for the FromTensor-family path of the harness.
  WriteFile(dir, "config-tensor", DoublesToBytes(LassoConfig().ToTensor()));
  WriteFile(dir, "spec-tensor", DoublesToBytes(SpecimenSpec().ToTensor()));
}

void GenRegistrySeeds(const fs::path& dir) {
  namespace automl = fedfc::automl;

  // A committed v001 in harness input form: [u16 LE manifest length]
  // [manifest][artifact], with the manifest's size and CRC true to the
  // artifact bytes so the load path runs all the way into the decoder.
  const std::vector<uint8_t> artifact =
      automl::EncodeModelArtifact(LinearArtifact());
  automl::RegistryManifest manifest;
  manifest.version = 1;
  manifest.file = automl::kRegistryModelFile;
  manifest.bytes = artifact.size();
  manifest.crc32 = fedfc::Crc32(artifact.data(), artifact.size());
  const std::string manifest_text = automl::FormatRegistryManifest(manifest);

  std::vector<uint8_t> input;
  input.push_back(static_cast<uint8_t>(manifest_text.size() & 0xFF));
  input.push_back(static_cast<uint8_t>((manifest_text.size() >> 8) & 0xFF));
  input.insert(input.end(), manifest_text.begin(), manifest_text.end());
  input.insert(input.end(), artifact.begin(), artifact.end());
  WriteFile(dir, "committed-v001", input);

  // Same layout, CRC deliberately wrong: exercises the verify-reject path.
  automl::RegistryManifest bad = manifest;
  bad.crc32 ^= 0xDEADBEEFu;
  const std::string bad_text = automl::FormatRegistryManifest(bad);
  std::vector<uint8_t> corrupt;
  corrupt.push_back(static_cast<uint8_t>(bad_text.size() & 0xFF));
  corrupt.push_back(static_cast<uint8_t>((bad_text.size() >> 8) & 0xFF));
  corrupt.insert(corrupt.end(), bad_text.begin(), bad_text.end());
  corrupt.insert(corrupt.end(), artifact.begin(), artifact.end());
  WriteFile(dir, "crc-mismatch", corrupt);

  WriteText(dir, "manifest-only", manifest_text);
  WriteText(dir, "version-dir-name", "v001");
}

void GenCsvSeeds(const fs::path& dir) {
  WriteText(dir, "hourly-with-header",
            "timestamp,value\n0,1.0\n3600,2.0\n7200,\n10800,4.0\n");
  WriteText(dir, "headerless", "100,1.5\n200,2.5\n300,3.5\n");
  WriteText(dir, "irregular-rejected", "0,1\n10,2\n25,3\n");
  WriteText(dir, "negative-epochs", "-7200,1\n-3600,2\n0,3\n");
}

// ---------------------------------------------------------------------------
// Crash regressions: each input crashed (or hung) a build prior to the
// decoder hardening that landed with the fuzzing subsystem. Replayed by
// fuzz.replay.* in every build forever.
// ---------------------------------------------------------------------------

void GenCsvRegressions(const fs::path& dir) {
  // static_cast<int64_t>(1e300) — UB before the epoch range check existed.
  WriteText(dir, "crash-timestamp-cast", "1e300,1\n2e300,2\n");
  // Interval 9e18 - (-9e18) overflowed int64 before timestamps were bounded.
  WriteText(dir, "crash-interval-overflow", "-9e18,1\n9e18,2\n");
}

void GenModelArtifactRegressions(const fs::path& dir) {
  namespace automl = fedfc::automl;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  // Spec tensor with NaN n_lags: static_cast<size_t>(NaN) in
  // FeatureEngineeringSpec::FromTensor was UB before CheckedCount.
  fedfc::fl::ModelArtifactRecord nan_spec;
  nan_spec.config = LassoConfig().ToTensor();
  nan_spec.spec = {kNaN, 1.0, 1.0, 0.0, 0.0};
  nan_spec.model_blob = {0.1, 0.2};
  WriteFile(dir, "crash-spec-nan-lags", nan_spec.ToPayload().Serialize());

  // Config tensor whose algorithm id is NaN: static_cast<int>(NaN) was UB.
  fedfc::fl::ModelArtifactRecord nan_config;
  nan_config.config = {kNaN};
  nan_config.spec = SpecimenSpec().ToTensor();
  nan_config.model_blob = {0.1, 0.2};
  WriteFile(dir, "crash-config-nan-id", nan_config.ToPayload().Serialize());

  // Tree node with a finite-but-huge feature field: passed the finite scan,
  // then static_cast<int>(1e18) in GbdtTree::FromSpan was UB.
  ModelArtifact huge_feature = XgbArtifact();
  huge_feature.blob = {0.5, 0.1, 1.0, 1.0, 1e18, 0.5, 0.0, 0.0, 0.0};
  WriteFile(dir, "crash-tree-huge-feature",
            automl::EncodeModelArtifact(huge_feature));

  // Self-referential split (children pointing at the node itself): decoded
  // fine before the preorder check and hung PredictRow forever.
  ModelArtifact cycle = XgbArtifact();
  cycle.blob = {0.5, 0.1, 1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0};
  WriteFile(dir, "crash-tree-cycle", automl::EncodeModelArtifact(cycle));

  // Zero-tree XGB blob: deserialized fine, then Predict aborted on the
  // !trees_.empty() CHECK.
  ModelArtifact empty_trees = XgbArtifact();
  empty_trees.blob = {0.5, 0.1, 0.0};
  WriteFile(dir, "crash-gbdt-empty-trees",
            automl::EncodeModelArtifact(empty_trees));

  // Linear blob narrower than the spec schema: Forecaster::Forecast reached
  // LinearRegressorBase::Predict's width CHECK and aborted.
  ModelArtifact narrow = LinearArtifact();
  narrow.blob = {0.1, 0.2, 1.5};
  WriteFile(dir, "crash-linear-width", automl::EncodeModelArtifact(narrow));

  // Raw meta-feature tensor whose seasonal count (index 16) is NaN:
  // static_cast<size_t>(NaN) in ClientMetaFeatures::FromTensor was UB.
  std::vector<double> meta(20, 0.5);
  meta[16] = kNaN;
  WriteFile(dir, "crash-meta-nan-seasonal", DoublesToBytes(meta));
}

// ---------------------------------------------------------------------------
// Corpus minimization (libFuzzer -merge=1), the hygiene gate that keeps
// committed corpora small: see the size budget in docs/STATIC_ANALYSIS.md.
// ---------------------------------------------------------------------------

int MinimizeCorpora(const fs::path& root, const fs::path& fuzzer_dir) {
  const char* harnesses[] = {"frame",          "payload",  "task_codec",
                             "model_artifact", "registry", "csv"};
  for (const char* harness : harnesses) {
    const fs::path fuzzer = fuzzer_dir / (std::string("fedfc_fuzz_") + harness);
    const fs::path corpus = root / "corpus" / harness;
    std::error_code ec;
    if (!fs::exists(fuzzer, ec)) {
      std::fprintf(stderr, "minimize: %s not built, skipping %s\n",
                   fuzzer.c_str(), harness);
      continue;
    }
    if (!fs::is_directory(corpus, ec)) continue;
    const fs::path merged = corpus.string() + ".min";
    fs::remove_all(merged, ec);
    fs::create_directories(merged, ec);
    const std::string command = fuzzer.string() + " -merge=1 " +
                                merged.string() + " " + corpus.string();
    std::fprintf(stderr, "minimize: %s\n", command.c_str());
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "minimize: merge failed for %s (rc=%d)\n", harness,
                   rc);
      return 1;
    }
    fs::remove_all(corpus, ec);
    fs::rename(merged, corpus, ec);
    if (ec) {
      std::fprintf(stderr, "minimize: cannot swap corpus for %s\n", harness);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = "tests/fuzz";
  bool regressions = false;
  bool minimize = false;
  std::string fuzzer_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--regressions") {
      regressions = true;
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--fuzzer-dir" && i + 1 < argc) {
      fuzzer_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fedfc_corpus_gen [--root DIR] [--regressions] "
                   "[--minimize --fuzzer-dir BUILDDIR]\n");
      return 2;
    }
  }

  if (minimize) {
    if (fuzzer_dir.empty()) {
      std::fprintf(stderr, "--minimize needs --fuzzer-dir BUILDDIR\n");
      return 2;
    }
    return MinimizeCorpora(root, fuzzer_dir);
  }

  const fs::path corpus = fs::path(root) / "corpus";
  GenFrameSeeds(corpus / "frame");
  GenPayloadSeeds(corpus / "payload");
  GenTaskCodecSeeds(corpus / "task_codec");
  GenModelArtifactSeeds(corpus / "model_artifact");
  GenRegistrySeeds(corpus / "registry");
  GenCsvSeeds(corpus / "csv");
  std::fprintf(stderr, "seed corpora written under %s\n", corpus.c_str());

  if (regressions) {
    const fs::path reg = fs::path(root) / "regressions";
    GenCsvRegressions(reg / "csv");
    GenModelArtifactRegressions(reg / "model_artifact");
    std::fprintf(stderr, "regression inputs written under %s\n", reg.c_str());
  }
  return 0;
}
