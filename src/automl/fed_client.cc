#include "automl/fed_client.h"

#include <algorithm>
#include <cmath>

#include "automl/model_io.h"
#include "features/feature_selection.h"
#include "ml/metrics.h"

namespace fedfc::automl {

ForecastClient::ForecastClient(std::string id, ts::Series series, Options options)
    : id_(std::move(id)),
      series_(std::move(series)),
      options_(options),
      rng_(options.seed) {
  RegisterHandlers();
}

void ForecastClient::RegisterHandlers() {
  registry_.RegisterTyped<fl::MetaFeaturesRequest, fl::MetaFeaturesReply>(
      tasks::kMetaFeatures,
      [this](const fl::MetaFeaturesRequest& r) { return HandleMetaFeatures(r); });
  registry_.RegisterTyped<fl::FeatureImportanceRequest, fl::FeatureImportanceReply>(
      tasks::kFeatureImportance, [this](const fl::FeatureImportanceRequest& r) {
        return HandleFeatureImportance(r);
      });
  registry_.RegisterTyped<fl::FitEvaluateRequest, fl::FitEvaluateReply>(
      tasks::kFitEvaluate,
      [this](const fl::FitEvaluateRequest& r) { return HandleFitEvaluate(r); });
  registry_.RegisterTyped<fl::FitFinalRequest, fl::FitFinalReply>(
      tasks::kFitFinal,
      [this](const fl::FitFinalRequest& r) { return HandleFitFinal(r); });
  registry_.RegisterTyped<fl::EvaluateModelRequest, fl::EvaluateModelReply>(
      tasks::kEvaluateModel,
      [this](const fl::EvaluateModelRequest& r) { return HandleEvaluateModel(r); });
}

Result<fl::Payload> ForecastClient::Handle(const std::string& task,
                                           const fl::Payload& request) {
  return registry_.Dispatch(task, request);
}

size_t ForecastClient::num_examples() const {
  auto test = static_cast<size_t>(options_.test_fraction *
                                  static_cast<double>(series_.size()));
  return series_.size() - test;
}

ForecastClient::RowSplit ForecastClient::SplitRows(size_t n_rows) const {
  RowSplit split;
  auto n_test = static_cast<size_t>(options_.test_fraction *
                                    static_cast<double>(n_rows));
  split.valid_end = n_rows - n_test;
  auto n_valid = static_cast<size_t>(options_.valid_fraction *
                                     static_cast<double>(split.valid_end));
  split.train_end = split.valid_end - n_valid;
  return split;
}

Result<const features::EngineeredData*> ForecastClient::EngineeredFor(
    const std::vector<double>& spec_tensor) {
  if (cached_data_.has_value() && cached_spec_tensor_ == spec_tensor) {
    return Result<const features::EngineeredData*>(&*cached_data_);
  }
  FEDFC_ASSIGN_OR_RETURN(features::FeatureEngineeringSpec spec,
                         features::FeatureEngineeringSpec::FromTensor(spec_tensor));
  FEDFC_ASSIGN_OR_RETURN(features::EngineeredData data,
                         features::EngineerFeatures(series_, spec));
  cached_data_ = std::move(data);
  cached_spec_tensor_ = spec_tensor;
  return Result<const features::EngineeredData*>(&*cached_data_);
}

Result<fl::MetaFeaturesReply> ForecastClient::HandleMetaFeatures(
    const fl::MetaFeaturesRequest&) {
  // Meta-features are computed over the training region only — the test
  // tail must not leak into the pipeline configuration.
  ts::Series head = series_.Slice(0, num_examples());
  features::ClientMetaFeatures mf = features::ComputeClientMetaFeatures(head);
  fl::MetaFeaturesReply reply;
  reply.meta_features = mf.ToTensor();
  reply.n_instances = static_cast<int64_t>(head.size());
  return reply;
}

Result<fl::FeatureImportanceReply> ForecastClient::HandleFeatureImportance(
    const fl::FeatureImportanceRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(const features::EngineeredData* data,
                         EngineeredFor(request.spec));
  RowSplit split = SplitRows(data->x.rows());
  features::EngineeredData train_view;
  std::vector<size_t> idx(split.train_end);
  for (size_t i = 0; i < split.train_end; ++i) idx[i] = i;
  train_view.x = data->x.SelectRows(idx);
  train_view.y.assign(
      data->y.begin(),
      data->y.begin() + static_cast<std::ptrdiff_t>(split.train_end));
  fl::FeatureImportanceReply reply;
  FEDFC_ASSIGN_OR_RETURN(reply.importances,
                         features::ComputeFeatureImportances(train_view, &rng_));
  return reply;
}

Result<fl::FitEvaluateReply> ForecastClient::HandleFitEvaluate(
    const fl::FitEvaluateRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(Configuration config,
                         Configuration::FromTensor(request.config));
  FEDFC_ASSIGN_OR_RETURN(const features::EngineeredData* data,
                         EngineeredFor(request.spec));
  RowSplit split = SplitRows(data->x.rows());
  if (split.train_end < 8 || split.valid_end <= split.train_end) {
    return Status::FailedPrecondition("client split too small to fit/evaluate");
  }

  // Rolling-origin validation: two forward-chaining folds over the
  // non-test head. Averaging across validation windows makes the
  // configuration ranking far less sensitive to the last window's noise
  // (every search method is scored identically, so the comparison is fair).
  size_t n_valid_rows = split.valid_end - split.train_end;
  struct Fold {
    size_t fit_end;
    size_t eval_end;
  };
  std::vector<Fold> folds;
  size_t mid = split.train_end + n_valid_rows / 2;
  if (n_valid_rows >= 8) {
    folds.push_back({split.train_end, mid});
    folds.push_back({mid, split.valid_end});
  } else {
    folds.push_back({split.train_end, split.valid_end});
  }

  double total_loss = 0.0;
  size_t total_points = 0;
  for (const Fold& fold : folds) {
    std::vector<size_t> fit_idx(fold.fit_end);
    for (size_t i = 0; i < fold.fit_end; ++i) fit_idx[i] = i;
    Matrix x_fit = data->x.SelectRows(fit_idx);
    std::vector<double> y_fit(
        data->y.begin(),
        data->y.begin() + static_cast<std::ptrdiff_t>(fold.fit_end));
    FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                           CreateRegressor(config));
    FEDFC_RETURN_IF_ERROR(model->Fit(x_fit, y_fit, &rng_));

    std::vector<size_t> eval_idx;
    for (size_t i = fold.fit_end; i < fold.eval_end; ++i) eval_idx.push_back(i);
    Matrix x_eval = data->x.SelectRows(eval_idx);
    std::vector<double> y_eval(
        data->y.begin() + static_cast<std::ptrdiff_t>(fold.fit_end),
        data->y.begin() + static_cast<std::ptrdiff_t>(fold.eval_end));
    std::vector<double> pred = model->Predict(x_eval);
    double sse = 0.0;
    for (size_t i = 0; i < y_eval.size(); ++i) {
      double e = y_eval[i] - pred[i];
      sse += e * e;
    }
    total_loss += sse;
    total_points += y_eval.size();
  }
  double loss = total_loss / static_cast<double>(total_points);
  if (!std::isfinite(loss)) {
    return Status::Internal("non-finite validation loss");
  }
  fl::FitEvaluateReply reply;
  reply.valid_loss = loss;
  reply.n_valid = static_cast<int64_t>(total_points);
  return reply;
}

Result<fl::FitFinalReply> ForecastClient::HandleFitFinal(
    const fl::FitFinalRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(Configuration config,
                         Configuration::FromTensor(request.config));
  FEDFC_ASSIGN_OR_RETURN(const features::EngineeredData* data,
                         EngineeredFor(request.spec));
  RowSplit split = SplitRows(data->x.rows());
  // Final fit uses train + validation (Algorithm 1 lines 23-25).
  std::vector<size_t> idx(split.valid_end);
  for (size_t i = 0; i < split.valid_end; ++i) idx[i] = i;
  Matrix x_fit = data->x.SelectRows(idx);
  std::vector<double> y_fit(
      data->y.begin(),
      data->y.begin() + static_cast<std::ptrdiff_t>(split.valid_end));

  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         CreateRegressor(config));
  FEDFC_RETURN_IF_ERROR(model->Fit(x_fit, y_fit, &rng_));
  fl::FitFinalReply reply;
  FEDFC_ASSIGN_OR_RETURN(reply.model_blob, SerializeModel(config, *model));
  reply.n_fit = static_cast<int64_t>(y_fit.size());
  return reply;
}

Result<fl::EvaluateModelReply> ForecastClient::HandleEvaluateModel(
    const fl::EvaluateModelRequest& request) {
  FEDFC_ASSIGN_OR_RETURN(Configuration config,
                         Configuration::FromTensor(request.config));
  FEDFC_ASSIGN_OR_RETURN(std::unique_ptr<ml::Regressor> model,
                         DeserializeModel(config, request.model_blob));
  FEDFC_ASSIGN_OR_RETURN(const features::EngineeredData* data,
                         EngineeredFor(request.spec));
  RowSplit split = SplitRows(data->x.rows());
  if (split.valid_end >= data->x.rows()) {
    return Status::FailedPrecondition("client has no test rows");
  }
  std::vector<size_t> test_idx;
  for (size_t i = split.valid_end; i < data->x.rows(); ++i) test_idx.push_back(i);
  Matrix x_test = data->x.SelectRows(test_idx);
  std::vector<double> y_test(
      data->y.begin() + static_cast<std::ptrdiff_t>(split.valid_end),
      data->y.end());
  // The global blob came off the wire: a width that disagrees with the
  // locally engineered rows must be a typed error, not a Predict abort or
  // an out-of-bounds tree lookup.
  FEDFC_RETURN_IF_ERROR(model->ValidateFeatureWidth(x_test.cols()));
  std::vector<double> pred = model->Predict(x_test);
  fl::EvaluateModelReply reply;
  reply.test_loss = ml::MeanSquaredError(y_test, pred);
  reply.n_test = static_cast<int64_t>(y_test.size());
  return reply;
}

}  // namespace fedfc::automl
