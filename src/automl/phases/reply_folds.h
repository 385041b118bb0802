#ifndef FEDFC_AUTOML_PHASES_REPLY_FOLDS_H_
#define FEDFC_AUTOML_PHASES_REPLY_FOLDS_H_

#include <utility>
#include <vector>

#include "automl/model_io.h"
#include "core/result.h"
#include "fl/aggregation.h"
#include "fl/round.h"

namespace fedfc::automl::phases {

/// Typed streaming folds shared by every automl round call site: each
/// consumer decodes a reply payload with the typed codec, folds the decoded
/// value into a streaming fl:: accumulator, and drops the payload — the
/// engine never materializes a round. Weights arrive raw (|D_j|) per the
/// ReplyConsumer contract; the accumulators renormalize on their running
/// totals.

/// Equation 1 fold of one scalar per reply. `DecodeFn` maps a payload to
/// the scalar (`Result<double>(const fl::Payload&)`); a decode failure
/// aborts the round with that status.
template <typename DecodeFn>
class ScalarFoldConsumer : public fl::ReplyConsumer {
 public:
  explicit ScalarFoldConsumer(DecodeFn decode) : decode_(std::move(decode)) {}

  Status Consume(fl::ClientReply&& r) override {
    FEDFC_ASSIGN_OR_RETURN(double value, decode_(r.payload));
    acc_.Add(r.weight, value);
    return Status::OK();
  }

  Status Finish() override { return Status::OK(); }

  [[nodiscard]] Result<double> Mean() const { return acc_.Mean(); }

 private:
  DecodeFn decode_;
  fl::ScalarAccumulator acc_;
};

template <typename DecodeFn>
ScalarFoldConsumer<DecodeFn> MakeScalarFold(DecodeFn decode) {
  return ScalarFoldConsumer<DecodeFn>(std::move(decode));
}

/// FedAvg fold of one tensor per reply (N-BEATS parameter rounds).
/// `DecodeFn` is `Result<std::vector<double>>(const fl::Payload&)`; a
/// decode failure or a tensor shape mismatch aborts the round.
template <typename DecodeFn>
class TensorFoldConsumer : public fl::ReplyConsumer {
 public:
  explicit TensorFoldConsumer(DecodeFn decode) : decode_(std::move(decode)) {}

  Status Consume(fl::ClientReply&& r) override {
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> tensor, decode_(r.payload));
    return acc_.Add(r.weight, tensor);
  }

  Status Finish() override { return Status::OK(); }

  [[nodiscard]] Result<std::vector<double>> Mean() const { return acc_.Mean(); }

 private:
  DecodeFn decode_;
  fl::TensorAccumulator acc_;
};

template <typename DecodeFn>
TensorFoldConsumer<DecodeFn> MakeTensorFold(DecodeFn decode) {
  return TensorFoldConsumer<DecodeFn>(std::move(decode));
}

/// Streams final-fit replies straight into a `ModelBlobAccumulator`: each
/// client's model blob is folded into the global model and dropped, so the
/// final fit holds one aggregate — not one blob per client — however many
/// clients replied. `DecodeFn` maps a payload to the client's blob.
template <typename DecodeFn>
class ModelBlobFoldConsumer : public fl::ReplyConsumer {
 public:
  ModelBlobFoldConsumer(const Configuration& config, DecodeFn decode)
      : decode_(std::move(decode)), acc_(config) {}

  Status Consume(fl::ClientReply&& r) override {
    FEDFC_ASSIGN_OR_RETURN(std::vector<double> blob, decode_(r.payload));
    return acc_.Add(r.weight, blob);
  }

  Status Finish() override { return Status::OK(); }

  /// One-shot: finalizes the accumulated global blob.
  Result<std::vector<double>> TakeBlob() { return acc_.Finish(); }

 private:
  DecodeFn decode_;
  ModelBlobAccumulator acc_;
};

template <typename DecodeFn>
ModelBlobFoldConsumer<DecodeFn> MakeModelBlobFold(const Configuration& config,
                                                  DecodeFn decode) {
  return ModelBlobFoldConsumer<DecodeFn>(config, std::move(decode));
}

}  // namespace fedfc::automl::phases

#endif  // FEDFC_AUTOML_PHASES_REPLY_FOLDS_H_
