// Scalar reference backend: the portable fallback and the oracle for the
// SIMD parity tests. Every loop here preserves the exact accumulation order
// of the pre-kernel-layer code it replaced (including the a == 0.0 row skip
// in gemm_nn, which Matrix::Multiply carried for ReLU-sparse activations),
// so seeded runs on this backend are bit-identical to the historical
// library. Do not "optimize" these loops — correctness here is defined as
// reproducing that order; speed lives in avx2.cc.

#include "ml/kernels/kernels.h"

namespace fedfc::ml::kernels {
namespace {

void ScalarAxpy(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarGemmNN(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const double av = a_row[p];
      if (av == 0.0) continue;
      const double* b_row = b + p * ldb;
      for (size_t j = 0; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

void ScalarGemmBiasNT(size_t m, size_t n, size_t k, const double* a,
                      size_t lda, const double* b, size_t ldb,
                      const double* bias, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * ldb;
      double acc = bias != nullptr ? bias[j] : 0.0;
      for (size_t p = 0; p < k; ++p) acc += b_row[p] * a_row[p];
      c_row[j] = acc;
    }
  }
}

}  // namespace

const Backend& ScalarBackend() {
  static const Backend backend = {
      "scalar", ScalarAxpy, ScalarGemmNN, ScalarGemmBiasNT,
  };
  return backend;
}

}  // namespace fedfc::ml::kernels
