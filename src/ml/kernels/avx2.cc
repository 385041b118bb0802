// AVX2/FMA backend. This is the only translation unit in the repository
// allowed to use x86 intrinsics (enforced by the fedfc_lint `intrinsics`
// rule); it is compiled with -mavx2 -mfma only for x86 targets whose
// compiler supports those flags, and otherwise degrades to a null backend.
//
// Numerical contract (docs/PERFORMANCE.md): lane-parallel partial sums
// reassociate additions and FMAs contract mul+add into one rounding, so
// gemm_* here are tolerance-bounded against the scalar oracle rather than
// bit-identical. axpy is elementwise (FMA contraction only).

#include "ml/kernels/internal.h"

#if defined(FEDFC_KERNELS_ENABLE_AVX2)

#include <immintrin.h>

namespace fedfc::ml::kernels {
namespace {

/// Sums the four lanes of v.
inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

/// Lane-wise reduction of four accumulators: returns
/// [sum(v0), sum(v1), sum(v2), sum(v3)].
inline __m256d HorizontalSum4(__m256d v0, __m256d v1, __m256d v2, __m256d v3) {
  const __m256d h01 = _mm256_hadd_pd(v0, v1);  // [v0a, v1a, v0b, v1b]
  const __m256d h23 = _mm256_hadd_pd(v2, v3);  // [v2a, v3a, v2b, v3b]
  const __m256d swapped = _mm256_permute2f128_pd(h01, h23, 0x21);
  const __m256d blended = _mm256_blend_pd(h01, h23, 0b1100);
  return _mm256_add_pd(swapped, blended);
}

void Avx2Axpy(size_t n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2GemmNN(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const double av = a_row[p];
      if (av == 0.0) continue;  // ReLU-sparse activations (see scalar.cc).
      const double* b_row = b + p * ldb;
      const __m256d vav = _mm256_set1_pd(av);
      size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        _mm256_storeu_pd(
            c_row + j, _mm256_fmadd_pd(vav, _mm256_loadu_pd(b_row + j),
                                       _mm256_loadu_pd(c_row + j)));
      }
      for (; j < n; ++j) c_row[j] += av * b_row[j];
    }
  }
}

void Avx2GemmBiasNT(size_t m, size_t n, size_t k, const double* a, size_t lda,
                    const double* b, size_t ldb, const double* bias, double* c,
                    size_t ldc) {
  const size_t k4 = k & ~static_cast<size_t>(3);
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    size_t j = 0;
    // 1x4 register-blocked microkernel: one A row against four B rows.
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (size_t p = 0; p < k4; p += 4) {
        const __m256d av = _mm256_loadu_pd(a_row + p);
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b0 + p), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b1 + p), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b2 + p), acc2);
        acc3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b3 + p), acc3);
      }
      __m256d sums = HorizontalSum4(acc0, acc1, acc2, acc3);
      if (k4 != k) {
        double tail[4] = {0.0, 0.0, 0.0, 0.0};
        for (size_t p = k4; p < k; ++p) {
          const double av = a_row[p];
          tail[0] += b0[p] * av;
          tail[1] += b1[p] * av;
          tail[2] += b2[p] * av;
          tail[3] += b3[p] * av;
        }
        sums = _mm256_add_pd(sums, _mm256_loadu_pd(tail));
      }
      if (bias != nullptr) sums = _mm256_add_pd(sums, _mm256_loadu_pd(bias + j));
      _mm256_storeu_pd(c_row + j, sums);
    }
    // Ragged n tail: one dot product per remaining output.
    for (; j < n; ++j) {
      const double* b_row = b + j * ldb;
      __m256d acc = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(a_row + p),
                              _mm256_loadu_pd(b_row + p), acc);
      }
      double sum = HorizontalSum(acc);
      for (; p < k; ++p) sum += b_row[p] * a_row[p];
      c_row[j] = (bias != nullptr ? bias[j] : 0.0) + sum;
    }
  }
}

}  // namespace

const Backend* Avx2BackendImpl() {
  static const Backend backend = {
      "avx2", Avx2Axpy, Avx2GemmNN, Avx2GemmBiasNT,
  };
  return &backend;
}

}  // namespace fedfc::ml::kernels

#else  // !FEDFC_KERNELS_ENABLE_AVX2

namespace fedfc::ml::kernels {

const Backend* Avx2BackendImpl() { return nullptr; }

}  // namespace fedfc::ml::kernels

#endif  // FEDFC_KERNELS_ENABLE_AVX2
