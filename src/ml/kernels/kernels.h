#ifndef FEDFC_ML_KERNELS_KERNELS_H_
#define FEDFC_ML_KERNELS_KERNELS_H_

#include <cstddef>

#include "core/matrix.h"

namespace fedfc::ml::kernels {

/// The hot-math kernel layer (see docs/ARCHITECTURE.md, "Kernel layer").
///
/// Every operation exists in (at least) two implementations: a **scalar
/// reference backend** that preserves the exact accumulation order of the
/// pre-kernel-layer library — the portable fallback and the oracle the
/// parity tests compare against — and an **AVX2/FMA backend** that is
/// selected at runtime when the CPU supports it. Dispatch happens once, at
/// the first kernel call; `FEDFC_KERNEL_BACKEND=scalar|avx2|auto` forces the
/// choice (forcing `avx2` on a machine without AVX2+FMA aborts with a clear
/// message rather than silently falling back).
///
/// Numerical contract:
///   - The scalar backend is bit-identical to the historical loops it
///     replaced; seeded end-to-end runs on the scalar backend reproduce the
///     pre-refactor library bit-for-bit.
///   - The AVX2 backend may reassociate additions (lane-parallel partial
///     sums) and contract multiply-add pairs into FMAs, so `axpy` and
///     `gemm_*` results differ from scalar by a relative epsilon documented
///     in docs/PERFORMANCE.md (parity tests enforce 1e-9 relative).
struct Backend {
  const char* name;  ///< "scalar" or "avx2" (stable; recorded in BENCH json).

  /// y[i] += alpha * x[i]. Elementwise, so backends differ only by FMA
  /// contraction (one rounding instead of two), never by reassociation.
  void (*axpy)(size_t n, double alpha, const double* x, double* y);

  /// C(m x n) += A(m x k) * B(k x n), all row-major with leading dimensions
  /// lda/ldb/ldc >= their row widths. The scalar implementation keeps the
  /// historical i-k-j order including the a==0.0 row skip (ReLU-sparse
  /// activations), so refactored callers stay bit-identical.
  void (*gemm_nn)(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc);

  /// C(m x n) = bias(n) + A(m x k) * B(n x k)^T. B is row-major (n x k) —
  /// the dense-layer weight layout — so every output is a contiguous dot
  /// product. bias may be null (treated as zeros).
  void (*gemm_bias_nt)(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb,
                       const double* bias, double* c, size_t ldc);
};

enum class BackendKind { kScalar, kAvx2 };

/// The scalar reference backend (always available).
const Backend& ScalarBackend();

/// The AVX2/FMA backend, or null when it was compiled out (non-x86 target or
/// a compiler without -mavx2 -mfma) or the running CPU lacks AVX2/FMA.
const Backend* Avx2BackendOrNull();

/// The dispatched backend: resolved once from FEDFC_KERNEL_BACKEND (default
/// "auto" = AVX2 when available, else scalar) at the first call, then pinned.
const Backend& ActiveBackend();

/// Forces the active backend (tests and benches). Returns the previously
/// active backend kind so callers can restore it. Must not race in-flight
/// kernel calls; aborts if `kind` is kAvx2 on a machine without AVX2/FMA.
BackendKind SetBackend(BackendKind kind);

// ---------------------------------------------------------------------------
// Dispatched convenience wrappers.
// ---------------------------------------------------------------------------

inline void Axpy(size_t n, double alpha, const double* x, double* y) {
  ActiveBackend().axpy(n, alpha, x, y);
}

inline void GemmNN(size_t m, size_t n, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* c, size_t ldc) {
  ActiveBackend().gemm_nn(m, n, k, a, lda, b, ldb, c, ldc);
}

inline void GemmBiasNT(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb,
                       const double* bias, double* c, size_t ldc) {
  ActiveBackend().gemm_bias_nt(m, n, k, a, lda, b, ldb, bias, c, ldc);
}

/// out = a * b through the dispatched gemm_nn (row-major matrix product).
/// The scalar backend reproduces Matrix::Multiply bit-for-bit.
Matrix MatMul(const Matrix& a, const Matrix& b);

}  // namespace fedfc::ml::kernels

#endif  // FEDFC_ML_KERNELS_KERNELS_H_
