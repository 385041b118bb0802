#ifndef FEDFC_TESTS_BACKEND_GUARD_H_
#define FEDFC_TESTS_BACKEND_GUARD_H_

#include "ml/kernels/kernels.h"

namespace fedfc::ml {

/// Forces a kernel backend for one scope, restoring the previous choice on
/// exit so test order never leaks dispatch state.
class BackendGuard {
 public:
  explicit BackendGuard(kernels::BackendKind kind)
      : previous_(kernels::SetBackend(kind)) {}
  ~BackendGuard() { kernels::SetBackend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  kernels::BackendKind previous_;
};

}  // namespace fedfc::ml

#endif  // FEDFC_TESTS_BACKEND_GUARD_H_
