#!/usr/bin/env bash
# Full verification gate for this repository (see docs/STATIC_ANALYSIS.md):
#
#   tsan    ThreadSanitizer over the concurrency-sensitive suites (tests/core,
#           tests/fl, tests/net, tests/serve, the automl engine/phases
#           suites that drive concurrent rounds, and the knowledge-base
#           suite whose record fan-out runs on the pool), built into
#           build-tsan/.
#   asan    AddressSanitizer (+ leak checking) over the full test suite,
#           built into build-asan/.
#   ubsan   UndefinedBehaviorSanitizer (non-recoverable) over the full test
#           suite, built into build-ubsan/.
#   lint    fedfc_lint repo-invariant linter (11 rules incl. the whole-program
#           layering and fuzz_coverage passes; `--list-rules`
#           prints the set) + its per-rule
#           self-tests, and clang-tidy over src/ when clang-tidy is installed.
#   format  clang-format --dry-run over tracked sources when clang-format is
#           installed (check-only; never rewrites).
#   threadsafety
#           Clang Thread Safety Analysis: builds the whole tree with clang
#           and -Wthread-safety -Werror=thread-safety (FEDFC_THREAD_SAFETY=ON)
#           in build-threadsafety/, then runs the analysis.threadsafety.*
#           compile-fail harness. Skips with a notice when clang++ is not
#           installed (CI provides it).
#   fuzz    libFuzzer smoke: builds every tests/fuzz harness with clang and
#           -fsanitize=fuzzer,address,undefined (FEDFC_FUZZ=ON) into
#           build-fuzz/, then runs each for FEDFC_FUZZ_SECONDS (default 30)
#           seeded with the committed corpus + regression inputs. Crashers
#           land in build-fuzz/fuzz-artifacts/. Skips with a notice when
#           clang++ is not installed (CI provides it).
#   plain   Release build of everything + the full ctest suite, in build/.
#
# All phases build with FEDFC_WERROR=ON, so any warning in the upgraded tier
# fails the gate.
#
# Usage: scripts/check.sh                 # all phases
#        scripts/check.sh <phase> [...]   # any subset, in the given order
#
# Works with the default Makefiles generator; pass -G Ninja through
# CMAKE_GENERATOR if preferred.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
phases=("$@")
if [[ ${#phases[@]} -eq 0 ]]; then
  phases=(tsan asan ubsan lint format threadsafety fuzz plain)
fi
for p in "${phases[@]}"; do
  case "$p" in
    tsan|asan|ubsan|lint|format|threadsafety|fuzz|plain|all) ;;
    *) echo "usage: $0 [tsan|asan|ubsan|lint|format|threadsafety|fuzz|plain ...]" >&2
       exit 2 ;;
  esac
done
if [[ " ${phases[*]} " == *" all "* ]]; then
  phases=(tsan asan ubsan lint format threadsafety fuzz plain)
fi

run_sanitizer_suite() {
  # $1 = preset name (thread|address|undefined), $2 = build dir,
  # $3 = target, $4... = command to run from the repo root.
  # -D_GLIBCXX_ASSERTIONS turns libstdc++ precondition breaks (a bad
  # distribution parameter, an out-of-range operator[]) into aborts, which
  # the sanitizers alone do not see.
  local preset="$1" dir="$2" target="$3"
  shift 3
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFEDFC_WERROR=ON \
    -DFEDFC_SANITIZE="$preset" \
    -DCMAKE_CXX_FLAGS="-O1 -D_GLIBCXX_ASSERTIONS"
  cmake --build "$dir" --target "$target" -j"$jobs"
  "$@"
}

for phase in "${phases[@]}"; do
  case "$phase" in
    tsan)
      echo "=== [tsan] ThreadSanitizer: core/ + fl/ + net/ + serve/ + automl engine/phases/KB ==="
      run_sanitizer_suite thread build-tsan fedfc_concurrency_tests \
        ./build-tsan/tests/fedfc_concurrency_tests
      ;;
    asan)
      echo "=== [asan] AddressSanitizer: full test suite ==="
      run_sanitizer_suite address build-asan fedfc_tests \
        ./build-asan/tests/fedfc_tests
      ;;
    ubsan)
      echo "=== [ubsan] UndefinedBehaviorSanitizer: full test suite ==="
      run_sanitizer_suite undefined build-ubsan fedfc_tests \
        ./build-ubsan/tests/fedfc_tests
      ;;
    lint)
      echo "=== [lint] fedfc_lint + clang-tidy ==="
      cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DFEDFC_WERROR=ON \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
      cmake --build build --target fedfc_lint -j"$jobs"
      ./build/tools/fedfc_lint/fedfc_lint --list-rules
      ./build/tools/fedfc_lint/fedfc_lint --self-test
      ./build/tools/fedfc_lint/fedfc_lint .
      if command -v clang-tidy >/dev/null 2>&1; then
        # shellcheck disable=SC2046
        clang-tidy -p build --quiet --warnings-as-errors='*' \
          $(git ls-files 'src/*.cc') || exit 1
      else
        echo "clang-tidy not installed; skipping (CI runs it)"
      fi
      ;;
    format)
      # Check-only, and only over files that changed relative to main (or the
      # previous commit when main is checked out) — the tree is adopted
      # incrementally, never mass-reformatted.
      echo "=== [format] clang-format (check only, changed files) ==="
      if command -v clang-format >/dev/null 2>&1; then
        base="$(git merge-base HEAD origin/main 2>/dev/null \
                || git rev-parse HEAD~1 2>/dev/null || echo HEAD)"
        changed="$( { git diff --name-only --diff-filter=ACMR "$base" \
                        -- '*.cc' '*.cpp' '*.h';
                      git diff --name-only --diff-filter=ACMR \
                        -- '*.cc' '*.cpp' '*.h'; } | sort -u)"
        if [[ -n "$changed" ]]; then
          # shellcheck disable=SC2086
          clang-format --dry-run --Werror $changed || exit 1
        else
          echo "no changed C++ files to check"
        fi
      else
        echo "clang-format not installed; skipping (CI runs it)"
      fi
      ;;
    threadsafety)
      echo "=== [threadsafety] clang -Wthread-safety over the full tree ==="
      if command -v clang++ >/dev/null 2>&1; then
        # FEDFC_WERROR stays off here so only thread-safety findings (already
        # -Werror=thread-safety via FEDFC_THREAD_SAFETY) can fail the phase —
        # clang's unrelated warning set may differ from GCC's.
        cmake -B build-threadsafety -S . \
          -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DFEDFC_THREAD_SAFETY=ON
        cmake --build build-threadsafety -j"$jobs"
        ctest --test-dir build-threadsafety -R '^analysis\.' \
          --output-on-failure -j"$jobs"
      else
        echo "clang++ not installed; skipping (CI runs it)"
      fi
      ;;
    fuzz)
      echo "=== [fuzz] libFuzzer smoke over every harness ==="
      if command -v clang++ >/dev/null 2>&1; then
        # FEDFC_WERROR stays off for the same reason as threadsafety: only
        # fuzzer-found crashes and sanitizer reports may fail this phase.
        cmake -B build-fuzz -S . \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DFEDFC_FUZZ=ON
        cmake --build build-fuzz --target fedfc_fuzzers -j"$jobs"
        mkdir -p build-fuzz/fuzz-artifacts
        seconds="${FEDFC_FUZZ_SECONDS:-30}"
        for harness in frame payload task_codec model_artifact registry csv; do
          echo "--- fuzzing $harness (${seconds}s) ---"
          # libFuzzer grows the FIRST positional directory; point that at a
          # scratch dir so the committed corpus stays minimized (regenerate
          # and re-minimize it with fedfc_corpus_gen, never from here).
          scratch="build-fuzz/fuzz-corpus/$harness"
          mkdir -p "$scratch"
          seeds=("$scratch")
          [[ -d "tests/fuzz/corpus/$harness" ]] \
            && seeds+=("tests/fuzz/corpus/$harness")
          [[ -d "tests/fuzz/regressions/$harness" ]] \
            && seeds+=("tests/fuzz/regressions/$harness")
          "./build-fuzz/tests/fuzz/fedfc_fuzz_$harness" \
            -max_total_time="$seconds" \
            -dict="tests/fuzz/dict/$harness.dict" \
            -artifact_prefix="build-fuzz/fuzz-artifacts/$harness-" \
            -print_final_stats=1 \
            "${seeds[@]}"
        done
      else
        echo "clang++ not installed; skipping (CI runs it)"
      fi
      ;;
    plain)
      echo "=== [plain] Release build + full ctest ==="
      cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DFEDFC_WERROR=ON
      cmake --build build -j"$jobs"
      ctest --test-dir build --output-on-failure -j"$jobs"
      ;;
  esac
done

echo "All checks passed."
