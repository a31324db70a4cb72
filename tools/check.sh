#!/usr/bin/env bash
# Secret-hygiene entry point: medlint + clang-tidy + sanitizer build/test.
#
# Usage: tools/check.sh [--fast]
#   --fast  incremental medlint only: files whose content hash hits the
#           summary cache are skipped, so an unchanged tree lints in
#           milliseconds. Skips clang-tidy and the sanitizer build. The
#           full run (CI's static-analysis job) stays authoritative —
#           a changed callee can surface findings in an unchanged caller,
#           which incremental mode won't see.
#
# To run the fast mode before every commit, install it as a hook:
#   ln -s ../../tools/check.sh .git/hooks/pre-commit   # hook argv has no
#   # --fast, so the hook detects its own name and picks the fast path.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1
# Invoked as a git pre-commit hook (via the symlink above)? Default to fast.
[[ "$(basename "$0")" == "pre-commit" ]] && fast=1

medlint_args=(
  --src "$repo/src"
  --src "$repo/tools"
  --allowlist "$repo/tools/medlint/allowlist.txt"
  --baseline "$repo/tools/medlint/baseline.txt"
  --extern-allowlist "$repo/tools/medlint/extern_calls.txt"
  --summary-cache "$repo/build/medlint_facts.cache"
  --stats
)

echo "== medlint =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" --target medlint -j "$(nproc)" >/dev/null
if [[ "$fast" -eq 1 ]]; then
  "$repo/build/tools/medlint/medlint" "${medlint_args[@]}" --incremental
  echo "== fast mode: clang-tidy and sanitizers skipped =="
  exit 0
fi
"$repo/build/tools/medlint/medlint" "${medlint_args[@]}"

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B "$repo/build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Sources only; headers are covered via HeaderFilterRegex in .clang-tidy.
  find "$repo/src" "$repo/tools/medlint" -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$repo/build" --quiet
else
  echo "clang-tidy not found; skipping (install LLVM tools to enable)"
fi

echo "== sanitizer build (address,undefined) =="
cmake -B "$repo/build-asan" -S "$repo" \
  -DMEDCRYPT_SANITIZE=address,undefined >/dev/null
cmake --build "$repo/build-asan" -j "$(nproc)" >/dev/null
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$(nproc)"

echo "== all checks passed =="
