#!/usr/bin/env bash
# Dead-code census: lists the locat:: functions that the liblocat_*.a
# libraries define but that no shipped binary contains, and fails unless
# that list is exactly the checked-in allowlist.
#
#   scripts/dead_code_census.sh [BUILD_DIR]     (run from anywhere)
#
# BUILD_DIR (default build-census/ in the repository root) receives two
# builds, both at -O0 with per-function sections and --gc-sections:
#   tree/       the top-level project (library, CLI, benches, examples, tests)
#   perfbench/  the perfbench/ package, whose binary drives the library
#               through entry points no other binary calls
# A library function is alive when its text symbol is in some executable
# under tree/src/tools, tree/bench, tree/examples or in locat_perfbench;
# the test binary does not count. -O0 matters: at -O2 a function inlined
# at every call site leaves no symbol and would read as dead.
#
# Header-inline functions are weak symbols and not counted; the census
# sees only functions defined out of line in src/.
#
# Exit status: 0 when the dead set equals the allowlist, 1 when a function
# outside the allowlist is dead or an allowlist entry is stale (no longer
# defined, or reached by a binary), 2 on a build or usage error.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
ALLOWLIST="$ROOT/scripts/dead_code_allowlist.txt"
OUT=${1:-$ROOT/build-census}

if [ $# -gt 1 ]; then
  echo "usage: $0 [BUILD_DIR]" >&2
  exit 2
fi

# -O0 through a build type of its own, so no Release/Debug defaults
# (-O3, -g) are appended.
CONFIGURE=(-DCMAKE_BUILD_TYPE=Census -DCMAKE_CXX_FLAGS_CENSUS=-O0
  "-DCMAKE_CXX_FLAGS=-Werror -ffunction-sections -fdata-sections"
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

build() {
  local src=$1 dir=$2
  shift 2
  if ! { cmake -S "$src" -B "$dir" "${CONFIGURE[@]}" &&
         cmake --build "$dir" -j"$(nproc)" "$@"; } > "$dir.log" 2>&1; then
    tail -n 40 "$dir.log" >&2
    echo "census: build of $src failed (log: $dir.log)" >&2
    exit 2
  fi
}

mkdir -p "$OUT"
build "$ROOT" "$OUT/tree"
build "$ROOT/perfbench" "$OUT/perfbench" --target locat_perfbench

mapfile -t libs < <(find "$OUT/tree/src" -name 'liblocat_*.a' | sort)
mapfile -t bins < <({
  find "$OUT/tree/src/tools" "$OUT/tree/bench" "$OUT/tree/examples" \
    -maxdepth 1 -type f -perm -u+x
  echo "$OUT/perfbench/locat_perfbench"
} | sort)
if [ "${#libs[@]}" -eq 0 ] || [ ! -x "$OUT/perfbench/locat_perfbench" ]; then
  echo "census: no libraries or no perfbench binary under $OUT" >&2
  exit 2
fi

# nm prints "ADDR TYPE NAME"; the demangled NAME may contain spaces.
names() { sed -E 's/^[0-9a-f]* [A-Za-z] //'; }

nm -C --defined-only "${libs[@]}" 2> /dev/null |
  awk '$2 == "T"' | names | grep '^locat::' | sort -u > "$OUT/defined.txt"
for bin in "${bins[@]}"; do
  nm -C --defined-only "$bin" | awk '$2 ~ /^[TtWw]$/' | names
done | sort -u > "$OUT/reached.txt"
comm -23 "$OUT/defined.txt" "$OUT/reached.txt" > "$OUT/dead.txt"

# Allowlist lines are "SYMBOL  # reason"; blank and '#' lines are comments.
status=0
grep -vE '^[[:space:]]*(#|$)' "$ALLOWLIST" > "$OUT/allow-lines.txt" || true
if grep -vE ' # [^[:space:]]' "$OUT/allow-lines.txt"; then
  echo "census: the allowlist entries above give no reason" >&2
  status=1
fi
sed -E 's/[[:space:]]+#.*$//' "$OUT/allow-lines.txt" | sort -u \
  > "$OUT/allowed.txt"

comm -23 "$OUT/dead.txt" "$OUT/allowed.txt" > "$OUT/unlisted.txt"
comm -13 "$OUT/dead.txt" "$OUT/allowed.txt" > "$OUT/stale.txt"

echo "census: $(wc -l < "$OUT/defined.txt") locat:: functions defined," \
  "$(wc -l < "$OUT/dead.txt") in no shipped binary" \
  "(${#bins[@]} binaries), $(wc -l < "$OUT/allowed.txt") allowlisted"
if [ -s "$OUT/unlisted.txt" ]; then
  echo "census: $(wc -l < "$OUT/unlisted.txt") functions are reached by" \
    "no shipped binary; delete them or allowlist them with a reason:"
  sed 's/^/  /' "$OUT/unlisted.txt"
  status=1
fi
if [ -s "$OUT/stale.txt" ]; then
  echo "census: $(wc -l < "$OUT/stale.txt") allowlist entries are stale" \
    "(no longer defined, or now reached by a binary); remove them:"
  sed 's/^/  /' "$OUT/stale.txt"
  status=1
fi
exit "$status"
