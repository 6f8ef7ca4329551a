#!/usr/bin/env bash
# Dead-code audit: library functions that only test binaries reach.
#
# Builds the `deadcode` preset (Release, -ffunction-sections
# -fdata-sections, -Wl,--gc-sections) into build-deadcode/, then lists
# every `T` symbol of a liblgg_*.a library that survives the linker's
# section GC in some test binary but in no tool, bench or example binary.
# Prints the library T-symbol count, the audit count and the demangled
# list, then exits 1 when a listed symbol has no entry in
# ci/deadcode_allow.txt.  Each entry there is one line: the mangled
# symbol, then the reason it stays; '#' starts a comment line.  Entries
# the audit no longer lists are reported as stale (a warning: drop them).
#
# Usage: ci/dead_code.sh
set -euo pipefail

cd "$(dirname "$0")/.."
DIR=build-deadcode
ALLOW=ci/deadcode_allow.txt
cmake --preset deadcode > /dev/null
if ! cmake --build --preset deadcode -j "$(nproc 2>/dev/null || echo 4)" \
      > "$DIR/build.log" 2>&1; then
  cat "$DIR/build.log" >&2
  exit 1
fi

defined_t() {
  nm --defined-only "$@" 2> /dev/null | awk '$2 == "T" { print $3 }' \
    | sort -u
}
executables() {
  find "$@" -maxdepth 1 -type f -executable
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# shellcheck disable=SC2046  # one argument per file
defined_t $(find "$DIR/src" -name 'liblgg_*.a') > "$TMP/lib"
# shellcheck disable=SC2046
defined_t $(executables "$DIR/tests") > "$TMP/tests"
# shellcheck disable=SC2046
defined_t $(executables "$DIR/tools" "$DIR/bench" "$DIR/examples") \
  > "$TMP/binaries"
comm -12 "$TMP/lib" "$TMP/tests" | comm -23 - "$TMP/binaries" > "$TMP/dead"

echo "dead-code audit: $(wc -l < "$TMP/dead") of $(wc -l < "$TMP/lib")" \
     "library T symbols reach only test binaries"
c++filt < "$TMP/dead" | sed 's/^/  /'

grep -vE '^[[:space:]]*(#|$)' "$ALLOW" | awk '{ print $1 }' | sort -u \
  > "$TMP/allowed"
comm -23 "$TMP/dead" "$TMP/allowed" > "$TMP/missing"
comm -13 "$TMP/dead" "$TMP/allowed" > "$TMP/stale"
while read -r sym; do
  echo "stale allowlist entry (no longer test-only): $sym" \
       "($(echo "$sym" | c++filt))" >&2
done < "$TMP/stale"
if [ -s "$TMP/missing" ]; then
  while read -r sym; do
    echo "test-only library symbol missing from $ALLOW: $sym" \
         "($(echo "$sym" | c++filt))" >&2
  done < "$TMP/missing"
  echo "delete the code, call it from a tool/bench/example, or add it" \
       "to $ALLOW with its reason" >&2
  exit 1
fi
echo "every test-only symbol is in $ALLOW"
