#!/bin/sh
# expect_usage.sh NEEDLE CMD [ARG...]
#
# Runs CMD and passes only when it exits with exactly 2 (an lgg_* usage
# error, not a crash or a run that went ahead) and its stderr contains
# NEEDLE, e.g. the flag whose value was malformed.
needle=$1
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2, got $rc: $*" >&2
  exit 1
fi
case $err in
  *"$needle"*) ;;
  *)
    echo "stderr of '$*' does not name '$needle':" >&2
    echo "$err" >&2
    exit 1
    ;;
esac
