#!/usr/bin/env sh
# Runs a command and checks its stdout against extended regexes: fails when
# the command exits nonzero, when a PATTERN matches no line, or when a
# !PATTERN matches any line.
#
#   expect_output.sh [PATTERN | !PATTERN]... -- COMMAND [ARG...]

set -u

patterns=""
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  patterns="$patterns$1
"
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 [PATTERN | !PATTERN]... -- COMMAND [ARG...]" >&2
  exit 2
fi
shift

output=$("$@")
status=$?
printf '%s\n' "$output"
if [ "$status" -ne 0 ]; then
  echo "expect_output: command exited with status $status" >&2
  exit 1
fi

fail=0
while IFS= read -r pattern; do
  [ -n "$pattern" ] || continue
  case "$pattern" in
    !*)
      if printf '%s\n' "$output" | grep -Eq -- "${pattern#!}"; then
        echo "expect_output: unexpected match for '${pattern#!}'" >&2
        fail=1
      fi
      ;;
    *)
      if ! printf '%s\n' "$output" | grep -Eq -- "$pattern"; then
        echo "expect_output: no line matches '$pattern'" >&2
        fail=1
      fi
      ;;
  esac
done <<PATTERNS
$patterns
PATTERNS
exit "$fail"
