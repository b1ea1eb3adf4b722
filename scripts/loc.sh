#!/bin/sh
# Prints ROADMAP aim 2's number: non-test Go lines outside bench/. With
# --check, also fails when it exceeds the integer committed in
# LOC_CEILING — growth is then a one-line diff a reviewer approves, not a
# re-anchor surprise. Run from the repository root.
set -eu
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 |
	xargs -0 cat | wc -l | tr -d ' ')
echo "$loc"
if [ "${1:-}" = "--check" ]; then
	ceiling=$(cat LOC_CEILING)
	if [ "$loc" -gt "$ceiling" ]; then
		echo "non-test Go lines: $loc exceeds LOC_CEILING $ceiling" >&2
		exit 1
	fi
fi
