#!/bin/sh
# bench_diff must refuse a ~400 KB deeply nested baseline with exit 2
# (a typed parse error), not crash on parser recursion.
#   usage: bench_diff_deep_nesting.sh BENCH_DIFF SCRATCH_DIR
bench_diff="$1"
doc="$2/deep_nesting_baseline.json"
{ printf '{"cells":'; head -c 400000 /dev/zero | tr '\0' '['; } > "$doc"
"$bench_diff" --baseline "$doc" --report "$doc"
rc=$?
rm -f "$doc"
echo "bench_diff exited $rc"
test "$rc" -eq 2
