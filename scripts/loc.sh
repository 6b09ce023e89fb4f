#!/bin/sh
# Workspace LOC as a tracked number (ROADMAP: a PR with a negative diff, a
# green oracle, and a flat `benchmark compare` is a first-class result).
#
# Per crate: non-test / test / total lines of src/**/*.rs, where non-test is
# every line before the first `#[cfg(test)]` of a file, plus the line count of
# the crate's tests/ and examples/ directories.
set -eu
cd "$(dirname "$0")/.."

printf '%-22s %9s %9s %9s %12s\n' crate non-test test total tests+examples
for manifest in crates/*/Cargo.toml Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else code++ }
        END { printf "%d %d\n", code, test }' |
    {
        read -r code test
        extra=$(find "$dir/tests" "$dir/examples" -maxdepth 1 -name '*.rs' 2>/dev/null |
            xargs cat 2>/dev/null | wc -l)
        name=$(basename "$dir")
        [ "$dir" = . ] && name='(suite root)'
        printf '%-22s %9d %9d %9d %12d\n' "$name" "$code" "$test" $((code + test)) "$extra"
    }
done
