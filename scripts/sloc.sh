#!/bin/sh
# Non-test code lines under crates/*/src, per crate and in total: lines that
# are neither blank nor `//` comments (doc comments included), with each
# file's trailing `#[cfg(test)] mod tests` left out.
# Usage: scripts/sloc.sh [repo-root]    (default: the current directory)
cd "${1:-.}" || exit 1
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' -exec awk '
        FNR == 1 { skip = 0; held = 0 }
        skip { next }
        held && /^mod tests/ { skip = 1; next }
        held { n++; held = 0 }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        !/^[ \t]*(\/\/|$)/ { n++ }
        END { print n + 0 }' {} + |
        awk -v c="$(basename "$crate")" '{ s += $1 } END { print s, c }'
done | awk '{ print; t += $1 } END { print t, "total" }'
