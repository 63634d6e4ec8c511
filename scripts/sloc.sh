#!/bin/sh
# Non-test code lines under crates/*/src, per crate and in total: lines that
# are neither blank nor `//` comments (doc comments included), leaving out
# every `#[cfg(test)]` item (the attribute alone on its line) through the
# brace that closes it, or through its `;` if it has no body. Braces inside
# string and char literals on one line are not counted.
# Usage: scripts/sloc.sh [repo-root]    (default: the current directory)
cd "${1:-.}" || exit 1
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' -exec awk '
        FNR == 1 { skip = 0 }
        skip {
            line = $0
            gsub(/"([^"\\]|\\.)*"|'\''[}{]'\''/, "", line)
            depth += gsub(/[{]/, "", line) - gsub(/[}]/, "", line)
            if (depth > 0) opened = 1
            if (opened ? depth <= 0 : line ~ /;[ \t]*$/) skip = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { skip = 1; depth = 0; opened = 0; next }
        !/^[ \t]*(\/\/|$)/ { n++ }
        END { print n + 0 }' {} + |
        awk -v c="$(basename "$crate")" '{ s += $1 } END { print s, c }'
done | awk '{ print; t += $1 } END { print t, "total" }'
