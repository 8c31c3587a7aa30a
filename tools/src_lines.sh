#!/usr/bin/env bash
# src_lines.sh — code-line count of src/: the total, then each directory.
#
# A code line is any line of a git-tracked src/*.h or src/*.cpp file that
# is neither blank nor a // comment line.  The total equals
#   git ls-files 'src/*.h' 'src/*.cpp' | xargs cat \
#     | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
# which is the count ROADMAP.md and CHANGES.md quote.  Informational only:
# nothing gates on the number.
#
# Usage: tools/src_lines.sh

set -eu

cd "$(dirname "$0")/.."

count() {
  git ls-files "$@" | xargs -r cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
}

printf '%-16s %6d\n' "src (total)" "$(count 'src/*.h' 'src/*.cpp')"
for dir in $(git ls-files 'src/*.h' 'src/*.cpp' | cut -d/ -f2 | sort -u); do
  printf '%-16s %6d\n' "src/$dir" "$(count "src/$dir/*.h" "src/$dir/*.cpp")"
done
