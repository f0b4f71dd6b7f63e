#!/usr/bin/env bash
# Compare the fixed-seed output set of a commit with that of the working tree.
#
# Usage, from anywhere inside a git checkout:
#
#     scripts/compare_fixed_seed.sh REF
#
# REF is exported with `git archive` to a temporary directory.  The working
# tree's scripts/fixed_seed_outputs.sh then writes its 19-file set once from
# REF's src/ and once from the working tree's src/, so both sides run the same
# configurations, and `diff -r` compares the two sets.  After the verdict it
# prints the line totals of REF's src/samsbo/*.py and tests/*.py and of the
# working tree's, so a size claim comes from the same command as the identity
# check, and code moved from the package into the tests reads as a move.  Next
# to them it prints the number of names in the __all__ lists of
# src/samsbo/*.py on each side, the size of the public surface.  Exits 0 when
# every file is byte-identical and 1 on any difference; a failing run exits
# with its own status.  Each side takes about 10 s on a 2-core VM.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") \
    || { echo "$0: $1 is not a commit" >&2; exit 2; }

# public_names DIR: the number of names in the __all__ lists of DIR/*.py
public_names() {
    python3 - "$1" <<'PY'
import ast
import pathlib
import sys

print(sum(len(ast.literal_eval(node.value))
          for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py"))
          for node in ast.parse(path.read_text()).body
          if isinstance(node, ast.Assign)
          and any(getattr(target, "id", None) == "__all__" for target in node.targets)))
PY
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/ref/scripts"
git -C "$root" archive "$commit" src tests | tar -x -C "$work/ref"
cp "$root/scripts/fixed_seed_outputs.sh" "$work/ref/scripts/"

"$work/ref/scripts/fixed_seed_outputs.sh" "$work/out/ref" > /dev/null
"$root/scripts/fixed_seed_outputs.sh" "$work/out/tree" > /dev/null

files=$(find "$work/out/tree" -type f | wc -l)
status=0
if diff -r "$work/out/ref" "$work/out/tree"; then
    echo "identical: all $files files of ${commit:0:7} and the working tree"
else
    echo "$0: outputs of ${commit:0:7} and the working tree differ" >&2
    status=1
fi
for dir in src/samsbo tests; do
    echo "$dir lines: ${commit:0:7} $(cat "$work/ref/$dir"/*.py | wc -l)," \
        "working tree $(cat "$root/$dir"/*.py | wc -l)"
done
echo "src/samsbo __all__ names: ${commit:0:7} $(public_names "$work/ref/src/samsbo")," \
    "working tree $(public_names "$root/src/samsbo")"
exit "$status"
