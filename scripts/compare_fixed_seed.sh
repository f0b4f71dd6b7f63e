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
#
# When files differ it also prints, for each CSV present on both sides whose
# bytes differ: the largest absolute and relative difference of each float
# column (a column whose every value parses as a float and not every value as
# an integer), and the first row where another column differs (task,
# iteration, input, set sizes, violation), with both values.  Those lines
# describe the difference; the exit status stays 1 for anything but byte
# identity.
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
    python3 - "$work/out/ref" "$work/out/tree" <<'PY'
import csv
import math
import pathlib
import sys

ref, tree = (pathlib.Path(p) for p in sys.argv[1:3])


def is_float(value):
    try:
        float(value)
    except ValueError:
        return False
    return True


def is_int(value):
    try:
        int(value)
    except ValueError:
        return False
    return True


for path in sorted(ref.rglob("*.csv")):
    name = path.relative_to(ref)
    other = tree / name
    if not other.exists() or path.read_bytes() == other.read_bytes():
        continue
    with open(path, newline="") as a, open(other, newline="") as b:
        (head_a, *rows_a), (head_b, *rows_b) = list(csv.reader(a)), list(csv.reader(b))
    print(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
    if head_a != head_b:
        print(f"  headers differ: {head_a} against {head_b}")
        continue
    rows = list(zip(rows_a, rows_b))
    floats = [j for j in range(len(head_a))
              if all(is_float(x[j]) and is_float(y[j]) for x, y in rows)
              and not all(is_int(x[j]) and is_int(y[j]) for x, y in rows)]
    for j in floats:
        worst_abs = worst_rel = 0.0
        for x, y in rows:
            u, v = float(x[j]), float(y[j])
            if u == v:
                continue
            diff = abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(u), abs(v)))
        print(f"  {head_a[j]}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}")
    others = [j for j in range(len(head_a)) if j not in floats]
    for i, (x, y) in enumerate(rows, start=1):
        changed = [f"{head_a[j]} {x[j]} -> {y[j]}" for j in others if x[j] != y[j]]
        if changed:
            print(f"  first differing row {i}: " + "; ".join(changed))
            break
    else:
        print("  every other column is identical on the common rows")
PY
fi
for dir in src/samsbo tests; do
    echo "$dir lines: ${commit:0:7} $(cat "$work/ref/$dir"/*.py | wc -l)," \
        "working tree $(cat "$root/$dir"/*.py | wc -l)"
done
echo "src/samsbo __all__ names: ${commit:0:7} $(public_names "$work/ref/src/samsbo")," \
    "working tree $(public_names "$root/src/samsbo")"
exit "$status"
