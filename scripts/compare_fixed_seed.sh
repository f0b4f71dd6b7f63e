#!/usr/bin/env bash
# Compare the fixed-seed output set of a commit with that of the working tree.
#
# Usage, from anywhere inside a git checkout:
#
#     scripts/compare_fixed_seed.sh REF
#
# REF is exported with `git archive` to a temporary directory, and a copy of
# the working tree's scripts/fixed_seed.py is placed in REF's export.  That
# runner then writes its 25-file set once from REF's src/ and once from the
# working tree's src/, one in-process pass per side, so both sides run the same
# configurations, and `diff -r` compares the two sets.  After the verdict it
# prints the line totals of REF's src/samsbo/*.py and tests/*.py and of the
# working tree's, so a size claim comes from the same command as the identity
# check, and code moved from the package into the tests reads as a move.  Next
# to them it prints the number of names in the __all__ lists of
# src/samsbo/*.py on each side, the size of the public surface, and the
# settable values on each side: the fields of ExperimentConfig (every config
# key) and the parameters with a default of the public functions in
# src/samsbo/*.py (module-level functions and methods of public classes
# whose names do not start with an underscore), and the fields of the
# problem types SyntheticProblem and LaserChainProblem, which hold what a
# caller can vary about a problem.  Below the counts it names, for each side,
# the settable values that the other side lacks, such as
# gp.log_marginal_likelihood(previous) for a parameter, or
# ExperimentConfig.seed for a config field, so a change in the count comes
# with the names of the knobs that came or went.  Beside them it prints, for
# each side, how many modules a fresh interpreter holds after
# `import samsbo, samsbo.cli` and which scipy subpackages (scipy.X with an
# __init__) that import initializes, so an import regression shows in the same
# report.  Then it prints each side's runner wall time, and last the total of
# the runner's report of the statements of src/samsbo that no fixed-seed run
# executes, taken from the same pass that wrote the side's set, so a claim
# about dead branches comes from the same command as the identity check.
# Below the totals it names, one a line, the unreached statements of each
# side that the other side lacks, as "module: source text" without the line
# number (for example "safeopt: points = np.linspace(0.0, 1.0,
# size).reshape(-1, 1)"), so code that moves does not count and a change in
# the total names the statements that came or went.  Last of all it prints,
# for each module whose number of counted statements differs between the
# sides (the S of the runner's "U of S" line per module), both counts, so a
# claim about the size of a module comes from the same command.  Exits 0 when
# every file is byte-identical and 1 on any difference; a failing run exits
# with its own status.  The whole comparison takes about 13 s on a 2-core VM,
# 3 to 5 s of it in each side's runner.
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

# settable_values DIR NAMES: "F fields + P defaulted parameters" of the package in
# DIR/src/samsbo; the name of each settable value goes to the file NAMES, one a line
settable_values() {
    python3 - "$1" "$2" <<'PY'
import ast
import dataclasses
import pathlib
import sys

sys.path.insert(0, f"{sys.argv[1]}/src")
from samsbo.config import ExperimentConfig  # noqa: E402


def public_functions(tree):
    """(qualified name, node) of each public function and public class's public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def defaulted(args):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


params = [f"{path.stem}.{name}({arg.arg})"
          for path in sorted(pathlib.Path(sys.argv[1], "src", "samsbo").glob("*.py"))
          for name, f in public_functions(ast.parse(path.read_text()))
          for arg in defaulted(f.args)]
fields = [f"ExperimentConfig.{f.name}" for f in dataclasses.fields(ExperimentConfig)]
pathlib.Path(sys.argv[2]).write_text("".join(f"{name}\n" for name in sorted(fields + params)))
print(f"{len(fields)} fields + {len(params)} defaulted parameters = {len(fields) + len(params)}")
PY
}

# only_in A B: the lines of the sorted file A that B lacks, comma-separated, or "none"
only_in() {
    local names
    names=$(LC_ALL=C comm -23 "$1" "$2" | paste -sd, - | sed 's/,/, /g')
    echo "${names:-none}"
}

# fixed_seed DIR SIDE: run DIR/scripts/fixed_seed.py, its set to $work/out/SIDE, its
# report to $work/SIDE.report and its wall time ("T s") to $work/SIDE.seconds
fixed_seed() {
    local start=$EPOCHREALTIME
    python3 "$1/scripts/fixed_seed.py" "$work/out/$2" > "$work/$2.report"
    awk -v start="$start" -v end="$EPOCHREALTIME" 'BEGIN { printf "%.1f s", end - start }' \
        > "$work/$2.seconds"
}

# unreached SIDE: "U of S" statements of the runner's report $work/SIDE.report; each
# unreached statement goes to the file $work/SIDE.unreached as "module: source text",
# one a line
unreached() {
    awk '/^samsbo\/.*\.py: / { module = $1; sub(/^samsbo\//, "", module); sub(/\.py:$/, "", module) }
         /^  / { sub(/^ *[0-9]+  /, ""); print module ": " $0 }' "$work/$1.report" \
        | LC_ALL=C sort > "$work/$1.unreached"
    sed -n 's/^total: \([0-9]* of [0-9]*\) .*/\1/p' "$work/$1.report"
}

# statements REPORT: "module S" per module of a runner's report, S its counted statements
statements() {
    sed -n 's#^samsbo/\(.*\)\.py: [0-9]* of \([0-9]*\) statements unreached$#\1 \2#p' "$1" \
        | LC_ALL=C sort
}

# listed_only_in A B: the lines of the sorted file A that B lacks, each indented, or "    none"
listed_only_in() {
    LC_ALL=C comm -23 "$1" "$2" | sed 's/^/    /' | grep . || echo "    none"
}

# imports DIR: "M modules, scipy subpackages A, B, ..." after `import samsbo, samsbo.cli`
# from DIR/src in a fresh interpreter
imports() {
    python3 - "$1" <<'PY'
import sys

sys.path.insert(0, f"{sys.argv[1]}/src")
import samsbo, samsbo.cli  # noqa: E401, E402

packages = sorted(name for name, module in sys.modules.items()
                  if name.count(".") == 1 and name.startswith("scipy.")
                  and hasattr(module, "__path__"))
print(f"{len(sys.modules)} modules, scipy subpackages {', '.join(packages) or 'none'}")
PY
}

# problem_fields DIR: the field counts of the problem types in DIR/src/samsbo
problem_fields() {
    python3 - "$1" <<'PY'
import dataclasses
import sys

sys.path.insert(0, f"{sys.argv[1]}/src")
from samsbo.benchmarks import LaserChainProblem, SyntheticProblem  # noqa: E402

print(", ".join(f"{cls.__name__} {len(dataclasses.fields(cls))}"
                for cls in (SyntheticProblem, LaserChainProblem)))
PY
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/ref/scripts"
git -C "$root" archive "$commit" src tests | tar -x -C "$work/ref"
cp "$root/scripts/fixed_seed.py" "$work/ref/scripts/"

fixed_seed "$work/ref" ref
fixed_seed "$root" tree

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
echo "settable values: ${commit:0:7} $(settable_values "$work/ref" "$work/ref.settable")," \
    "working tree $(settable_values "$root" "$work/tree.settable")"
echo "settable values only in ${commit:0:7}: $(only_in "$work/ref.settable" "$work/tree.settable")"
echo "settable values only in the working tree:" \
    "$(only_in "$work/tree.settable" "$work/ref.settable")"
echo "import samsbo, samsbo.cli: ${commit:0:7} $(imports "$work/ref");" \
    "working tree $(imports "$root")"
echo "problem fields: ${commit:0:7} $(problem_fields "$work/ref")," \
    "working tree $(problem_fields "$root")"
echo "runner wall time: ${commit:0:7} $(cat "$work/ref.seconds")," \
    "working tree $(cat "$work/tree.seconds")"
echo "unreached statements: ${commit:0:7} $(unreached ref), working tree $(unreached tree)"
echo "unreached statements only in ${commit:0:7}:"
listed_only_in "$work/ref.unreached" "$work/tree.unreached"
echo "unreached statements only in the working tree:"
listed_only_in "$work/tree.unreached" "$work/ref.unreached"
echo "statements per module where they differ:"
LC_ALL=C join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(statements "$work/ref.report") \
    <(statements "$work/tree.report") \
    | awk -v ref="${commit:0:7}" '$2 != $3 { print "    " $1 ": " ref " " $2 ", working tree " $3; n++ }
                                   END { if (!n) print "    none" }'
exit "$status"
