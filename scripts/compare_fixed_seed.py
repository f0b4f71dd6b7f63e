#!/usr/bin/env python3
"""Compare the fixed-seed output set of a commit with that of the working tree.

Usage, from anywhere inside a git checkout:

    python3 scripts/compare_fixed_seed.py REF

REF's ``src/`` and ``tests/`` are exported with ``git archive`` to a temporary
directory by scripts/bench_pairs.py's ``export_commit``, and a copy of the
working tree's scripts/fixed_seed.py is placed in REF's export.  That runner
then writes its 25-file set from REF's src/ and from the working tree's src/,
one in-process pass per side, both sides at once, so both sides run the same
configurations; the two sets are then compared byte for byte.  Each runner's
report is read with the runner's own ``read_report``.

After the verdict it prints:

- the line totals of REF's src/samsbo/*.py and tests/*.py and of the working
  tree's, so a size claim comes from the same command as the identity check,
  and code moved from the package into the tests reads as a move;
- the number of names in the ``__all__`` lists of src/samsbo/*.py on each side,
  the size of the public surface;
- the settable values on each side: the fields of ExperimentConfig (every config
  key) and the parameters with a default of the public functions in
  src/samsbo/*.py (module-level functions and methods of public classes whose
  names do not start with an underscore); below the counts it names, for each
  side, the settable values that the other side lacks, such as
  ``gp.log_marginal_likelihood(previous)`` for a parameter or
  ``ExperimentConfig.seed`` for a config field, so a change in the count comes
  with the names of the knobs that came or went;
- for each side, how many modules a fresh interpreter holds after
  ``import samsbo, samsbo.cli``, the names of the scipy modules that import
  loads (``scipy`` itself included, once its package init has run), and the
  interpreter's peak resident set after it, so an import regression shows in
  the same report.  The peak is ``VmHWM`` of ``/proc/self/status``, which exec
  resets, so it is the probe's own whatever spawned it; where ``/proc`` is
  missing it is ``ru_maxrss``, which Linux carries across fork and exec from
  a larger parent, and the line names which of the two it read;
- the fields of the problem types SyntheticProblem and LaserChainProblem, which
  hold what a caller can vary about a problem, of safeopt.OptimizationState,
  what the loop carries from one step to the next, and of the value types a
  model refresh returns, bounds.ScalingBundle, bounds.RobustModel and
  hyperposterior.EmpiricalHyperPosterior, and of the two-task types a refresh
  builds, twotask.TwoTaskFactor and twotask.TwoTaskPosterior, so a stored field
  that becomes a derived one reads as a drop in its count;
- each side's runner wall time;
- the total of the runner's report of the statements of src/samsbo that no
  fixed-seed run executes, taken from the same pass that wrote the side's set,
  so a claim about dead branches comes from the same command as the identity
  check; below the totals it names, one a line, the unreached statements of
  each side that the other side lacks, as "module: source text" without the
  line number (for example "safeopt: points = np.linspace(0.0, 1.0,
  size).reshape(-1, 1)"), so code that moves does not count and a change in the
  total names the statements that came or went;
- for each module whose number of counted statements differs between the sides
  (the S of the runner's "U of S" line per module), both counts, so a claim
  about the size of a module comes from the same command.

The module count, the scipy modules, the peak resident set, the config
fields and the problem, state and value fields come from one fresh interpreter per
side, which imports samsbo before anything else; the ``__all__`` names, defaulted
parameters and line counts are read with ``ast`` in this process.  The "only in" lists count repeats: a
statement text unreached twice on one side and once on the other is named once.

When files differ it prints one line per differing or one-sided file, a unified
diff of each differing file that is not a CSV (``verify/coverage.json``), and,
for each CSV present on both sides whose bytes differ: the largest absolute and
relative difference of each float column (a column whose every value parses as
a float and not every value as an integer), and the first row where another
column differs (task, iteration, input, set sizes, violation), with both
values.  Those lines describe the difference; the exit status stays 1 for
anything but byte identity.

Exits 0 when every file is byte-identical, 1 on any difference, 2 on bad usage
or a REF that is not a commit, and with a failing runner's own status.  The
whole comparison starts four interpreters (two runners, two fact probes) and
takes about 6 s on a 2-core VM.
"""
from __future__ import annotations

import ast
import csv
import difflib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import export_commit
from fixed_seed import Report, read_report

ROOT = Path(__file__).resolve().parents[1]

# Run as `python3 -c FACTS SRC`.  samsbo is imported before anything else, so the module
# count is that of `import samsbo, samsbo.cli` in a fresh interpreter.
FACTS = """\
import sys
sys.path.insert(0, sys.argv[1])
import samsbo, samsbo.cli
modules = len(sys.modules)
try:    # exec resets VmHWM; ru_maxrss keeps the peak of a larger parent
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    rss, source = int(peak) / 1024, "VmHWM"     # kB
except (OSError, StopIteration):
    import resource     # after the count, so the count is samsbo's
    rss, source = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import dataclasses, json
from samsbo.benchmarks import LaserChainProblem, SyntheticProblem
from samsbo.bounds import RobustModel, ScalingBundle
from samsbo.config import ExperimentConfig
from samsbo.hyperposterior import EmpiricalHyperPosterior
from samsbo.safeopt import OptimizationState
from samsbo.twotask import TwoTaskFactor, TwoTaskPosterior
print(json.dumps({
    "imports": f"{modules} modules, scipy modules {', '.join(scipy) or 'none'}"
               f", {source} {rss:.1f} MB",
    "fields": [f"ExperimentConfig.{f.name}" for f in dataclasses.fields(ExperimentConfig)],
    "problems": ", ".join(f"{cls.__name__} {len(dataclasses.fields(cls))}"
                          for cls in (SyntheticProblem, LaserChainProblem, OptimizationState,
                                      ScalingBundle, RobustModel, EmpiricalHyperPosterior,
                                      TwoTaskFactor, TwoTaskPosterior)),
}))
"""


def public_names(package: Path) -> int:
    """The number of names in the ``__all__`` lists of ``package``/*.py."""
    return sum(len(ast.literal_eval(node.value))
               for path in sorted(package.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "__all__" for target in node.targets))


def _public_functions(tree: ast.Module):
    """(qualified name, node) of each public function and public class's public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def defaulted_parameters(package: Path) -> list[str]:
    """"module.function(parameter)" of each defaulted parameter of a public function."""
    return [f"{path.stem}.{name}({arg.arg})"
            for path in sorted(package.glob("*.py"))
            for name, f in _public_functions(ast.parse(path.read_text()))
            for arg in _defaulted(f.args)]


def lines(directory: Path) -> int:
    """The number of newline characters in ``directory``/*.py."""
    return sum(path.read_bytes().count(b"\n") for path in directory.glob("*.py"))


def only_in(a: list[str], b: list[str]) -> list[str]:
    """The entries of ``a`` that ``b`` lacks, sorted, each repeat counted once per repeat."""
    return sorted((Counter(a) - Counter(b)).elements())


def unreached_statements(report: Report) -> list[str]:
    """"module: source text" of each unreached statement of ``report``."""
    return [f"{name}: {text}" for name, (_, missed) in report.modules.items()
            for _, text in missed]


def _parses(kind: type, value: str) -> bool:
    try:
        kind(value)
    except ValueError:
        return False
    return True


def csv_summary(name: str, text_a: str, text_b: str) -> list[str]:
    """Lines describing how two differing CSVs differ: per float column the largest
    absolute and relative difference, and the first row where another column differs."""
    (head_a, *rows_a) = list(csv.reader(io.StringIO(text_a)))
    (head_b, *rows_b) = list(csv.reader(io.StringIO(text_b)))
    out = [f"{name}: {len(rows_a)} rows against {len(rows_b)}"]
    if head_a != head_b:
        return out + [f"  headers differ: {head_a} against {head_b}"]
    rows = list(zip(rows_a, rows_b))
    floats = [j for j in range(len(head_a))
              if all(_parses(float, x[j]) and _parses(float, y[j]) for x, y in rows)
              and not all(_parses(int, x[j]) and _parses(int, y[j]) for x, y in rows)]
    for j in floats:
        worst_abs = worst_rel = 0.0
        for x, y in rows:
            u, v = float(x[j]), float(y[j])
            if u == v:
                continue
            diff = abs(u - v) if math.isfinite(u) and math.isfinite(v) else math.inf
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(u), abs(v)))
        out.append(f"  {head_a[j]}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}")
    others = [j for j in range(len(head_a)) if j not in floats]
    for i, (x, y) in enumerate(rows, start=1):
        changed = [f"{head_a[j]} {x[j]} -> {y[j]}" for j in others if x[j] != y[j]]
        if changed:
            return out + [f"  first differing row {i}: " + "; ".join(changed)]
    return out + ["  every other column is identical on the common rows"]


def compare_sets(ref: Path, tree: Path, label: str) -> list[str]:
    """Lines naming each file that differs or is on one side only, then a unified diff of
    each differing file that is not a CSV, then :func:`csv_summary` of each differing CSV;
    no lines when the sets are byte-identical."""
    files_a = {p.relative_to(ref) for p in ref.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree) for p in tree.rglob("*") if p.is_file()}
    differing = sorted(name for name in files_a & files_b
                       if (ref / name).read_bytes() != (tree / name).read_bytes())
    out = [f"only in {label}: {name}" for name in sorted(files_a - files_b)]
    out += [f"only in the working tree: {name}" for name in sorted(files_b - files_a)]
    out += [f"differs: {name}" for name in differing]
    diffs, summaries = [], []
    for name in differing:
        text_a, text_b = (ref / name).read_text(), (tree / name).read_text()
        if name.suffix == ".csv":
            summaries += csv_summary(str(name), text_a, text_b)
        else:
            diffs += [line.rstrip("\n") for line in difflib.unified_diff(
                text_a.splitlines(keepends=True), text_b.splitlines(keepends=True),
                f"{label}/{name}", f"working tree/{name}")]
    return out + diffs + summaries


def side_facts(root: Path, probe: dict, report: Report) -> dict:
    """What the summary prints of one side, from its checkout at ``root``, its facts
    probe's output and its runner's report."""
    package = root / "src" / "samsbo"
    fields, params = probe["fields"], defaulted_parameters(package)
    return {
        "src/samsbo lines": lines(package),
        "tests lines": lines(root / "tests"),
        "src/samsbo __all__ names": public_names(package),
        "settable values": (f"{len(fields)} fields + {len(params)} defaulted parameters"
                            f" = {len(fields) + len(params)}"),
        "settable": fields + params,
        "import samsbo, samsbo.cli": probe["imports"],
        "problem, state and value fields": probe["problems"],
        "runner wall time": f"{report.seconds:.1f} s",
        "unreached statements": (f"{len(unreached_statements(report))} of"
                                 f" {sum(c for c, _ in report.modules.values())}"),
        "unreached": unreached_statements(report),
        "counted": {name: counted for name, (counted, _) in report.modules.items()},
    }


def summary(label: str, ref: dict, tree: dict) -> list[str]:
    """The lines printed after the verdict, from both sides' :func:`side_facts`."""
    def both(key, sep=","):
        return f"{key}: {label} {ref[key]}{sep} working tree {tree[key]}"

    def indented(entries):
        return [f"    {entry}" for entry in entries] or ["    none"]

    modules = sorted(ref["counted"].keys() | tree["counted"].keys())
    counts = [(name, ref["counted"].get(name, 0), tree["counted"].get(name, 0))
              for name in modules]
    return [
        both("src/samsbo lines"), both("tests lines"), both("src/samsbo __all__ names"),
        both("settable values"),
        f"settable values only in {label}: "
        f"{', '.join(only_in(ref['settable'], tree['settable'])) or 'none'}",
        "settable values only in the working tree: "
        f"{', '.join(only_in(tree['settable'], ref['settable'])) or 'none'}",
        both("import samsbo, samsbo.cli", ";"), both("problem, state and value fields"),
        both("runner wall time"), both("unreached statements"),
        f"unreached statements only in {label}:",
        *indented(only_in(ref["unreached"], tree["unreached"])),
        "unreached statements only in the working tree:",
        *indented(only_in(tree["unreached"], ref["unreached"])),
        "statements per module where they differ:",
        *indented(f"{name}: {label} {a}, working tree {b}" for name, a, b in counts if a != b),
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        try:
            label = export_commit(argv[0], ["src", "tests"], work / "ref")[:7]
        except LookupError as error:
            print(f"{sys.argv[0]}: {error}", file=sys.stderr)
            return 2
        except subprocess.CalledProcessError as error:
            return error.returncode
        (work / "ref" / "scripts").mkdir()
        shutil.copy(ROOT / "scripts" / "fixed_seed.py", work / "ref" / "scripts")
        sides = {"ref": work / "ref", "tree": ROOT}
        runners = {side: subprocess.Popen(
                       [sys.executable, str(root / "scripts" / "fixed_seed.py"),
                        str(work / "out" / side)], stdout=subprocess.PIPE, text=True)
                   for side, root in sides.items()}
        probes = {side: subprocess.Popen([sys.executable, "-c", FACTS, str(root / "src")],
                                         stdout=subprocess.PIPE, text=True)
                  for side, root in sides.items()}
        outputs = {process: process.communicate()[0]
                   for process in (*runners.values(), *probes.values())}
        for process in outputs:
            if process.returncode != 0:
                return process.returncode
        facts = {side: side_facts(root, json.loads(outputs[probes[side]]),
                                  read_report(outputs[runners[side]]))
                 for side, root in sides.items()}

        differences = compare_sets(work / "out" / "ref", work / "out" / "tree", label)
        if differences:
            print("\n".join(differences))
            print(f"{sys.argv[0]}: outputs of {label} and the working tree differ",
                  file=sys.stderr)
        else:
            files = sum(1 for p in (work / "out" / "tree").rglob("*") if p.is_file())
            print(f"identical: all {files} files of {label} and the working tree")
    print("\n".join(summary(label, facts["ref"], facts["tree"])))
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
