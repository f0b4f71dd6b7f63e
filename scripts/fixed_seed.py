#!/usr/bin/env python3
"""Write the fixed-seed output set and print the statements of src/samsbo it leaves unreached.

Usage, from anywhere inside a source checkout:

    python3 scripts/fixed_seed.py OUTDIR

OUTDIR receives 25 files, all at seed 3 with one BLAS thread:
  branin/      samsbo, safe-ucb, ucb and multi-task-ucb, 6 iterations x 2 repetitions
  laser/       samsbo and safe-ucb, 2 iterations x 2 repetitions
  laser10/     samsbo, 10 iterations x 1 repetition: its per-task grids grow past
               gp.GRID_BLOCK rows, so the blocked grid product runs
  powell/      samsbo and safe-ucb, 2 iterations x 2 repetitions
  powell8/     the same with dimension = 8
  branin3/     samsbo with n_tasks = 3, 3 iterations x 1 repetition
  verify/      coverage.json of verify-bounds at its default sizes, 500 frequentist
               and 200 Bayesian trials
Each run directory keeps the raw and aggregate CSVs; manifest.json holds wall
times and is left out.  ``scripts/compare_fixed_seed.py REF`` runs this script
on REF and on the working tree and compares the two sets byte for byte.

Every run goes through ``samsbo.cli.main`` in this process, under
``sys.settrace``, and is followed by ``samsbo plotdata`` on the branin raw
CSVs, whose output is not kept.  From that same pass it prints, per module of
src/samsbo, each statement no run executed, as its line number and first
source line, then the total and the pass's wall time.  ``raise`` statements
are left out: they are the error paths, which tests reach and a fixed-seed run
should not.  :func:`format_report` writes that report and :func:`read_report`
reads it back; no other code knows its format.

A statement counts as executed when a line event fires on one of its own
lines, the lines of its span less those of the statements nested in it.
Statements that compile to no bytecode (function docstrings, for example)
are not counted at all.  Takes about 5 s on a 2-core VM.

This module imports neither numpy nor samsbo: ``main`` pins BLAS to one
thread before they load, as the set's bits need.
"""
from __future__ import annotations

import ast
import io
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "samsbo"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SEED = 3
# (output directory, CLI command, config lines besides the seed) of each run
RUNS = (
    ("branin", "run", ("problem = branin", "algorithm = samsbo,safe-ucb,ucb,multi-task-ucb",
                       "iterations = 6", "repetitions = 2")),
    ("laser", "run", ("problem = laser", "algorithm = samsbo,safe-ucb", "iterations = 2",
                      "repetitions = 2")),
    ("laser10", "run", ("problem = laser", "algorithm = samsbo", "iterations = 10",
                        "repetitions = 1")),
    ("powell", "run", ("problem = powell", "algorithm = samsbo,safe-ucb", "iterations = 2",
                       "repetitions = 2")),
    ("powell8", "run", ("problem = powell", "dimension = 8", "algorithm = samsbo,safe-ucb",
                        "iterations = 2", "repetitions = 2")),
    ("branin3", "run", ("problem = branin", "n_tasks = 3", "algorithm = samsbo",
                        "iterations = 3", "repetitions = 1")),
    ("verify", "verify-bounds", ("frequentist_trials = 500", "bayesian_trials = 200")),
)


def config_text(settings: tuple[str, ...]) -> str:
    """The config file of a run with the given lines, the seed first."""
    return "".join(f"{line}\n" for line in (f"seed = {SEED}", *settings))


def run_all(work: Path, out: Path) -> set[tuple[str, int]]:
    """Run the set in ``work``, copy its files to ``out``, and return the (file, line) of
    every line event in src/samsbo meanwhile."""
    executed: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def dispatch(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(dispatch)
    try:
        with redirect_stdout(io.StringIO()):        # verify-bounds prints its suites' lines
            from samsbo import cli          # imported under the trace, so module bodies count

            for name, command, settings in RUNS:
                config = work / f"{name}.cfg"
                config.write_text(config_text(settings))
                status = cli.main([command, "--config", str(config), "--out", str(work / name)])
                # verify-bounds exits 1 when a suite misses its target; its coverage.json
                # is still the output
                if status not in (0, 1) or (status == 1 and command != "verify-bounds"):
                    raise SystemExit(f"fixed_seed.py: {name} ({command}) exited {status}")
                (out / name).mkdir(parents=True, exist_ok=True)
                for path in (*(work / name).glob("*.csv"), work / name / "coverage.json"):
                    if path.is_file():
                        shutil.copy(path, out / name)
            raws = sorted(str(p) for p in (work / "branin").glob("*_raw.csv"))
            if cli.main(["plotdata", *raws, "--out", str(work / "plotdata.csv")]) != 0:
                raise SystemExit("fixed_seed.py: plotdata failed")
    finally:
        sys.settrace(None)
    return executed


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _nested(node: ast.AST):
    """The statements directly inside ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _nested(child)


def unreached(path: Path, executed: set[int]) -> tuple[int, list[tuple[int, str]]]:
    """Number of counted statements of ``path`` and (line, source) of the unreached ones."""
    source = path.read_text()
    lines = source.splitlines()
    runnable = _code_lines(compile(source, str(path), "exec"))
    counted, missed = 0, []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for inner in _nested(node):
            own -= set(range(inner.lineno, inner.end_lineno + 1))
        own = (own or {node.lineno}) & runnable
        if not own:
            continue
        counted += 1
        if not own & executed:
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return counted, sorted(missed)


class Report(NamedTuple):
    """What one pass found: per module of src/samsbo, by file stem, its number of counted
    statements and the (line, first source line) of each unreached one; and the pass's
    wall time in seconds."""

    modules: dict[str, tuple[int, list[tuple[int, str]]]]
    seconds: float


def format_report(report: Report) -> str:
    """The report as the runner prints it, which :func:`read_report` reads back."""
    lines = []
    for name, (counted, missed) in report.modules.items():
        lines.append(f"samsbo/{name}.py: {len(missed)} of {counted} statements unreached")
        lines.extend(f"  {line:5d}  {text}" for line, text in missed)
    total = sum(counted for counted, _ in report.modules.values())
    total_missed = sum(len(missed) for _, missed in report.modules.values())
    lines += [f"total: {total_missed} of {total} statements unreached (raise statements left out)",
              f"wall time: {report.seconds:.1f} s"]
    return "".join(f"{line}\n" for line in lines)


def read_report(text: str) -> Report:
    """The :class:`Report` that :func:`format_report` wrote into ``text``; the total and
    the file count are left out, since they follow from the rest."""
    modules: dict[str, tuple[int, list[tuple[int, str]]]] = {}
    seconds = None
    for line in text.splitlines():
        if match := re.fullmatch(r"samsbo/(\w+)\.py: \d+ of (\d+) statements unreached", line):
            missed: list[tuple[int, str]] = []
            modules[match[1]] = (int(match[2]), missed)
        elif match := re.fullmatch(r" +(\d+)  (.*)", line):
            missed.append((int(match[1]), match[2]))
        elif match := re.fullmatch(r"wall time: (\S+) s", line):
            seconds = float(match[1])
    return Report(modules, seconds)


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} OUTDIR", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    os.environ.pop("SAMSBO_OUT", None)
    sys.path.insert(0, str(ROOT / "src"))
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        executed = run_all(Path(work), out)
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        modules[path.stem] = unreached(path, {line for file, line in executed if file == str(path)})
    print(f"{sum(1 for p in out.rglob('*') if p.is_file())} files in {out}")
    print(format_report(Report(modules, time.perf_counter() - start)), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
