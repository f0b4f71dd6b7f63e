#!/usr/bin/env python3
"""Print the statements of src/samsbo that no fixed-seed run executes.

Usage, from anywhere inside a source checkout:

    python3 scripts/reach.py

It runs, in this process and under ``sys.settrace``, every ``run`` line of
scripts/fixed_seed_outputs.sh with that script's seed (read from the script,
so both use one list of configurations), then ``samsbo plotdata`` on the
branin raw CSVs.  Outputs go to a temporary directory that is removed.  Per
module of src/samsbo it then prints each statement no run executed, as its
line number and first source line, and at the end the total.  ``raise``
statements are left out: they are the error paths, which tests reach and a
fixed-seed run should not.

A statement counts as executed when a line event fires on one of its own
lines, the lines of its span less those of the statements nested in it.
Statements that compile to no bytecode (function docstrings, for example)
are not counted at all.  Takes about 5 s on a 2-core VM.
"""
from __future__ import annotations

import ast
import io
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "samsbo"


def fixed_seed_runs() -> list[tuple[str, str, list[str]]]:
    """(name, command, config lines) of each ``run`` call in fixed_seed_outputs.sh."""
    text = (ROOT / "scripts" / "fixed_seed_outputs.sh").read_text().replace("\\\n", " ")
    seed = re.search(r'"(seed = \d+)"', text)
    runs = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("run ")]
    if seed is None or not runs:
        raise SystemExit("reach.py: no seed or no run lines in fixed_seed_outputs.sh")
    return [(name, command, [seed.group(1), *settings]) for name, command, *settings in runs]


def traced_lines(work: Path) -> set[tuple[str, int]]:
    """(file, line) of every line event in src/samsbo while all the runs execute."""
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

            for name, command, settings in fixed_seed_runs():
                config = work / f"{name}.cfg"
                config.write_text("\n".join(settings) + "\n")
                status = cli.main([command, "--config", str(config), "--out", str(work / name)])
                if status not in (0, 1) or (status == 1 and command != "verify-bounds"):
                    raise SystemExit(f"reach.py: {name} ({command}) exited {status}")
            raws = sorted(str(p) for p in (work / "branin").glob("*_raw.csv"))
            if cli.main(["plotdata", *raws, "--out", str(work / "plotdata.csv")]) != 0:
                raise SystemExit("reach.py: plotdata failed")
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


def main() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ.pop("SAMSBO_OUT", None)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        executed = traced_lines(Path(work))
    total = total_missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {line for file, line in executed if file == str(path)}
        counted, missed = unreached(path, hit)
        total, total_missed = total + counted, total_missed + len(missed)
        print(f"{path.relative_to(ROOT / 'src')}: {len(missed)} of {counted} statements unreached")
        for line, text in missed:
            print(f"  {line:5d}  {text}")
    print(f"total: {total_missed} of {total} statements unreached (raise statements left out)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
