"""List the statements of ``src/masf`` that the library's own traffic never
reaches.

The traffic runs in this process, under a line tracer limited to
``src/masf``:

  * each perfbench workload's set-up, a few steps and one diagnostics pass,
    for each run seed of one invocation, and one traced run of perfbench's
    full_triplet workload;
  * ``masf bench-gen``, and ``bench-gen --spec``;
  * ``masf train`` with each local loss, and ``train --config`` with the
    ``resolved_config.yaml`` that a run wrote;
  * ``masf eval`` of a trained checkpoint on the generated benchmark;
  * ``masf plot`` of a one-row and of a many-row ``metrics.csv``;
  * a one-cell ``masf ablate``.

Every output goes to a temporary directory. ``perfbench/workload.py`` is
imported read-only, and no bytecode is written. The tool prints each
statement that the traffic never reaches, by module and by function; where
a compound statement is unreached, its body is not listed again, and a
function that is never called is listed by its ``def`` line. Lines are
the unit: a statement that shares its line with a reached one counts as
reached.

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "masf"
STEPS = 3  # training steps per run
SEED = 1  # perfbench's --seed: in its run 3 both gradients clip at step 0

hits: dict[str, set[int]] = defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    """Trace the frames of code in ``src/masf`` only."""
    if frame.f_code.co_filename.startswith(f"{PACKAGE}{os.sep}"):
        return _line
    return None


def masf(*argv: str) -> None:
    """One ``masf`` command line; anything but exit code 0 stops the tool."""
    from masf import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"masf {' '.join(argv)} exited {code}")


def perfbench_traffic() -> None:
    import workload  # perfbench/workload.py
    from masf import engine

    for wl in workload.WORKLOADS.values():
        for run in range(workload.RUNS):  # the runs of one invocation
            rseed = workload.run_seed(SEED, run)
            s = workload.set_up(workload.hyperparams(wl), SEED, rseed)
            state = engine.train(s.state, s.train, STEPS)
            workload.diagnostics(state, s, rseed)
    wl = workload.WORKLOADS["full_triplet"]
    workload.traced_pair(wl, workload.hyperparams(wl), SEED,
                         workload.run_seed(SEED, 0), workload.MIN_ITERATIONS,
                         traced_first=True)


def cli_traffic(tmp: Path) -> None:
    masf("bench-gen", "--out", str(tmp / "bench"))
    spec = tmp / "spec.yaml"
    spec.write_text("noise_sigma: 0.3\nbase_seed: 7\n")
    masf("bench-gen", "--spec", str(spec), "--out", str(tmp / "bench_spec"))
    for kind in ("triplet", "contrastive"):
        masf("train", "--set", f"iterations={STEPS}", "--set",
             f"local_loss_kind={kind}", "--set", f"out_dir={tmp / kind}")
    masf("train", "--config", str(tmp / "triplet" / "resolved_config.yaml"),
         "--set", "iterations=1", "--set", f"out_dir={tmp / 'one_step'}")
    masf("eval", "--ckpt", str(tmp / "triplet" / f"ckpt_{STEPS}"),
         "--data", str(tmp / "bench" / "benchmark.csv"))
    for run in ("one_step", "triplet"):
        masf("plot", "--metrics", str(tmp / run / "metrics.csv"), "--columns",
             "task_loss", "local_loss", "--out", str(tmp / f"{run}.svg"))
    masf("ablate", "--set", "rows=[[true, true, true]]", "--set", "seeds=[0]",
         "--set", "targets=[3]", "--set", f"iterations={STEPS}",
         "--set", f"out_dir={tmp / 'ablate'}")


def _docstring(node: ast.AST) -> ast.stmt | None:
    body = getattr(node, "body", None)
    if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return body[0]
    return None


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside ``node``, docstrings left out."""
    doc = _docstring(node)
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += [s for s in getattr(node, field, []) if s is not doc]
    for handler in getattr(node, "handlers", []):
        out += handler.body
    for case in getattr(node, "cases", []):
        out += case.body
    return out


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` that are not its body: a simple statement's
    lines, or a compound statement's decorators and header."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    body = _children(node)
    last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(first, last + 1)


def unreached(path: Path, lines: set[int]) -> list[tuple[str, ast.stmt]]:
    """The outermost statements of ``path`` that ran no line of ``lines``,
    each with the qualified name of the function or class around it."""
    tree = ast.parse(path.read_text(), str(path))
    out = []

    def reached(node: ast.stmt) -> bool:
        return (not lines.isdisjoint(_own_lines(node))
                or any(reached(child) for child in _children(node)))

    def visit(node: ast.AST, scope: str) -> None:
        for child in _children(node):
            if not reached(child) or (  # a def that runs: a function never called
                    isinstance(child, ast.FunctionDef)
                    and not any(map(reached, _children(child)))):
                out.append((scope or "<module>", child))
                continue
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return out


def main() -> int:
    os.environ.pop("MASF_OUT_DIR", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(_call)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            perfbench_traffic()
            cli_traffic(Path(tmp))
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        found = unreached(path, hits[str(path)])
        if not found:
            continue
        print(f"masf.{path.stem}")
        source = path.read_text().splitlines()
        for scope, node in found:
            print(f"  {scope}:{node.lineno}  {source[node.lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
