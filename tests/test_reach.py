"""What the library's own traffic never reaches is input checks, error exits
and the acceptance gate's oracles, and nothing else.

``tools/reach.py`` runs that traffic under a line tracer and lists, by
module and function, each statement of ``src/masf`` it never reaches. It
runs here in a subprocess, so its tracer never meets another test's
profiler or tracemalloc. A listed statement passes when it is a ``raise``,
when it sits in an ``if`` branch or ``except`` handler that ends in a
``raise``, or when ALLOWED names it. Anything else is code that only tests
reach, and fails here: delete it, or name it in ALLOWED with its reason.

ALLOWED names a statement by module, enclosing function or class (reach's
scope) and its first line's text, not by line number, so an edit elsewhere
keeps it. An entry that reach no longer lists, because the traffic reaches
it or it is gone, fails too, so the list cannot go stale.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "masf"

GATE = "an oracle that tests/test_acceptance.py calls"
EXIT = "a cli.main exit path: what a failing command prints and returns"
EMPTY = "a batch with no triplet; training batches always have one"
FLOAT_LABELS = "float labels from a library caller must be whole numbers"

# (module, scope, statement text) -> why served traffic never reaches it
ALLOWED = {
    ("autodiff", "Expr", "def __repr__(self):"):
        "a debugging aid for users of the library",
    ("autodiff", "<module>", "def neg(a: Expr) -> Expr:"): GATE,
    ("autodiff", "<module>", "def recompute(root: Expr, overrides: "
                             "dict[int, np.ndarray]) -> np.ndarray:"): GATE,
    ("autodiff", "<module>", "def finite_diff_check(scalar: Expr, "
                             "params: Sequence[Expr]) -> float:"): GATE,
    ("bench", "as_labels",
     "whole = np.isfinite(values) & (np.floor(values) == values)"): FLOAT_LABELS,
    ("bench", "as_labels", "if not whole.all():"): FLOAT_LABELS,
    ("cli", "_Parser", "def error(self, message):  "
                       "# a usage error exits 1, not argparse's 2"): EXIT,
    ("cli", "main", 'print(f"config error: {exc}", file=sys.stderr)'): EXIT,
    ("cli", "main", "return EXIT_CONFIG"): EXIT,
    ("cli", "main", 'print(f"run failure: {exc}", file=sys.stderr)'): EXIT,
    ("cli", "main", "return EXIT_RUN"): EXIT,
    ("cli", "main", 'print(f"I/O error: {exc}", file=sys.stderr)'): EXIT,
    ("cli", "main", "return EXIT_IO"): EXIT,
    ("cli", "<module>", "sys.exit(main())"):
        "the __main__ guard; the masf script calls main itself",
    ("engine", "<module>", "def inner_update(psi: ParamSet, theta: ParamSet, "
                           "meta_train_batches,"): GATE,
    ("harness", "run_experiment", 'acc = float("nan")  # mark failed, keep going'):
        "a run whose loss diverges; the canonical grid has none",
    ("keys", "_float", "return _WRONG"): "a number too large for a float",
    ("losses", "<module>", "def symm_kl(p: Expr, q: Expr) -> Expr:"): GATE,
    ("losses", "mine_semihard_triplets",
     "return tuple(np.zeros((3, 0), np.int64))"): EMPTY,
    ("losses", "triplet_loss_semihard", "return ad.const(0.0)"): EMPTY,
}

ENTRY = re.compile(r"  (\S+):(\d+)  (.*)")


def unreached() -> list[tuple[str, str, int, str]]:
    """reach's list as (module, scope, line, statement text) entries."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    found, module = [], None
    for line in out.stdout.splitlines():
        if line.startswith("masf."):
            module = line.removeprefix("masf.")
            continue
        m = ENTRY.fullmatch(line)
        assert m and module, f"unexpected reach output line {line!r}"
        found.append((module, m[1], int(m[2]), m[3]))
    return found


def raising_lines(module: str) -> set[int]:
    """The first lines of the statements of ``module`` that are a ``raise``
    or sit in an ``if`` branch or ``except`` handler that ends in one."""
    lines = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        blocks = ([node.body, node.orelse] if isinstance(node, ast.If)
                  else [node.body] if isinstance(node, ast.ExceptHandler)
                  else [])
        for block in blocks:
            if block and isinstance(block[-1], ast.Raise):
                lines.update(stmt.lineno for stmt in block)
        if isinstance(node, ast.Raise):
            lines.add(node.lineno)
    return lines


def test_only_checks_and_allowed_statements_go_unreached():
    found = unreached()
    raising = {m: raising_lines(m) for m in {m for m, *_ in found}}
    listed = {(m, scope, text) for m, scope, _, text in found}
    unlisted = [f"masf.{m} {scope}:{line}  {text}"
                for m, scope, line, text in found
                if line not in raising[m] and (m, scope, text) not in ALLOWED]
    assert not unlisted, ("statements only tests reach; delete them or add "
                          "them to ALLOWED with a reason:\n" + "\n".join(unlisted))
    stale = sorted(set(ALLOWED) - listed)
    assert not stale, f"ALLOWED entries reached or gone: {stale}"
