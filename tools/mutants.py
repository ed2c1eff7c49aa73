"""Run tier-1 against each mutant of ``src/masf`` in the table below.

A mutant replaces a piece of text, which must occur exactly once in its
module, by another: one line, or a branch of a few lines put back or added.
Each mutant in MUTANTS changes what the program does, and some tier-1 test
should fail on it. Each one in EQUIVALENT computes the same values, or the
same up to rounding, for the reason given, and it should survive.

The tool copies ``src/``, ``tests/``, ``perfbench/``, ``tools/``,
``BENCHMARK.json`` and ``pyproject.toml`` into a temporary directory, and
for each mutant writes the mutated module there, runs pytest there with
tier-1's options (leaving out ``tests/test_mutants.py``, which checks this
table against the unmutated source) and restores the module. Unless the
arguments name tests, tier-1's files run in name order with
``tests/test_acceptance.py`` last: its ablation test alone takes 20-30 s,
and most mutants fail a faster test first. It prints
``killed`` and the failing tests, or ``SURVIVED``, writes nothing in the
working tree, and exits 1 if a mutant of MUTANTS survives or one of
EQUIVALENT is killed. Arguments replace pytest's ``-x``:

    python tools/mutants.py                          # tier-1, -x
    python tools/mutants.py -rf tests/test_losses.py # every test that kills
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("autodiff", "bench", "cli", "engine", "harness", "keys", "losses", "nets")
COPIED = ("src", "tests", "perfbench", "tools", "BENCHMARK.json", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
LAST = "tests/test_acceptance.py"  # the slowest file
TIMEOUT = 600  # seconds; tier-1 takes under a minute


class Mutant(NamedTuple):
    module: str  # of src/masf, without .py
    old: str
    new: str
    note: str  # what it breaks, or why it is equivalent


M = Mutant
MUTANTS = [
    M("autodiff", '    "relu": (lambda O, node, g, a: O("mul", g, host(_positive, a.value)),),',
      '    "relu": (lambda O, node, g, a: O("mul", g, _positive(a.value)),),',
      "the ReLU mask is taken outside host, so no plan is recorded"),
    M("autodiff", "    if fn(*args) != expected:", "    if False:",
      "a replay goes on past a guard that failed"),
    M("autodiff", "return float(value) <= bound", "return float(value) < bound",
      "clip_by_norm scales a gradient whose norm equals the threshold"),
    M("autodiff", "    if threshold <= 0:\n",
      "    if norm is None:\n        norm = global_norm(grads)\n    if threshold <= 0:\n",
      "clip_by_norm regains a branch no caller takes (norm=None)"),
    M("autodiff", 'with np.errstate(over="ignore"):', 'with np.errstate(over="warn"):',
      "global_norm warns on an overflowing norm instead of returning inf"),
    M("autodiff", '    if any(g.op != "const" for _, g in grads):', "    if False:",
      "a clipped graph gradient's scale is a constant, not differentiated"),
    M("autodiff",
      '_sum_to(O, O("neg", O(\n                "mul", g, O("div", node, b))), b.shape)',
      '_sum_to(O, O(\n                "mul", g, O("div", node, b)), b.shape)',
      "div's adjoint of its divisor loses its sign"),
    M("autodiff", 'O("matmul", b, g, ta=tb, tb=True) if ta',
      'O("matmul", b, g, ta=not tb, tb=True) if ta',
      "the adjoint of an operand read transposed reads b the wrong way"),
    M("autodiff", '    np.add.at(out, attrs["index"], a)', '    out[attrs["index"]] = a',
      "the row scatter keeps the last of repeated indices instead of summing"),
    M("autodiff", "    return a.max(axis=-1, keepdims=True)",
      "    return 0.0 * a.max(axis=-1, keepdims=True)",
      "log_sum_exp subtracts no row max, so large logits overflow"),
    M("bench", "    except UnicodeDecodeError as exc:", "    except LookupError as exc:",
      "a file that is not UTF-8 is reported without its name and byte"),
    M("bench", "        bad = (values < 0) | (values >= num_classes)",
      "        bad = values >= num_classes", "as_labels accepts negative labels"),
    M("bench", "rng.integers(0, counts)]", "rng.integers(0, counts) * 0]",
      "a stratified batch always takes each class's first row"),
    M("cli", "    except yaml.YAMLError as exc:", "    except LookupError as exc:",
      "malformed YAML escapes as a traceback instead of a config error"),
    M("cli", "    unread = set(raw) & set(UNREAD[command])", "    unread = set()",
      "a config key the verb does not read is accepted"),
    M("cli", "EXIT_OK, EXIT_CONFIG, EXIT_RUN, EXIT_IO = 0, 1, 2, 3",
      "EXIT_OK, EXIT_CONFIG, EXIT_RUN, EXIT_IO = 0, 1, 1, 3",
      "a run failure exits 1, like a config error"),
    M("engine", '            hp.clip_threshold, "outer", state.t)',
      '            1e300, "outer", state.t)', "the outer gradient is never clipped"),
    M("engine", "        psi2 = nets.sgd_step(psi2, grads, hp.alpha)",
      "        psi2 = nets.sgd_step(psi2, ad.GradMap(grads.params, "
      "[ad.const(g.value) for _, g in grads]), hp.alpha)",
      "the inner step of psi is first order: its gradient is a constant"),
    M("engine", "(t // decay_every)", "(t / decay_every)",
      "the learning rate decays every step, not every decay_every steps"),
    M("engine", "        new_phi = _descend(state.phi, grads[n_pt:], hp.gamma)",
      "        new_phi = _descend(state.phi, grads[n_pt:], hp.eta)",
      "the metric net steps at the outer lr eta instead of gamma"),
    M("engine", "        pairs = (ad.host(_cross, d_tr, d_te) if hp.episodic",
      "        pairs = (list(itertools.combinations(ids, 2)) if hp.episodic",
      "the episodic global loss aligns every pair of sources"),
    M("engine", "        z = nets.feature_forward(psi2, ad.as_expr(x))",
      "        z = nets.feature_forward(state.psi, ad.as_expr(x))",
      "the meta losses read psi, not the inner-updated psi'"),
    M("engine", "                             d_tr if hp.episodic else ids)",
      "                             ids)",
      "the episodic task loss covers the meta-test domain too"),
    M("engine", "ad.mul(ad.const(hp.beta2), l_local)",
      "ad.mul(ad.const(hp.beta1 * hp.beta2 / hp.beta1), l_local)",
      "beta2 written as beta1 * beta2 / beta1: a ZeroDivisionError at beta1 = 0"),
    M("engine", '    checked = _finite(norm, f"{name} gradient norm", iteration)',
      "    checked = float(norm.value)", "a non-finite gradient norm goes unreported"),
    M("engine", "        rng.bit_generator.state = saved", "        pass",
      "a replay that stops leaves algo_rng where it stopped"),
    M("engine", "    if plan is not None and plan.key == key:", "    if plan is not None:",
      "a plan replays batches of another shape than it was recorded for"),
    M("harness", "np.random.SeedSequence(entropy=run_seed, spawn_key=(1,))",
      "np.random.SeedSequence(entropy=run_seed, spawn_key=(2,))",
      "prepare_run's split stream changes"),
    M("harness", "spawn_key=(int(target),)", "spawn_key=(int(target) + 1,)",
      "_run_seed gives each target another run seed"),
    M("harness", "psi, theta, tau, theta.out_width)", "psi, theta, 1.0, theta.out_width)",
      "target_alignment ignores its temperature"),
    M("harness", "    if target not in datasets:", "    if False:",
      "prepare_run no longer rejects an unknown target"),
    M("harness", 'f"unknown config fields: {sorted(unknown, key=repr)}"',
      'f"unknown config fields: {sorted(unknown, key=repr)[:1]}"',
      "canonical_experiment_config names only the first unknown field"),
    M("harness", "    a = sums[rows, cls] / np.maximum(own - 1, 1)",
      "    a = sums[rows, cls] / own",
      "the silhouette's intra-class mean counts the sample itself"),
    M("keys", "    return f + 0.0 if ok else _WRONG", "    return f if ok else _WRONG",
      "a float key keeps -0.0"),
    M("keys", '"non-negative": lambda v: v >= 0,', '"non-negative": lambda v: v > 0,',
      "a non-negative key rejects 0"),
    M("keys", "twice = distinct and len(set(out)) < len(out)", "twice = False",
      "a list of distinct entries accepts a repeated entry"),
    M("losses", "tied = near[:, :-1].min(axis=1) < 1 << b",
      "tied = near[:, :-1].min(axis=1) < 0",
      "the miner stops re-sorting rows whose keys share their high bits"),
    M("losses", "np.flatnonzero(tied | ~(keys[:, -1].view(np.float64) < np.inf))",
      "np.flatnonzero(tied)",
      "the miner stops re-sorting rows that hold an inf or a NaN"),
    M("losses", "    del dist, near  # fewer live [N, N] buffers", "    pass",
      "the miner keeps two more [N, N] buffers alive"),
    M("losses", "    order[tied] = np.lexsort((~tied_neg, tied_d))",
      "    order[tied] = np.lexsort((tied_neg, tied_d))",
      "a re-sorted row puts positives before negatives at equal distance"),
    M("losses", "    far[tied] = np.where(tied_neg, tied_d, -np.inf).argmax(axis=1)",
      "    pass",
      "a re-sorted row's fallback is its last farthest negative, not its first"),
    M("losses", "lap += w.T", "lap += w", "the pair form drops w^T from its Laplacian"),
    M("losses", "    active = (d2[0] - d2[1]) + margin > 0.0",
      "    active = (d2[0] - d2[1]) + margin >= 0.0",
      "a triplet whose hinge is exactly 0 counts as active"),
    M("losses", "    active = (d2[0] - d2[1]) + margin > 0.0\n",
      "    active = (d2[0] - d2[1]) + margin > 0.0\n"
      "    if np.count_nonzero(active) % 2:\n        ad.const(0.0)\n",
      "the hinge builds one more node for an odd active-triplet count"),
    M("losses", "margin * np.count_nonzero(active) / t", "margin * active.size / t",
      "the hinge adds the margin of inactive triplets"),
    M("losses", "-1.0 / n_shared[pair], n * n)",
      "-1.0 / shared.shape[1] * np.ones(pair.size), n * n)",
      "the global loss averages over every class, not the shared ones"),
    M("losses", "    w = np.bincount(r * n + s, -1.0 / n_shared[pair], n * n).reshape(n, n)",
      "    w = np.zeros(n * n); w[r * n + s] = -1.0 / n_shared[pair]; "
      "w = w.reshape(n, n)",
      "a repeated domain pair counts once in the global loss"),
    M("losses", "    sq = gram.diagonal().copy()", "    sq = np.square(values).sum(axis=1)",
      "squared norms from a second sum: the distance diagonal is not exactly 0"),
    M("losses", "    return ad.add(quad, ad.const(tail))",
      "    return ad.add(quad, ad.const(tail + 0.0))",
      "a replay keeps the recorded step's hinge margin term"),
    M("nets", "np.sqrt(2.0 / fan_in)", "np.sqrt(1.0 / fan_in)",
      "weights start at half the He variance"),
    M("nets", "if relu_last or i < len(layers):", "if relu_last or i <= len(layers):",
      "the task head and the metric net end in a ReLU"),
    M("nets", "if not np.isfinite(t.value).all():", "if np.isnan(t.value).any():",
      "a checkpoint with an inf entry loads"),
]

EQUIVALENT = [
    M("engine", "SeedSequence(seed).spawn(2)", "SeedSequence(seed).spawn(3)",
      "spawn(n)'s first two children are the same for every n >= 2"),
    M("losses", "    lap.flat[::len(w) + 1] -= lap.sum(axis=0)",
      "    lap.flat[::len(w) + 1] -= lap.sum(axis=1)",
      "w + w^T is symmetric, so a row sum adds the numbers of a column sum, in "
      "another order: exact for the hinge's integer weights and for rows with "
      "two terms (three sources or fewer), rounding for the global loss beyond"),
    M("losses", "    pick = np.where(k > last,", "    pick = np.where(k >= last,",
      "at k == last only the row's last negative sorts after the member, and "
      "negatives sort before members at equal distance, so it is the row's one "
      "negative at its farthest distance (NaN farthest): the one far picks"),
]


def run(mutant: Mutant, copy: Path, args: list[str]) -> str:
    """Apply ``mutant`` in ``copy``, run pytest there and restore the
    module; the verdict as one line."""
    path = copy / "src" / "masf" / f"{mutant.module}.py"
    source = path.read_text()
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.module}: not exactly one {mutant.old!r}")
    path.write_text(source.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
    if not any(Path(copy, a.split("::")[0]).exists() for a in args if a[0] != "-"):
        files = sorted(str(p.relative_to(copy)) for p in copy.glob("tests/test_*.py"))
        args = args + [f for f in files if f not in (LAST, "tests/test_mutants.py")] + [LAST]
    try:
        proc = subprocess.run(PYTEST + args, cwd=copy, env=env, text=True, timeout=TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        return f"killed (timed out after {TIMEOUT} s)"
    finally:
        path.write_text(source)
    if proc.returncode == 0:
        return "SURVIVED"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return "killed " + (" ".join(failed) or f"({last})")


def main(args: list[str]) -> int:
    start, wrong = time.perf_counter(), []
    table = [(m, False) for m in MUTANTS] + [(m, True) for m in EQUIVALENT]
    with tempfile.TemporaryDirectory(prefix="masf-mutants-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name), ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, Path(tmp, name))
        for i, (mutant, equivalent) in enumerate(table, 1):
            kind = "equivalent" if equivalent else "mutant"
            print(f"[{i}/{len(table)}] {kind} {mutant.module}: {mutant.note}", flush=True)
            verdict = run(mutant, Path(tmp), args or ["-x"])
            print(f"    {verdict}", flush=True)
            if (verdict == "SURVIVED") != equivalent:
                wrong.append(f"{kind} {mutant.module}: {mutant.note}: {verdict}")
    print(f"\n{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, "
          f"{time.perf_counter() - start:.0f} s", *wrong, sep="\nunexpected: ")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
