"""Check that this tree trains byte for byte what a base revision trains.

    python tools/same.py --base <rev> [--grid]

The base side is ``git archive <rev> src perfbench``, extracted into a
temporary directory; the other side is this working tree. Each side runs in
its own Python process, because both packages are named ``masf``. Both run
one case table at target 3, seeds 0 and 1, 60 steps each:

  * every ablation row with the triplet local loss, and every local row with
    the contrastive one, set up by ``harness.prepare_run``;
  * the three perfbench workloads, set up by ``workload.set_up`` at
    ``workload.run_seed(seed, 0)``.

Per case it prints the sha256 of the trained psi, theta and phi and of the
``MetricsRecord`` rows, and for a case whose digests differ, the first step
whose record differs. ``--grid`` also runs the canonical ``masf ablate`` on
each side and compares the sha256 of its ``report.csv``. The exit status is
0 when everything is equal and 1 otherwise. Nothing is written outside the
temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = 3
SEEDS = (0, 1)
STEPS = 60
WORKLOADS = ("full_triplet", "episodic_global", "wide_triplet")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _train(state, train, label: str) -> dict:
    from masf import engine

    rows = []
    state = engine.train(state, train, STEPS, lambda r: rows.append(repr(r.row())))
    out = {"case": label, "steps": [_sha(r.encode()) for r in rows],
           "records": _sha("\n".join(rows).encode())}
    for pset, name in ((state.psi, "psi"), (state.theta, "theta"), (state.phi, "phi")):
        out[name] = _sha(b"".join(t.value.tobytes() for t in pset.tensors))
    return out


def side() -> list[dict]:
    """Every case of the table, trained by the ``masf`` on ``sys.path``."""
    from dataclasses import replace

    import workload
    from masf import bench, engine, harness

    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    out = []
    for seed in SEEDS:
        for flags in harness.ALL_ROWS:
            for kind in (engine.TRIPLET, engine.CONTRASTIVE)[:1 + flags[2]]:
                config = replace(cfg, hp=replace(cfg.hp, local_loss_kind=kind))
                state, train, _ = harness.prepare_run(
                    config, flags, datasets, TARGET, harness._run_seed(seed, TARGET))
                label = "e{:d}g{:d}l{:d}".format(*flags)
                out.append(_train(state, train, f"{label} {kind} seed {seed}"))
        for name in WORKLOADS:
            wl = workload.WORKLOADS[name]
            s = workload.set_up(workload.hyperparams(wl), seed, workload.run_seed(seed, 0))
            out.append(_train(s.state, s.train, f"{name} seed {seed}"))
    return out


def run_side(tree: Path, *args: str) -> str:
    """This script's ``args`` in a new process with ``tree``'s sources."""
    env = {k: v for k, v in os.environ.items() if k != "MASF_OUT_DIR"}
    env.update({"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])})
    proc = subprocess.run([sys.executable, __file__, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def report_digest(tree: Path, out_dir: Path) -> str:
    """The sha256 of the report.csv of the canonical ``masf ablate``."""
    run_side(tree, "--ablate", str(out_dir))
    return _sha((out_dir / "report.csv").read_bytes())


def compare(base: list[dict], head: list[dict]) -> bool:
    same = True
    for b, h in zip(base, head, strict=True):
        differ = [k for k in ("psi", "theta", "phi", "records") if b[k] != h[k]]
        print(f"{h['case']:<28} psi {h['psi'][:12]} theta {h['theta'][:12]} "
              f"phi {h['phi'][:12]} records {h['records'][:12]}  "
              f"{'differ: ' + ' '.join(differ) if differ else 'same'}")
        if differ:
            same = False
            steps = [i for i, (x, y) in enumerate(zip(b["steps"], h["steps"])) if x != y]
            print(f"    first differing record: step {steps[0]}" if steps
                  else "    every record is the same")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare this tree with")
    parser.add_argument("--grid", action="store_true",
                        help="also compare the canonical masf ablate report.csv")
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ablate", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps(side()))
        return 0
    if args.ablate:
        from masf import cli
        return cli.main(["ablate", "--set", f"out_dir={args.ablate}"])
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="masf-same-") as tmp:
        base_tree = Path(tmp, "base")
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.base, "src", "perfbench"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        same = compare(json.loads(run_side(base_tree, "--side")),
                       json.loads(run_side(ROOT, "--side")))
        if args.grid:
            digests = [report_digest(tree, Path(tmp, name)) for tree, name in
                       ((base_tree, "base_report"), (ROOT, "report"))]
            print(f"report.csv base {digests[0]}\nreport.csv this {digests[1]}")
            same &= digests[0] == digests[1]
    print("same" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
