"""One benchmark invocation: set-up, closed-loop training, diagnostics, checks.

A workload is the canonical MASF study (``canonical_experiment_config()``,
canonical benchmark domains, target 3, sources 0/1/2, triplet local loss)
with one ablation row and one batch size. Each invocation trains ``RUNS``
runs back to back in one process with one caller; a step starts as soon as
the previous one returns.

The workload seed is the dataset base seed, and each run's training seed is
derived from it, so the same seed gives the same data, the same trained
parameters and the same ``target_acc``. The iteration count is fixed per
workload and run length (``steps_per_s`` was measured once on a 2-core
x86-64 machine), never by the clock, for the same reason.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import masf
from masf import autodiff as ad
from masf import bench, engine, harness, nets
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    batch_size: int       # per source domain
    use_local: bool       # triplet local loss on or off
    steps_per_s: float    # nominal rate; sets iterations from run length


WORKLOADS = {
    "full_triplet": Workload(batch_size=25, use_local=True, steps_per_s=36.0),
    "episodic_global": Workload(batch_size=25, use_local=False, steps_per_s=100.0),
    "wide_triplet": Workload(batch_size=50, use_local=True, steps_per_s=10.5),
}

TARGET = 3
SOURCES = (0, 1, 2)
RUNS = 4             # training runs per invocation
SETUP_REPS = 5       # timed set-ups per run; the last one is trained
EVAL_REPS = 5        # timed diagnostics passes per run
WARMUP_STEPS = 1     # first steps of each run left out of step timings
MIN_ITERATIONS = 4
MARGIN_PAIRS = 1000
REPLAY_STEPS = 3     # steps re-run to check that node counts repeat

class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


@dataclass
class Setup:
    state: engine.EpisodeState
    train: dict
    holdout: dict
    target: bench.DomainDataset


@dataclass
class RunResult:
    records: list
    step_s: list
    setup_s: list
    eval_s: list
    diagnostics: list  # one tuple per pass; the last is post-training
    final: list       # final parameter values, psi + theta + phi
    samples_per_step: int

    @property
    def target_acc(self) -> float:
        return self.diagnostics[-1][0]

    @property
    def measured_steps(self) -> list:
        return self.step_s[WARMUP_STEPS:]


class StepClock:
    """Metrics sink that timestamps each step.

    A step is timed from the return of the previous sink call to the entry
    of this one, so it covers the batch draw and the meta step but not the
    work ``after`` does (node counting in the traced run).
    """

    def __init__(self, after=None):
        self.after = after
        self.records: list = []
        self.step_s: list = []
        self._last = time.perf_counter()

    def start(self) -> None:
        self._last = time.perf_counter()

    def __call__(self, record) -> None:
        now = time.perf_counter()
        self.step_s.append(now - self._last)
        self.records.append(record)
        if self.after is not None:
            self.after(record)
        self._last = time.perf_counter()


def hyperparams(wl: Workload) -> engine.Hyperparams:
    hp = harness.canonical_experiment_config().hp
    return replace(hp, batch_size=wl.batch_size, episodic=True, use_global=True,
                   use_local=wl.use_local, local_loss_kind=engine.TRIPLET,
                   n_meta_train=len(SOURCES) - hp.n_meta_test)


def run_seed(seed: int, run: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(run,))
               .generate_state(1)[0])


def iterations(wl: Workload, seconds: float, trace: bool) -> int:
    """Steps per run; a traced invocation trains each run twice."""
    per_run = seconds * wl.steps_per_s / RUNS / (2 if trace else 1)
    return max(MIN_ITERATIONS, round(per_run))


def set_up(hp: engine.Hyperparams, base_seed: int, seed: int) -> Setup:
    """Generate the domains, split the sources and initialise parameters."""
    cfg = harness.canonical_experiment_config()
    datasets = {s.domain_id: bench.make_domain(s, base_seed)
                for s in bench.canonical_domain_specs()}
    split_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    train, holdout = {}, {}
    for k in SOURCES:
        train[k], holdout[k] = bench.train_test_split(
            datasets[k], cfg.train_fraction, split_rng)
    target = datasets[TARGET]
    arch = nets.Architecture(
        input_dim=target.features.shape[1],
        num_classes=max(d.num_classes for d in datasets.values()),
        feature_widths=cfg.feature_widths, metric_widths=cfg.metric_widths)
    return Setup(engine.make_state(arch, hp, seed), train, holdout, target)


def _setup_arrays(s: Setup) -> list:
    parts = [s.target.features, s.target.labels]
    for k in SOURCES:
        for d in (s.train[k], s.holdout[k]):
            parts += [d.features, d.labels]
    return parts + _param_values(s.state)


def _param_values(state: engine.EpisodeState) -> list:
    return [t.value for p in (state.psi, state.theta, state.phi) for t in p.tensors]


def timed_setups(hp, base_seed: int, seed: int, tracer: Tracer | None):
    """Set up SETUP_REPS times; check the repeats agree and return the last."""
    times, setups = [], []
    if tracer is not None:
        tracer.phase = "setup"
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        setups.append(set_up(hp, base_seed, seed))
        times.append(time.perf_counter() - t0)
    first, last = _setup_arrays(setups[0]), _setup_arrays(setups[-1])
    if not all(np.array_equal(a, b) for a, b in zip(first, last)):
        raise CheckFailed("repeated set-ups with one seed differ")
    return setups[-1], times


def _embed(state: engine.EpisodeState, features: np.ndarray) -> np.ndarray:
    z = nets.feature_forward(state.psi, ad.const(features))
    return nets.metric_forward(state.phi, z).value


def diagnostics(state: engine.EpisodeState, s: Setup, seed: int) -> tuple:
    """Target accuracy, then one source->target margin and alignment, then
    the silhouette of the metric embeddings on each held-out source."""
    held = s.holdout[SOURCES[0]]
    acc = harness.evaluate_accuracy(state.psi, state.theta, s.target)
    margin = harness.margin_statistic(state.psi, state.phi, held, s.target,
                                      MARGIN_PAIRS, np.random.default_rng(seed))
    align = harness.target_alignment(state.psi, state.theta, held, s.target,
                                     state.hp.tau)
    sil = tuple(harness.silhouette_score(_embed(state, s.holdout[k].features),
                                         s.holdout[k].labels) for k in SOURCES)
    return (acc, margin, align) + sil


def check_outputs(wl: Workload, state, records: list, n_iter: int,
                  diags: list, num_classes: int) -> None:
    if [r.iteration for r in records] != list(range(n_iter)):
        raise CheckFailed(f"expected {n_iter} metrics records in order")
    for r in records:
        for f in engine.MetricsRecord.FIELDS[1:]:
            if not math.isfinite(getattr(r, f)):
                raise CheckFailed(f"{f} is {getattr(r, f)} at iteration {r.iteration}")
        if not wl.use_local and r.local_loss != 0.0:
            raise CheckFailed(f"local loss ran at iteration {r.iteration}")
    for pset in (state.psi, state.theta, state.phi):
        for name, t in pset.entries:
            if not np.all(np.isfinite(t.value)):
                raise CheckFailed(f"{pset.role}.{name} is not finite")
    for diag in diags:
        if not all(math.isfinite(v) for v in diag):
            raise CheckFailed(f"non-finite diagnostic in {diag}")
    if not diags[-1][0] > 1.0 / num_classes:
        raise CheckFailed(f"target_acc {diags[-1][0]} is not above chance "
                          f"1/{num_classes}")


def _chunks(n: int, parts: int) -> list[int]:
    """``n`` split into at most ``parts`` near-equal positive sizes."""
    return [n // parts + (i < n % parts) for i in range(min(n, parts))]


def one_run(wl: Workload, hp, seed: int, rseed: int, n_iter: int,
            tracer: Tracer | None = None) -> RunResult:
    """Set up, train ``n_iter`` steps, evaluate, and check the outputs.

    Training is split into EVAL_REPS chunks with one timed diagnostics pass
    after each, so the eval_s samples are spread over the run like the steps
    are, instead of sharing one burst of machine load. The passes read the
    state and touch no RNG of the run; the last one is the post-training
    diagnostics.
    """
    s, setup_s = timed_setups(hp, seed, rseed, tracer)
    clock = StepClock(tracer.end_step if tracer is not None else None)
    state, eval_s, diags = s.state, [], []
    for chunk in _chunks(n_iter, EVAL_REPS):
        if tracer is not None:
            tracer.phase = "train"
        clock.start()
        state = engine.train(state, s.train, chunk, clock)
        if tracer is not None:
            tracer.phase = "eval"
        t0 = time.perf_counter()
        diags.append(diagnostics(state, s, rseed))
        eval_s.append(time.perf_counter() - t0)
    check_outputs(wl, state, clock.records, n_iter, diags,
                  state.theta["w0"].shape[1])
    return RunResult(clock.records, clock.step_s, setup_s, eval_s, diags,
                     _param_values(state), len(SOURCES) * wl.batch_size)


def replay_counts(hp, seed: int, rseed: int, n_steps: int) -> list:
    """Node and mining counts of the first steps of a fresh traced run."""
    tracer = Tracer()
    with tracer.installed():
        s = set_up(hp, seed, rseed)
        tracer.phase = "train"
        engine.train(s.state, s.train, n_steps,
                     StepClock(tracer.end_step))
    return tracer.steps


def check_traced(plain: RunResult, traced: RunResult, tracer: Tracer,
                 replay: list) -> None:
    """Tracing must change no computed value, and counts must repeat."""
    if [r.row() for r in plain.records] != [r.row() for r in traced.records]:
        raise CheckFailed("traced losses differ from the untraced run")
    if plain.diagnostics != traced.diagnostics:
        raise CheckFailed("traced target_acc or diagnostics differ")
    if not all(np.array_equal(a, b) for a, b in zip(plain.final, traced.final)):
        raise CheckFailed("traced final parameters differ")
    if replay != tracer.steps[:len(replay)]:
        raise CheckFailed("graph node counts differ between two runs of one seed")


def samples_per_s(runs: list) -> float:
    steps = [t for r in runs for t in r.measured_steps]
    return sum(r.samples_per_step * len(r.measured_steps) for r in runs) / sum(steps)


def end_to_end(runs: list) -> dict:
    steps_ms = [1e3 * t for r in runs for t in r.measured_steps]
    return {
        "setup_s": statistics.median(t for r in runs for t in r.setup_s),
        "samples_per_s": samples_per_s(runs),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "eval_s": statistics.median(t for r in runs for t in r.eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "target_acc": statistics.fmean(r.target_acc for r in runs),
    }


def per_layer(plains: list, traceds: list, tracers: list) -> dict:
    steps = sum(len(r.records) for r in traceds)
    out = layer_metrics(tracers, {
        "train": steps,
        "setup": sum(len(r.setup_s) for r in traceds),
        "eval": sum(len(r.eval_s) for r in traceds),
    })
    base, traced = samples_per_s(plains), samples_per_s(traceds)
    out["trace.samples_per_s.untraced"] = base
    out["trace.samples_per_s.traced"] = traced
    out["trace.overhead_frac"] = 1.0 - traced / base
    return out


def traced_pair(wl: Workload, hp, seed: int, rseed: int, n_iter: int,
                traced_first: bool) -> tuple[RunResult, RunResult, Tracer]:
    """An untraced and a traced run of one seed, checked against each other.

    Callers alternate the order so that a drift in machine speed does not
    always count for or against the tracer.
    """
    tracer = Tracer()

    def traced() -> RunResult:
        with tracer.installed():
            return one_run(wl, hp, seed, rseed, n_iter, tracer)

    if traced_first:
        traced_run = traced()
        plain = one_run(wl, hp, seed, rseed, n_iter)
    else:
        plain = one_run(wl, hp, seed, rseed, n_iter)
        traced_run = traced()
    replay = replay_counts(hp, seed, rseed, min(REPLAY_STEPS, n_iter))
    check_traced(plain, traced_run, tracer, replay)
    return plain, traced_run, tracer


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one invocation and return metrics, counts and run notes."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[name]
    hp = hyperparams(wl)
    n_iter = iterations(wl, seconds, trace)
    plains, traceds, tracers, notes = [], [], [], []
    for r in range(RUNS):
        rseed = run_seed(seed, r)
        try:
            if trace:
                plain, traced, tracer = traced_pair(wl, hp, seed, rseed, n_iter,
                                                    traced_first=r % 2 == 1)
                traceds.append(traced)
                tracers.append(tracer)
            else:
                plain = one_run(wl, hp, seed, rseed, n_iter)
        except (engine.NonFiniteLossError, CheckFailed) as exc:
            notes.append({"run": r, "run_seed": rseed,
                          "failed": f"{type(exc).__name__}: {exc}"})
            continue
        plains.append(plain)
        notes.append({"run": r, "run_seed": rseed, "failed": None})
    metrics = {}
    if plains:
        metrics = per_layer(plains, traceds, tracers) if trace else end_to_end(plains)
    return {"attempted": RUNS, "failed": RUNS - len(plains), "metrics": metrics,
            "iterations_per_run": n_iter,
            "measured_steps": sum(len(r.measured_steps) for r in plains),
            "runs": notes}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "masf": masf.__version__,
        "masf_path": os.path.dirname(masf.__file__),
        "git_sha": _git_sha(),
        "workload_seed": seed,
        "argv": sys.argv[1:],
    }
