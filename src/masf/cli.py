"""Command-line experiment runner.

Verbs:
  bench-gen   generate the benchmark as CSV (canonical, or from a spec file)
  train       train one configuration on the benchmark
  eval        evaluate saved checkpoints on a dataset CSV
  ablate      run the ablation grid and write report.csv
  plot        render metrics.csv columns as an SVG line plot

Configuration is a flat YAML mapping of ExperimentConfig and Hyperparams
fields (with no --config, their defaults: the canonical study) plus --set
KEY=VALUE overrides. n_meta_train is not among them: a run derives it as
the number of source domains minus n_meta_test. Every run writes the
configuration as resolved_config.yaml, which --config reads back. The
environment variable MASF_OUT_DIR, when set and not empty, overrides the
output directory.

Exit codes: 0 success, 1 config error, 2 run failure (non-finite loss),
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import bench, engine, harness, nets
from .engine import Hyperparams
from .harness import ExperimentConfig

EXIT_OK, EXIT_CONFIG, EXIT_RUN, EXIT_IO = 0, 1, 2, 3


def _coerce(key: str, value, declared: str):
    """``value`` as the declared type of config field ``key`` (YAML reads
    ``1e-5`` as a string); a value of another type is a ValueError naming
    ``key``. Layer widths, seeds and targets are lists of ints."""
    if declared not in ("int", "float"):
        ints = isinstance(value, list) and all(type(i) is int and i >= 0
                                               for i in value)
        expected, fits = {
            "bool": ("true or false", type(value) is bool),
            "str": ("a string", type(value) is str),
            "dict": ("a mapping", type(value) is dict),
            "tuple[int, ...]": ("a non-empty list of positive ints",
                                ints and value != [] and 0 not in value),
            "seeds": ("a list of non-negative ints", ints),
            "targets": ("null or a list of domain ids", value is None or ints),
            "rows": ("a list of [episodic, global, local] rows of true or false",
                     isinstance(value, list) and all(
                         isinstance(r, list) and len(r) == 3
                         and all(type(f) is bool for f in r) for r in value)),
        }[key if key in ("seeds", "targets", "rows") else declared]
        if not fits:
            raise ValueError(f"config key {key!r} expects {expected}, got {value!r}")
        if key == "rows":
            return [tuple(r) for r in value]
        return tuple(value) if declared.startswith("tuple") else value
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or (declared == "int" and not number.is_integer()):
        raise ValueError(f"config key {key!r} expects {declared}, got {value!r}")
    return number if declared == "float" else int(number)


def _load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    raw: dict = {}
    if path:
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        raw[key] = yaml.safe_load(value)

    if "n_meta_train" in raw:
        raise ValueError("config key 'n_meta_train' cannot be set: it is the "
                         "number of source domains minus n_meta_test")
    hp_fields = {f.name: f.type for f in dataclasses.fields(Hyperparams)}
    cfg_fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)
                  if f.name != "hp"}
    unknown = set(raw) - set(hp_fields) - set(cfg_fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    hp_kwargs = {k: _coerce(k, v, hp_fields[k]) for k, v in raw.items()
                 if k in hp_fields}
    cfg_kwargs = {k: _coerce(k, v, cfg_fields[k]) for k, v in raw.items()
                  if k in cfg_fields}
    return ExperimentConfig(hp=Hyperparams(**hp_kwargs), **cfg_kwargs)


def _dump_resolved(config: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(config)
    payload = {**payload.pop("hp"), **payload}
    del payload["n_meta_train"]  # run_single derives it; --config rejects it
    with open(out_dir / "resolved_config.yaml", "w") as f:
        yaml.safe_dump(payload, f, sort_keys=False)


def _datasets(config: ExperimentConfig, targets: list | None) -> dict:
    """The benchmark domains, after the checks of the keys they bound and
    of the held-out ``targets`` (None: every domain)."""
    datasets = bench.canonical_datasets(config.bench_overrides)
    missing = [t for t in targets or [] if t not in datasets]
    if missing:
        raise ValueError(f"target {missing[0]} is not a domain; the domain "
                         f"ids are {sorted(datasets)}")
    config.hp.validate(max(d.num_classes for d in datasets.values()))
    n_sources = len(datasets) - 1  # every domain but the target
    if not 1 <= config.hp.n_meta_test < n_sources:
        raise ValueError(f"n_meta_test must be between 1 and {n_sources - 1}")
    if config.iterations < 1:
        raise ValueError("iterations must be >= 1")
    # the split's size does not depend on its rng; any domain can be a source
    train_rows = min(len(bench.train_test_split(d, config.train_fraction,
                                                np.random.default_rng(0))[0])
                     for d in datasets.values())
    if config.hp.batch_size > train_rows:
        raise ValueError(f"batch_size exceeds a source's {train_rows}-row training split")
    return datasets


def cmd_bench_gen(args) -> int:
    overrides = bench.load_spec_file(args.spec) if args.spec else {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    datasets = list(bench.canonical_datasets(overrides).values())
    out = Path(os.environ.get("MASF_OUT_DIR") or args.out)
    bench.export_csv(datasets, out / "benchmark.csv")
    print(f"wrote {out / 'benchmark.csv'} "
          f"({sum(len(d) for d in datasets)} samples, {len(datasets)} domains)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config, args.set or [])
    datasets = _datasets(config, None if args.target is None else [args.target])
    out_dir = config.resolved_out_dir()
    _dump_resolved(config, out_dir)
    target = args.target if args.target is not None else sorted(datasets)[-1]
    flags = (config.hp.episodic, config.hp.use_global, config.hp.use_local)
    acc, state, _, _ = harness.run_single(
        config, flags, target, args.seed, datasets,
        metrics_path=out_dir / "metrics.csv", return_state=True)
    ckpt = out_dir / f"ckpt_{state.t}"
    nets.save_params(state.psi, ckpt / "psi.bin")
    nets.save_params(state.theta, ckpt / "theta.bin")
    nets.save_params(state.phi, ckpt / "phi.bin")
    print(f"target {target} accuracy {acc:.4f}; checkpoints in {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    datasets = bench.import_csv(args.data)
    psi_path, theta_path = Path(args.ckpt) / "psi.bin", Path(args.ckpt) / "theta.bin"
    psi = nets.load_params(psi_path, nets.FEATURE_EXTRACTOR)
    theta = nets.load_params(theta_path, nets.TASK_NET)
    feature_dim = psi.tensors[-1].shape[0]  # the last layer's bias
    if theta["w0"].shape[0] != feature_dim:
        raise ValueError(f"{theta_path} takes {theta['w0'].shape[0]} features, "
                         f"but {psi_path} gives {feature_dim}")
    width = datasets[0].features.shape[1]  # all domains share the header
    if width != psi["w0"].shape[0]:
        raise ValueError(f"{args.data} has {width} features per row, but "
                         f"{psi_path} takes {psi['w0'].shape[0]}")
    for ds in datasets:
        acc = harness.evaluate_accuracy(psi, theta, ds)
        print(f"domain {ds.domain_id}: accuracy {acc:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _load_config(args.config, args.set or [])
    datasets = _datasets(config, config.targets)
    out_dir = config.resolved_out_dir()
    _dump_resolved(config, out_dir)
    report = harness.run_experiment(config, datasets)
    for flags, mean, std, failed in report.summary():
        e, g, l = ("x" if v else "-" for v in flags)
        std_s = "n/a" if np.isnan(std) else f"{std:.4f}"
        print(f"episodic {e}  global {g}  local {l}  "
              f"accuracy {mean:.4f} +/- {std_s}  failed {failed}")
    print(f"report written to {out_dir / 'report.csv'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    with open(args.metrics, newline="") as f:
        reader = csv.DictReader(f)
        rows = [(reader.line_num, r) for r in reader]
    available = reader.fieldnames or []
    unknown = [col for col in args.columns if col not in available]
    if unknown:
        raise ValueError(f"{args.metrics}: no column {', '.join(map(repr, unknown))}; "
                         f"available: {', '.join(available) or 'none'}")
    series = {col: [bench.csv_cell(args.metrics, line, col, r[col])
                    for line, r in rows] for col in args.columns}
    harness.write_svg_lines(Path(args.out), series, title=Path(args.metrics).stem)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-gen", help="generate benchmark CSVs")
    p.add_argument("--spec", help="benchmark spec YAML (default: canonical)")
    p.add_argument("--seed", type=int, help="override base seed")
    p.add_argument("--out", default="bench_out")
    p.set_defaults(func=cmd_bench_gen)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("--config", help="experiment config YAML")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, help="held-out target domain id")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on a dataset CSV")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation grid")
    p.add_argument("--config", help="experiment config YAML")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("plot", help="plot metrics.csv columns to SVG")
    p.add_argument("--metrics", required=True)
    p.add_argument("--columns", nargs="+", default=["task_loss"])
    p.add_argument("--out", default="metrics.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except engine.NonFiniteLossError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return EXIT_RUN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
