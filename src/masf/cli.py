"""Command-line experiment runner.

Verbs:
  bench-gen   generate the benchmark as CSV (canonical, or from a spec file)
  train       train one configuration on the benchmark
  eval        evaluate saved checkpoints on a dataset CSV
  ablate      run the ablation grid and write report.csv
  plot        render metrics.csv columns as an SVG line plot

Configuration is a flat YAML mapping of keys.CONFIG keys (with no --config,
their defaults: the canonical study) plus --set KEY=VALUE overrides. A key
the verb does not read (UNREAD) is a config error. Every run writes the
configuration it read as resolved_config.yaml, which --config reads back.
The environment variable MASF_OUT_DIR, when set and not empty, overrides
the output directory.

Exit codes: 0 success, 1 config error (a usage error too), 2 run failure
(a non-finite loss or gradient norm), 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np
import yaml

from . import bench, engine, harness, keys, nets
from .engine import Hyperparams
from .harness import ExperimentConfig

EXIT_OK, EXIT_CONFIG, EXIT_RUN, EXIT_IO = 0, 1, 2, 3

# The config fields a run verb does not read: train takes --seed and --target
# and trains the row that episodic, use_global and use_local set; ablate
# trains each row of rows.
UNREAD = {"train": ("rows", "seeds", "targets"),
          "ablate": ("episodic", "use_global", "use_local")}


def _read_yaml(text: str, where: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:  # YAML's own message spans several lines
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ValueError(f"{where} is not valid YAML: {problem}{at}") from None


def load_spec_file(path: str | Path, what: str = "benchmark spec") -> dict:
    """The YAML mapping in file ``path`` ({} if empty), by default a benchmark
    spec: keys of bench.CANONICAL, the overrides bench.canonical_datasets
    takes. Anything else is a ValueError naming the file and ``what`` it
    holds."""
    cfg = _read_yaml(Path(path).read_text(), f"{path}: {what}")
    if not isinstance(cfg, dict | None):
        raise ValueError(f"{path}: {what} must be a YAML mapping")
    return cfg or {}


def _load_config(path: str | None, overrides: list[str],
                 command: str) -> ExperimentConfig:
    raw = load_spec_file(path, "config") if path else {}
    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        raw[key] = _read_yaml(value, f"override {item!r}")

    unknown = set(raw) - set(keys.CONFIG)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown, key=repr)}")
    unread = set(raw) & set(UNREAD[command])
    if unread:
        raise ValueError(f"config keys {sorted(unread)} are not read by {command}")
    read = {k: keys.read(k, v) for k, v in raw.items()}
    hp = {f.name: read.pop(f.name) for f in dataclasses.fields(Hyperparams)
          if f.name in read}
    return ExperimentConfig(hp=Hyperparams(**hp), **read)


def _dump_resolved(config: ExperimentConfig, out_dir: Path, command: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(config)
    payload = {k: v for k, v in {**payload.pop("hp"), **payload}.items()
               if k not in UNREAD[command]}
    with open(out_dir / "resolved_config.yaml", "w") as f:
        yaml.safe_dump(payload, f, sort_keys=False)


def _datasets(config: ExperimentConfig, flags: tuple, targets) -> tuple[dict, list]:
    """The benchmark domains and the held-out ``targets`` (a list, or a slice
    of the sorted domain ids), once each target's run has been set up, which
    checks the target and every key that bounds a run."""
    datasets = bench.canonical_datasets(config.bench_overrides)
    if len(datasets) < 3:
        raise ValueError(f"num_domains must be at least 3 to train (a target, "
                         f"a meta-train and a meta-test source), got {len(datasets)}")
    targets = sorted(datasets)[targets] if isinstance(targets, slice) else targets
    for target in targets:  # no check reads the flags or the run seed
        harness.prepare_run(config, flags, datasets, target, 0)
    return datasets, targets


def cmd_bench_gen(args) -> int:
    overrides = load_spec_file(args.spec) if args.spec else {}
    datasets = list(bench.canonical_datasets(overrides).values())
    out = ExperimentConfig(out_dir=args.out).resolved_out_dir()
    bench.export_csv(datasets, out / "benchmark.csv")
    print(f"wrote {out / 'benchmark.csv'} "
          f"({sum(len(d) for d in datasets)} samples, {len(datasets)} domains)")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    config = _load_config(args.config, args.set or [], "train")
    flags = (config.hp.episodic, config.hp.use_global, config.hp.use_local)
    datasets, (target,) = _datasets(  # no --target: the last domain
        config, flags, slice(-1, None) if args.target is None else [args.target])
    out_dir = config.resolved_out_dir()
    _dump_resolved(config, out_dir, "train")
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
    if theta["w0"].shape[0] != psi.out_width:
        raise ValueError(f"{theta_path} takes {theta['w0'].shape[0]} features, "
                         f"but {psi_path} gives {psi.out_width}")
    width = datasets[0].features.shape[1]  # all domains share the header
    if width != psi["w0"].shape[0]:
        raise ValueError(f"{args.data} has {width} features per row, but "
                         f"{psi_path} takes {psi['w0'].shape[0]}")
    for ds in datasets:
        try:
            acc = harness.evaluate_accuracy(psi, theta, ds)
        except ValueError as exc:  # a label the checkpoint has no class for
            raise ValueError(f"{args.data}, domain {ds.domain_id}: {exc}") from None
        print(f"domain {ds.domain_id}: accuracy {acc:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _load_config(args.config, args.set or [], "ablate")
    datasets, _ = _datasets(config, config.rows[0], config.targets or slice(None))
    out_dir = config.resolved_out_dir()
    _dump_resolved(config, out_dir, "ablate")
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
    if not rows:
        raise ValueError(f"{args.metrics}: nothing to plot, the file has no rows")
    series = {col: [bench.csv_cell(args.metrics, line, col, r[col])
                    for line, r in rows] for col in args.columns}
    harness.write_svg_lines(Path(args.out), series, title=Path(args.metrics).stem)
    print(f"wrote {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, not argparse's 2
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="masf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-gen", help="generate benchmark CSVs")
    p.add_argument("--spec", help="benchmark spec YAML (default: canonical)")
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
    try:
        args = build_parser().parse_args(argv)
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
