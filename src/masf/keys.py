"""Each settable key's kind and bound, and ``read``, their one reader:
CONFIG for the fields of engine.Hyperparams and harness.ExperimentConfig
(other than hp), BENCHMARK for the keys of bench.CANONICAL. A rule that ties
a key to the data or to another key stays with the code that knows both."""

import math
from numbers import Integral, Real

# key: (kind, bound); a tuple bound lists choices.
# bench.DomainSpec bounds num_classes, input_dim and n_samples, and
# bench.train_test_split bounds train_fraction, when a run is set up.
CONFIG = {
    "alpha": ("float", "positive"),
    "eta": ("float", "positive"),
    "gamma": ("float", "positive"),
    "beta1": ("float", "non-negative"),
    "beta2": ("float", "non-negative"),
    "tau": ("float", "positive"),
    "xi": ("float", "non-negative"),
    "clip_threshold": ("float", "positive"),
    "decay_rate": ("float", "in [0, 1)"),
    "decay_every": ("whole", ">= 1"),
    "batch_size": ("whole", None),
    "n_meta_test": ("whole", None),
    "local_loss_kind": ("str", ("contrastive", "triplet")),
    "episodic": ("bool", None),
    "use_global": ("bool", None),
    "use_local": ("bool", None),
    "bench_overrides": ("mapping", None),
    "rows": ("rows", None),
    "seeds": ("seeds", None),
    "iterations": ("whole", ">= 1"),
    "train_fraction": ("float", None),
    "feature_widths": ("widths", None),
    "metric_widths": ("widths", None),
    "out_dir": ("str", None),
    "targets": ("targets", None),
}
BENCHMARK = {
    "num_domains": ("int", ">= 1"),
    "num_classes": ("int", None),
    "input_dim": ("int", None),
    "n_samples": ("int", None),
    "rotations_deg": ("floats", None),
    "scales": ("floats", None),
    "shifts": ("floats", None),
    "noise_sigma": ("float", "non-negative"),
    "variant_radius": ("float", None),
    "invariant_radius": ("float", None),
    "latent_sigma": ("float", "non-negative"),
    "base_seed": ("int", "non-negative"),
}

_BOUNDS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}
_WRONG = object()  # a reader's answer to a value of another kind


def _float(v):
    """``v`` as a finite float, and -0.0 as 0.0 (numpy rejects a scale of
    -0.0). A string is read when it spells one, as YAML 1.1 reads ``1e-5``
    as a string."""
    try:
        f = float(v) if isinstance(v, str | Real) and not isinstance(v, bool) else None
    except (ValueError, OverflowError):  # 10**400 is an int and no float
        return _WRONG
    ok = f is not None and math.isfinite(f)
    return f + 0.0 if ok else _WRONG  # -0.0 + 0.0 is 0.0


def _int(v, least=-math.inf):
    return v if isinstance(v, Integral) and not isinstance(v, bool) and v >= least else _WRONG


def _whole(v):
    """``v`` as an int; a float or a string that spells a whole number too."""
    f = _float(v)
    return int(f) if f is not _WRONG and f.is_integer() else _WRONG


def _is(cls):
    return lambda v: v if isinstance(v, cls) else _WRONG


def _listed(entry, distinct=False, size=None, into=list):
    """The reader of a non-empty list (of ``size`` entries, if given) of what
    ``entry`` reads, as an ``into``; ``distinct`` rejects a repeated entry."""
    def read(v):
        ok = isinstance(v, list) and v and size in (None, len(v))
        out = [entry(x) for x in v] if ok else [_WRONG]
        twice = distinct and len(set(out)) < len(out)
        return _WRONG if twice or _WRONG in out else into(out)
    return read


_seeds = _listed(lambda x: _int(x, 0), distinct=True)
_KINDS = {  # kind: (what a value of it is, its reader)
    "bool": ("true or false", _is(bool)),
    "int": ("an int", _int),
    "whole": ("a whole number", _whole),
    "float": ("a finite number", _float),
    "str": ("a string", _is(str)),
    "mapping": ("a mapping", _is(dict)),
    "floats": ("a non-empty list of finite numbers", _listed(_float)),
    "widths": ("a non-empty list of positive ints",
               _listed(lambda x: _int(x, 1), into=tuple)),
    "seeds": ("a non-empty list of distinct non-negative ints", _seeds),
    "targets": ("null or a non-empty list of distinct domain ids",
                lambda v: v if v is None else _seeds(v)),
    "rows": ("a non-empty list of distinct [episodic, global, local] rows of "
             "true or false", _listed(_listed(_is(bool), size=3, into=tuple),
                                      distinct=True)),
}


def read(key: str, value):
    """``value`` as the kind of ``key``, a key of CONFIG or BENCHMARK; a
    ValueError naming both if it is of another kind or out of bound."""
    group, (kind, bound) = (("config", CONFIG[key]) if key in CONFIG
                            else ("benchmark", BENCHMARK[key]))
    expects, reader = _KINDS[kind]
    if (got := reader(value)) is _WRONG:
        raise ValueError(f"{group} key {key!r} expects {expects}, got {value!r}")
    if isinstance(bound, tuple) and got not in bound:
        raise ValueError(f"unknown {key} {got!r}")
    if isinstance(bound, str) and not _BOUNDS[bound](got):
        raise ValueError(f"{key} must be {bound}, got {got}")
    return got
