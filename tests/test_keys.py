"""The rule table of keys.py: it covers every settable key, it reads every
default, and one wrong-kind value of each key is a config error."""

import re
from dataclasses import fields

import pytest
import yaml

from masf import bench, cli, engine, harness, keys

# one value of another kind per kind, as YAML text
WRONG_KIND = {"bool": "abc", "int": "2.5", "whole": "2.5", "float": "abc",
              "str": "[1]", "mapping": "[1]", "floats": "5", "widths": "5",
              "seeds": "abc", "targets": "abc", "rows": "[[1, 1]]"}


def config_keys():
    return ({f.name for f in fields(engine.Hyperparams)}
            | {f.name for f in fields(harness.ExperimentConfig)}) - {"hp"}


def test_table_covers_exactly_the_settable_keys():
    assert set(keys.CONFIG) == config_keys()
    assert set(keys.BENCHMARK) == set(bench.CANONICAL)
    assert not set(keys.CONFIG) & set(keys.BENCHMARK)


def test_defaults_read_as_themselves():
    # the canonical study as resolved_config.yaml writes it, and CANONICAL
    config = harness.ExperimentConfig()
    defaults = {f.name: getattr(config.hp, f.name) for f in fields(engine.Hyperparams)}
    defaults |= {k: getattr(config, k) for k in config_keys() - set(defaults)}
    for key, value in [*defaults.items(), *bench.CANONICAL.items()]:
        assert keys.read(key, yaml.safe_load(yaml.safe_dump(value))) == value, key


@pytest.mark.parametrize("key, value, got", [
    ("iterations", 7.0, 7), ("scales", [1, "1e-1"], [1.0, 0.1]),
    ("feature_widths", [8, 4], (8, 4)), ("targets", None, None),
    ("rows", [[True, False, True]], [(True, False, True)])])
def test_read_gives_the_kind(key, value, got):
    read = keys.read(key, value)
    assert read == got and type(read) is type(got)


@pytest.mark.parametrize("key, value, message", [
    ("alpha", "nan", "config key 'alpha' expects a number, got 'nan'"),
    ("alpha", float("inf"), "alpha must be a finite number, got inf"),
    ("alpha", True, "config key 'alpha' expects a number, got True"),
    ("eta", 10**400, f"config key 'eta' expects a number, got {10**400}"),
    ("iterations", 0, "iterations must be >= 1, got 0"),
    ("iterations", 2.5, "config key 'iterations' expects a whole number, got 2.5"),
    ("local_loss_kind", "cosine", "unknown local_loss_kind 'cosine'"),
    ("n_samples", 500.0, "benchmark key 'n_samples' expects an int, got 500.0"),
    ("base_seed", -1, "base_seed must be non-negative, got -1"),
    ("num_domains", 0, "num_domains must be >= 1, got 0"),
    ("noise_sigma", -1, "noise_sigma must be non-negative, got -1.0")])
def test_read_names_key_and_value(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        keys.read(key, value)


@pytest.mark.parametrize("key", [*keys.CONFIG, *keys.BENCHMARK])
def test_wrong_kind_is_config_error(tmp_path, monkeypatch, capsys, key):
    """Each key takes a value of another kind through the verb that reads it."""
    monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
    if key in keys.CONFIG:
        item = f"{key}={WRONG_KIND[keys.CONFIG[key][0]]}"
    else:
        item = f"bench_overrides={{{key}: {WRONG_KIND[keys.BENCHMARK[key][0]]}}}"
    command = "ablate" if key in cli.UNREAD["train"] else "train"
    assert cli.main([command, "--set", "iterations=1", "--set", item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"key {key!r} expects" in err
    assert not any(tmp_path.iterdir())
