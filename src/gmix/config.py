"""Flat key=value run configuration.

One namespaced key per field ('#' starts a comment, blank lines are
skipped); unknown keys, bad types and duplicate keys are rejected with the
offending line number, and constraint violations with the file name. A
sweep's grid values replace the file's, and their errors name the
``--grid`` key instead. Absent keys take their defaults, and the fully
resolved configuration is echoed into the run manifest, whose flat form is
hashed to name output directories.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

from .datasets import DATASET_KINDS, SyntheticSpec
from .heads import HEAD_KINDS
from .moments import MODES
from .outlier import GATE_MODES
from .pipeline import MOM_VIEWS, RunConfig


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in text.split(","))


def _enum(options) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text

    return parse


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class _Key:
    """A key's field, as a dotted path from a root ("run" or "data"), and its parser."""

    path: str
    parse: Callable[[str], object]


# The one list of config keys. Defaults are read off RunConfig() and
# SyntheticSpec(), never written here; the order is the manifest's.
SCHEMA: dict[str, _Key] = {
    "run.seed": _Key("run.seed", int),
    "run.steps": _Key("run.steps", int),
    "run.eval_every": _Key("run.eval_every", int),
    "opt.lr": _Key("run.lr", _parse_float),
    "opt.momentum": _Key("run.momentum", _parse_float),
    "opt.weight_decay": _Key("run.weight_decay", _parse_float),
    "opt.clip_norm": _Key("run.clip_norm", _parse_float),
    "ssl.labeled_batch": _Key("run.labeled_batch", int),
    "ssl.unlabeled_ratio": _Key("run.unlabeled_ratio", int),
    "ssl.conf_threshold": _Key("run.conf_threshold", _parse_float),
    "ssl.lambda_u": _Key("run.lambda_u", _parse_float),
    "ssl.curriculum": _Key("run.curriculum", _parse_bool),
    "ssl.ema_decay": _Key("run.ema_decay", _parse_float),
    "head.kind": _Key("run.head_kind", _enum(HEAD_KINDS)),
    "head.latent_dim": _Key("run.latent_dim", int),
    "mom.orders": _Key("run.moments.max_order", int),
    "mom.weights": _Key("run.moments.order_weights", _parse_float_list),
    "mom.mode": _Key("run.moments.mode", _enum(MODES)),
    "mom.view": _Key("run.mom_view", _enum(MOM_VIEWS)),
    "gate.enabled": _Key("run.gate.enabled", _parse_bool),
    "gate.percentile": _Key("run.gate.percentile", _parse_float),
    "gate.mode": _Key("run.gate.mode", _enum(GATE_MODES)),
    "gate.refresh": _Key("run.gate.refresh_every", int),
    "gate.exclude_mom": _Key("run.gate.exclude_from_mom", _parse_bool),
    "data.kind": _Key("data.kind", _enum(DATASET_KINDS)),
    "data.classes": _Key("data.n_classes", int),
    "data.ambient": _Key("data.ambient_dim", int),
    "data.unlabeled": _Key("data.n_unlabeled", int),
    "data.test": _Key("data.n_test", int),
    "data.labels_per_class": _Key("data.labels_per_class", int),
    "data.noise": _Key("data.cluster_noise", _parse_float),
    "data.outlier_frac": _Key("data.outlier_frac", _parse_float),
    "data.seed": _Key("data.seed", int),
}


def _lookup(roots: dict, path: str):
    root, *attrs = path.split(".")
    return reduce(getattr, attrs, roots[root])


_KEY_OF_PATH = {k.path: key for key, k in SCHEMA.items()}


def _rebuild(default, fields: dict, path: str):
    """``default`` (the field at ``path``) with ``fields`` replaced; a nested
    dict rebuilds that field's dataclass.

    A constraint message that starts with a field name is raised as a
    ``ConfigError`` that starts with that field's key instead.
    """
    changes = {
        name: _rebuild(getattr(default, name), v, f"{path}.{name}") if isinstance(v, dict) else v
        for name, v in fields.items()
    }
    try:
        return replace(default, **changes)
    except ValueError as e:
        name, sep, rest = str(e).partition(" ")
        raise ConfigError(_KEY_OF_PATH.get(f"{path}.{name}", name) + sep + rest) from None


def parse_config_text(text: str, source: str = "<config>", overrides=()):
    """Parse config text into ``(RunConfig, SyntheticSpec, effective_dict)``.

    ``overrides`` are ``(key, value_text)`` pairs, a sweep's grid values,
    parsed after the text and replacing its values. Their errors name
    ``--grid KEY``.
    """
    values: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen_lines:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
            )
        seen_lines[key] = lineno
        try:
            values[key] = SCHEMA[key].parse(value_text)
        except ValueError as e:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key}: {e}"
            ) from None
    for key, value_text in overrides:
        if key not in SCHEMA:
            raise ConfigError(f"--grid {key}: unknown key {key!r}")
        try:
            values[key] = SCHEMA[key].parse(value_text)
        except ValueError as e:
            raise ConfigError(f"--grid {key}: bad value for {key}: {e}") from None

    # Group the set values by field path. Walking the table (not the text)
    # fixes the order the dataclasses are validated in, and so which error
    # a config with several faults reports.
    fields: dict[str, dict] = {"run": {}, "data": {}}
    for key, k in SCHEMA.items():
        if key in values:
            *parents, leaf = k.path.split(".")
            node = fields
            for name in parents:
                node = node.setdefault(name, {})
            node[leaf] = values[key]
    try:
        run_config = _rebuild(RunConfig(), fields["run"], "run")
        data_spec = _rebuild(SyntheticSpec(), fields["data"], "data")
    except ConfigError as e:
        key = str(e).split(" ", 1)[0]
        where = f"--grid {key}" if key in dict(overrides) else source
        raise ConfigError(f"{where}: {e}") from None
    return run_config, data_spec, flatten_config(run_config, data_spec)


def parse_config(path):
    with open(path) as f:
        text = f.read()
    return parse_config_text(text, source=str(path))


def flatten_config(config: RunConfig, data_spec: SyntheticSpec) -> dict[str, str]:
    """Every schema key with its effective value, serialized canonically."""
    roots = {"run": config, "data": data_spec}
    return {key: _fmt_value(_lookup(roots, k.path)) for key, k in SCHEMA.items()}


def config_hash(flat: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={flat[k]}" for k in sorted(flat))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
