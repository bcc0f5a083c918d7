"""Suite runner: every registered statement over a corpus plus seeded random instances.

Each statement registers its own instance builders (`StatementSpec.corpus`
and `.draw`); this module only loops over them.  The random pass draws a
group, a density and then the instance from per-(statement, index) derived
PRNG streams, so any failure is reproducible from the seed and the instance
key alone, independent of how many other statements ran.  Reports are
deterministic: the only non-reproducible content lives under "timing".
"""

from __future__ import annotations

import os
import shlex
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import OutputError, SpecParseError
from .group import Group
from .rng import SplitMix64, derive_seed
from .specio import (
    SCHEMA_VERSION,
    _as_spec_dict,
    check_to_dict,
    load_group,
    rational_str,
    witness_to_dict,
)
# random_symmetric_subset stays importable here: the benchmark's tracer and tests use this path
from .statements import REGISTRY, check, random_symmetric_subset, statement_ids  # noqa: F401
from .subset import Subset
from .witness import witness_thm1, witness_thm2

_DENSITIES = (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))

# How many failures to describe in full inside the report.
MAX_FAILURE_DETAIL = 25


@dataclass
class SuiteConfig:
    """Configuration for one suite run; loadable from a JSON file."""

    corpus: Optional[list] = None
    statements: Optional[list[str]] = None
    random_instances_per_statement: int = 500
    seed: int = 1
    order_cap: Optional[int] = None
    output_path: Optional[str] = None
    only: Optional[str] = None
    run_witnesses: bool = True
    source_path: Optional[str] = None

    _KEY_TYPES = {
        "corpus": list,
        "statements": list,
        "random_instances_per_statement": int,
        "seed": int,
        "order_cap": int,
        "output_path": str,
    }

    @classmethod
    def from_dict(cls, data: dict, *, source_path: Optional[str] = None) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise SpecParseError("config must be a JSON object")
        unknown = set(data) - set(cls._KEY_TYPES)
        if unknown:
            raise SpecParseError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(source_path=source_path)
        for key, kind in cls._KEY_TYPES.items():
            value = data.get(key)
            if value is None:
                continue
            if not isinstance(value, kind) or isinstance(value, bool):
                raise SpecParseError(f"config {key} must be of type {kind.__name__}, got {value!r}")
            setattr(cfg, key, value)
        if cfg.random_instances_per_statement < 0:
            raise SpecParseError("config random_instances_per_statement must be >= 0")
        if cfg.order_cap is not None and cfg.order_cap < 1:
            raise SpecParseError(f"config order_cap must be positive, got {cfg.order_cap}")
        if cfg.statements is not None:
            if not cfg.statements:
                raise SpecParseError("config statements must name at least one statement")
            bad = [s for s in cfg.statements if s not in statement_ids()]
            if bad:
                raise SpecParseError(f"unknown statement ids in config: {bad}")
        return cfg

    @classmethod
    def from_file(cls, path) -> "SuiteConfig":
        return cls.from_dict(_as_spec_dict(path, "config"), source_path=str(path))


@dataclass
class SuiteReport:
    """Deterministic payload plus wall-clock timing, kept separate."""

    payload: dict
    timing: dict

    @property
    def failures(self) -> int:
        return sum(s["failures"] for s in self.payload["statements"].values())

    def document(self) -> dict:
        doc = dict(self.payload)
        doc["timing"] = self.timing
        return doc


def _load_corpus(config: SuiteConfig, cap: int) -> list[tuple[Group, dict]]:
    if config.corpus is None:
        from .corpus import default_corpus

        return [(g, roles) for g, roles in default_corpus() if g.order <= cap]
    loaded = []
    for spec in config.corpus:
        lg = load_group(spec, order_cap=cap)
        loaded.append((lg.group, lg.roles))
    if not loaded:
        raise SpecParseError("config corpus is empty")
    return loaded


def _repro_command(config: SuiteConfig, sid: str, key: str) -> str:
    parts = ["approxcommute", "verify"]
    if config.source_path:
        parts += ["--config", config.source_path]
    parts += ["--seed", str(config.seed), "--statement", sid, "--only", key]
    return shlex.join(parts)


def _require_writable(path: str) -> None:
    target = Path(path)
    if target.is_dir():
        raise SpecParseError(f"output path {path} is a directory")
    if not (target.parent.is_dir() and os.access(target.parent, os.W_OK)):
        raise SpecParseError(f"output path {path} is not in a writable directory")


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Refuse an output path that cannot be written, then run both passes and the witnesses."""
    t_start = time.perf_counter()
    from .group import current_order_cap

    if config.output_path:
        _require_writable(config.output_path)
    cap = config.order_cap if config.order_cap is not None else current_order_cap()
    groups = _load_corpus(config, cap)
    sids = statement_ids() if config.statements is None else list(config.statements)
    statements_out: dict[str, dict] = {}
    timing_stmt: dict[str, float] = {}

    for sid in sids:
        t_sid = time.perf_counter()
        count = 0
        failures: list[dict] = []
        min_slack: Optional[Fraction] = None
        tightest: Optional[str] = None

        def record(key: str, inst: dict) -> None:
            nonlocal count, min_slack, tightest
            count += 1
            try:
                result = check(sid, description=key, **inst)
            except Exception as exc:  # one bad instance must not end the run
                detail = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                if min_slack is None or result.slack < min_slack:
                    min_slack = result.slack
                    tightest = key
                if result.holds:
                    return
                detail = check_to_dict(result)
            detail["key"] = key
            detail["repro"] = _repro_command(config, sid, key)
            failures.append(detail)

        spec = REGISTRY[sid]
        for g_index, (group, roles) in enumerate(groups):
            for i, inst in enumerate(spec.corpus(group, roles)):
                key = f"{sid}/corpus/{g_index}.{group.name}/{i}"
                if config.only is not None and key != config.only:
                    continue
                record(key, inst)
        for idx in range(config.random_instances_per_statement):
            key = f"{sid}/rand/{idx}"
            if config.only is not None and key != config.only:
                continue
            stream = SplitMix64(derive_seed(config.seed, sid, idx))
            group, _roles = stream.choice(groups)
            record(key, spec.draw(group, stream.choice(_DENSITIES), stream))

        statements_out[sid] = {
            "instances": count,
            "failures": len(failures),
            "failure_detail": failures[:MAX_FAILURE_DETAIL],
            "min_slack": None if min_slack is None else rational_str(min_slack),
            "tightest_instance": tightest,
        }
        timing_stmt[sid] = time.perf_counter() - t_sid
    if config.only is not None and not any(s["instances"] for s in statements_out.values()):
        raise SpecParseError(f"only key {config.only!r} matches no instance")

    witnesses = []
    if config.run_witnesses and config.only is None:
        for g_index, (group, roles) in enumerate(groups):
            full = Subset.full(group)
            w1 = witness_thm1(full)
            w2 = witness_thm2(full)
            witnesses.append(
                {
                    "group": f"{g_index}.{group.name}",
                    "order": group.order,
                    "thm1": witness_to_dict(w1),
                    "thm2": witness_to_dict(w2),
                }
            )

    payload = {
        "schema": SCHEMA_VERSION,
        "config": {
            "seed": config.seed,
            "order_cap": cap,
            "random_instances_per_statement": config.random_instances_per_statement,
            "statements": sids,
            "only": config.only,
            "corpus": [
                {"name": group.name, "order": group.order} for group, _ in groups
            ],
        },
        "statements": statements_out,
        "witnesses": witnesses,
    }
    timing = {
        "total_seconds": time.perf_counter() - t_start,
        "statements": timing_stmt,
    }
    report = SuiteReport(payload=payload, timing=timing)
    if config.output_path:
        from .specio import dump_json

        try:
            Path(config.output_path).write_text(dump_json(report.document()))
        except OSError as exc:
            raise OutputError(f"cannot write {config.output_path}: {exc}") from exc
    return report
