"""Suite runner: every registered statement over a corpus plus seeded random instances.

The corpus pass enumerates structured instances (all normal subgroups, all
cyclic subgroups, every element where feasible); the random pass draws
instances from per-(statement, index) derived PRNG streams, so any failure is
reproducible from the seed and the instance key alone, independent of how
many other statements ran.  Reports are deterministic: the only
non-reproducible content lives under the separate "timing" key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from .errors import SpecParseError
from .group import Group, _by_size_and_mask, cyclic_subgroups, normal_subgroups, subgroup_closure
from .rng import SplitMix64, derive_seed
from .specio import (
    SCHEMA_VERSION,
    _as_spec_dict,
    check_to_dict,
    load_group,
    rational_str,
    witness_to_dict,
)
from .statements import CheckResult, check, statement_ids
from .subset import Subset, symmetrize, with_identity
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


def random_symmetric_subset(group: Group, density, stream: SplitMix64) -> Subset:
    """Random inverse-closed subset containing the identity.

    Each {g, g^-1} orbit with g != 1 is included independently with the given
    probability (exact rational), drawn in ascending order of min(g, g^-1),
    so the result depends only on the stream state and the group.
    """
    return _draw_pairs(group, range(group.order), Fraction(density), stream)


def _draw_pairs(group: Group, ids, probability: Fraction, stream: SplitMix64) -> Subset:
    """The identity plus each pair {g, g^-1} with min(g, g^-1) in ids, kept with
    the given probability: one event per pair, drawn in the order of ids."""
    keep = [group.identity]
    for g in ids:
        other = int(group.inv[g])
        if g == group.identity or g > other:
            continue
        if stream.event(probability):
            keep += [g, other]
    return Subset.from_ids(group, keep)


def _random_plain_subset(group: Group, density, stream: SplitMix64) -> Subset:
    density = Fraction(density)
    ids = [g for g in range(group.order) if stream.event(density)]
    if not ids:
        ids = [int(stream.below(group.order))]
    return Subset.from_ids(group, ids)


def _a_candidates(group: Group, roles: dict) -> list[Subset]:
    """Symmetric identity-containing test sets for one corpus group."""
    cands = [Subset.full(group)]
    if group.order > 1:
        cands.append(with_identity(symmetrize(Subset.singleton(group, 1))))
    for role in ("A", "A0", "H"):
        if role in roles:
            cands.append(roles[role])
    return list(dict.fromkeys(cands))


def _subgroup_pool(group: Group) -> list[Subset]:
    pool = cyclic_subgroups(group) + normal_subgroups(group) + [Subset.full(group)]
    return sorted(dict.fromkeys(pool), key=_by_size_and_mask)


def _corpus_instances(sid: str, group: Group, roles: dict) -> Iterator[dict]:
    """Deterministic structured instances of one statement on one group."""
    a_cands = _a_candidates(group, roles)
    full = Subset.full(group)
    trivial = Subset.singleton(group, group.identity)
    if sid in ("P2.1", "P2.2", "C2.3a", "C2.3b"):
        for nsub in normal_subgroups(group):
            for a in a_cands:
                yield {"a": a, "nsub": nsub}
    elif sid == "Sub-mono":
        pool = _subgroup_pool(group)
        for h2 in pool:
            for h1 in pool:
                if h1.issubset(h2):
                    yield {"h1": h1, "h2": h2}
    elif sid in ("L2.5a", "L2.5b"):
        for a in a_cands:
            for g in range(group.order):
                yield {"a": a, "g": g}
    elif sid == "L2.6":
        for a in a_cands:
            for g in a.id_list()[:6]:
                for n in (2, 3):
                    yield {"a": a, "g": g, "n": n}
    elif sid == "P2.7":
        for a2 in a_cands:
            for a1 in a_cands:
                if a1.issubset(a2):
                    for b in (full, Subset.singleton(group, group.order - 1)):
                        yield {"a1": a1, "a2": a2, "b": b}
    elif sid == "C2.8":
        subs = cyclic_subgroups(group)
        if "H" in roles:
            subs.append(roles["H"])
        for h in subs:
            for b in (full, Subset.singleton(group, group.order - 1)):
                yield {"h": h, "a": full, "b": b}
    elif sid == "P1.3":
        t_pool = dict.fromkeys([trivial, full] + normal_subgroups(group)[:6])
        b_cands = [full] + ([roles["A"]] if "A" in roles else [])
        for a in a_cands:
            for b in b_cands:
                for t in t_pool:
                    yield {"a": a, "b": b, "t": t}
    elif sid == "P1.4":
        c_pool = dict.fromkeys([trivial, full] + normal_subgroups(group)[:4])
        for a in a_cands:
            for c in c_pool:
                yield {"a": a, "c": c}
    else:
        raise KeyError(f"no corpus instance builder for statement {sid!r}")


def _random_instance(sid: str, groups: list[tuple[Group, dict]], stream: SplitMix64) -> dict:
    """One random instance of a statement, valid by construction."""
    group, _roles = groups[stream.below(len(groups))]
    density = stream.choice(_DENSITIES)
    if sid in ("P2.1", "P2.2", "C2.3a", "C2.3b"):
        normals = normal_subgroups(group)
        nsub = normals[stream.below(len(normals))]
        return {"a": random_symmetric_subset(group, density, stream), "nsub": nsub}
    if sid == "Sub-mono":
        g1 = stream.below(group.order)
        g2 = stream.below(group.order)
        h2 = subgroup_closure(Subset.from_ids(group, sorted({g1, g2})))
        h1 = subgroup_closure(
            Subset.singleton(group, h2.id_list()[stream.below(h2.size)])
        )
        return {"h1": h1, "h2": h2}
    if sid in ("L2.5a", "L2.5b"):
        a = random_symmetric_subset(group, density, stream)
        return {"a": a, "g": stream.below(group.order)}
    if sid == "L2.6":
        a = random_symmetric_subset(group, density, stream)
        return {"a": a, "g": stream.below(group.order), "n": 2 + stream.below(2)}
    if sid == "P2.7":
        a2 = random_symmetric_subset(group, density, stream)
        a1 = _draw_pairs(group, a2.id_list(), Fraction(1, 2), stream)
        b = _random_plain_subset(group, density, stream)
        return {"a1": a1, "a2": a2, "b": b}
    if sid == "C2.8":
        h = subgroup_closure(Subset.singleton(group, stream.below(group.order)))
        a = h | random_symmetric_subset(group, density, stream)
        return {"h": h, "a": a, "b": _random_plain_subset(group, density, stream)}
    if sid == "P1.3":
        a = _random_plain_subset(group, density, stream)
        b = _random_plain_subset(group, density, stream)
        t = subgroup_closure(Subset.singleton(group, stream.below(group.order)))
        return {"a": a, "b": b, "t": t}
    if sid == "P1.4":
        a = random_symmetric_subset(group, density, stream)
        c = subgroup_closure(Subset.singleton(group, stream.below(group.order)))
        return {"a": a, "c": c}
    raise KeyError(f"no random instance builder for statement {sid!r}")


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
    return " ".join(parts)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run the corpus and random passes, then the witness pipelines."""
    t_start = time.perf_counter()
    from .group import current_order_cap

    cap = config.order_cap if config.order_cap is not None else current_order_cap()
    groups = _load_corpus(config, cap)
    sids = list(config.statements) if config.statements else statement_ids()
    statements_out: dict[str, dict] = {}
    timing_stmt: dict[str, float] = {}

    for sid in sids:
        t_sid = time.perf_counter()
        count = 0
        failures: list[dict] = []
        min_slack: Optional[Fraction] = None
        tightest: Optional[str] = None

        def record(key: str, result: CheckResult) -> None:
            nonlocal count, min_slack, tightest
            count += 1
            if not result.holds:
                if len(failures) < MAX_FAILURE_DETAIL:
                    detail = check_to_dict(result)
                else:
                    detail = {}
                detail["key"] = key
                detail["repro"] = _repro_command(config, sid, key)
                failures.append(detail)
            if min_slack is None or result.slack < min_slack:
                min_slack = result.slack
                tightest = key

        for g_index, (group, roles) in enumerate(groups):
            for i, inst in enumerate(_corpus_instances(sid, group, roles)):
                key = f"{sid}/corpus/{g_index}.{group.name}/{i}"
                if config.only is not None and key != config.only:
                    continue
                record(key, check(sid, description=key, **inst))
        for idx in range(config.random_instances_per_statement):
            key = f"{sid}/rand/{idx}"
            if config.only is not None and key != config.only:
                continue
            stream = SplitMix64(derive_seed(config.seed, sid, idx))
            inst = _random_instance(sid, groups, stream)
            record(key, check(sid, description=key, **inst))

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

        Path(config.output_path).write_text(dump_json(report.document()))
    return report
