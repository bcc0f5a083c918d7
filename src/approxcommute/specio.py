"""Loading group/subset specs and serializing results to JSON.

Wire conventions used everywhere: rationals are "p/q" strings (always with an
explicit denominator, so 1 serializes as "1/1"), element sets are sorted id
arrays, and every top-level document carries `"schema": "1"`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .approx import ApproxCertificate
from .errors import OrderCapExceeded, SpecParseError
from .family import ExampleInstance, ExampleParams, build_example
from .group import (
    Group,
    build_from_permutations,
    build_from_table,
    current_order_cap,
    subgroup_closure,
)
from .statements import CheckResult
from .subset import Subset
from .witness import CoreExtraction, WitnessReport

SCHEMA_VERSION = "1"


def rational_str(value: Union[Fraction, int]) -> str:
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer; anything else is a SpecParseError."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"cannot parse rational from {text!r}: {exc}") from exc


@dataclass(frozen=True)
class LoadedGroup:
    """A group plus any named role subsets that came with its spec."""

    group: Group
    roles: dict[str, Subset]
    instance: Optional[ExampleInstance] = None


def _as_spec_dict(spec, what: str) -> dict:
    if isinstance(spec, (str, Path)):
        path = Path(spec)
        try:
            spec = json.loads(path.read_text())
        except OSError as exc:
            raise SpecParseError(f"cannot read {what} spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid JSON in {what} spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecParseError(f"{what} spec must be a JSON object, got {type(spec).__name__}")
    return spec


def load_group(spec, *, order_cap: Optional[int] = None) -> LoadedGroup:
    """Build a group from a spec dict or a path to a JSON spec file.

    Three kinds are understood: "table" (explicit Cayley table), "perm"
    (permutation generators as image arrays), and "family" (the built-in
    example family, which also provides the roles A, A0, H, Z).
    """
    spec = _as_spec_dict(spec, "group")
    cap = current_order_cap() if order_cap is None else order_cap
    kind = spec.get("kind")
    name = spec.get("name")
    if kind in ("table", "perm") and not isinstance(name, (str, type(None))):
        raise SpecParseError(f'"name" must be a string, got {type(name).__name__}')
    if kind == "table":
        table = spec.get("table")
        if not isinstance(table, list) or not table:
            raise SpecParseError('"table" kind requires a nonempty "table" array')
        if len(table) > cap:
            raise OrderCapExceeded(f"table has order {len(table)}, above the cap {cap}")
        try:
            arr = np.asarray(table)
        except ValueError:
            raise SpecParseError("table must be a rectangular array") from None
        if arr.ndim != 2:
            raise SpecParseError(f"table must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype.kind not in "iu" or any(bool in set(map(type, row)) for row in table):
            raise SpecParseError("table entries must be integers, not floats, booleans or strings")
        labels = spec.get("labels")
        if labels is not None and (not isinstance(labels, list) or len(labels) != len(arr)):
            raise SpecParseError(f'"labels" must be an array of {len(arr)} names')
        group = build_from_table(
            arr, labels=labels, name=name or f"table[{arr.shape[0]}]"
        )
        return LoadedGroup(group=group, roles={})
    if kind == "perm":
        gens = spec.get("generators")
        if not isinstance(gens, list) or not gens or not all(isinstance(g, list) for g in gens):
            raise SpecParseError('"perm" kind requires a nonempty "generators" array of arrays')
        degree = spec.get("degree")
        if degree is not None and any(len(g) != degree for g in gens):
            raise SpecParseError(
                f"generator length differs from declared degree {degree}"
            )
        images = [tuple(_spec_int(v, "permutation images") for v in g) for g in gens]
        try:
            group = build_from_permutations(images, name=name or "perm", order_cap=cap)
        except ValueError as exc:  # a generator that is not a permutation
            raise SpecParseError(str(exc)) from exc
        return LoadedGroup(group=group, roles={})
    if kind == "family":
        family = spec.get("name", "example1")
        if family != "example1":
            raise SpecParseError(f"unknown family name {family!r}")
        try:
            raw = (spec["n"], spec["k"], spec.get("u", spec.get("u_order", 1)))
        except KeyError as exc:
            raise SpecParseError(f'family spec missing key {exc.args[0]!r}') from exc
        params = ExampleParams(*(_spec_int(v, "family n, k, u") for v in raw))
        instance = build_example(params, order_cap=cap)
        return LoadedGroup(
            group=instance.group, roles=dict(instance.roles), instance=instance
        )
    raise SpecParseError(
        f"unknown group spec kind {kind!r}; expected table, perm, or family"
    )


def _spec_int(value, what: str) -> int:
    """An int that is not a bool, or a string of ASCII digits, as an int.

    Anything else (a float, a bool, another string) is a SpecParseError
    naming what, never a silently truncated value.
    """
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecParseError(f"{what} must be integers, got {value!r}")


def element_ids(ids, group: Group, what: str) -> list[int]:
    """ids as ints, each checked to name an element of the group."""
    if not isinstance(ids, list):
        raise SpecParseError(f"{what} must be an array of element ids")
    out = [_spec_int(i, f"{what} ids") for i in ids]
    bad = [i for i in out if not 0 <= i < group.order]
    if bad:
        raise SpecParseError(f"{what}: ids {bad} out of range [0, {group.order})")
    return out


def load_subset(spec, loaded: LoadedGroup) -> Subset:
    """Build a subset from its spec dict (or JSON file path) against a group."""
    spec = _as_spec_dict(spec, "subset")
    group = loaded.group
    if "elements" in spec:
        return Subset.from_ids(group, element_ids(spec["elements"], group, '"elements"'))
    if spec.get("all"):
        return Subset.full(group)
    if "subgroup_generated_by" in spec:
        gens = element_ids(spec["subgroup_generated_by"], group, '"subgroup_generated_by"')
        if not gens:
            return Subset.singleton(group, group.identity)
        return subgroup_closure(Subset.from_ids(group, gens))
    if "role" in spec:
        role = spec["role"]
        if not isinstance(role, str) or role not in loaded.roles:
            known = ", ".join(sorted(loaded.roles)) or "none"
            raise SpecParseError(f"group spec provides no role {role!r} (known: {known})")
        return loaded.roles[role]
    raise SpecParseError(
        "subset spec must contain one of: elements, all, subgroup_generated_by, role"
    )


def certificate_to_dict(cert: ApproxCertificate) -> dict:
    return {
        "k": cert.k_cert,
        "cover": cert.cover.id_list(),
        "mode": cert.mode,
        "base_size": cert.base.size,
        "doubling": rational_str(cert.doubling),
        "tripling": rational_str(cert.tripling),
    }


def extraction_to_dict(ext: CoreExtraction) -> dict:
    return {
        "h": ext.h.id_list(),
        "u_size": ext.u.size,
        "epsilon": rational_str(ext.epsilon),
        "k_u": ext.k_u,
        "class_threshold": rational_str(ext.class_threshold),
        "x": ext.x.id_list(),
        "b": ext.b.id_list(),
        "b_closure_size": ext.b_closure.size,
        "b_cert": certificate_to_dict(ext.b_cert),
        "class_bound_m": ext.class_bound_m,
        "chain_bound_pair": rational_str(ext.chain_bound_pair),
        "chain_bound_cover": rational_str(ext.chain_bound_cover),
    }


def witness_to_dict(report: WitnessReport) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "theorem": report.theorem,
        "group": report.a.group.name,
        "group_order": report.a.group.order,
        "a": report.a.id_list(),
        "k_cert": report.k_cert,
        "epsilon": rational_str(report.epsilon),
        "gamma": rational_str(report.gamma),
        "extractions": [extraction_to_dict(e) for e in report.extractions],
    }
    if report.t is not None:
        out["t"] = report.t.id_list()
        out["index_g_t"] = report.index_g_t
        out["commutator_size"] = report.commutator_size
    if report.c is not None:
        out["y"] = report.y.id_list()
        out["c"] = report.c.id_list()
        out["c_prime_size"] = report.c_prime_size
        out["k_tilde"] = rational_str(report.k_tilde)
        out["eta"] = rational_str(report.eta)
        out["coset_count"] = report.coset_count
        out["cover_f"] = report.cover_f.id_list()
    return out


def check_to_dict(result: CheckResult) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "statement_id": result.statement_id,
        "instance": result.instance,
        "lhs": rational_str(result.lhs),
        "rhs": rational_str(result.rhs),
        "holds": result.holds,
        "slack": rational_str(result.slack),
    }


def canonical_json(payload) -> str:
    """Stable serialization: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dump_json(payload) -> str:
    """Human-facing serialization used by the CLI: sorted keys, indented.

    Exactly json.dumps(payload, sort_keys=True, indent=2) + "\n", whose indent
    runs pure-Python code; lists of plain scalars (a Cayley table row) hold no
    strings, so the C encoder writes them and their separators are indented.
    """
    return _indented(payload, "\n") + "\n"


_SCALAR_TYPES = {int, float, bool, type(None)}


def _indented(obj, newline: str) -> str:
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        # json itself writes a non-str key: it converts it or raises TypeError
        items = (
            (json.dumps(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4])
            + ": " + _indented(value, inner)
            for key, value in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if set(map(type, obj)) <= _SCALAR_TYPES:
        body = json.dumps(obj)[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join(_indented(value, inner) for value in obj)
    return "[" + inner + body + newline + "]"
