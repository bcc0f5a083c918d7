"""Per-layer tracing of the package from outside.

The tracer wraps the package's public functions and installs each wrapper in
every `approxcommute` module that bound the original, so a call is seen
whichever module it goes through. Each wrapped call is a span: name, start,
end and the enclosing span. A call of a function that is already running
(recursion, or a call through a second binding) belongs to the outer span
and is not counted again. Spans stay in memory until `write_spans` writes
them once, at the end of the run; `layer_metrics` derives calls, self times
and the named counters from them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

STATEMENT_IDS = (
    "P2.1", "P2.2", "C2.3a", "C2.3b", "Sub-mono", "L2.5a",
    "L2.5b", "L2.6", "P2.7", "C2.8", "P1.3", "P1.4",
)
CLI_COMMANDS = ("pr", "certify", "witness", "verify", "example", "cover")

# (module, public function) pairs that get a span; approx.certify is split
# into approx.certify.greedy and approx.certify.exact by its mode argument.
TRACED = (
    ("group", "build_from_table"),
    ("group", "build_from_permutations"),
    ("group", "direct_product"),
    ("group", "normal_subgroups"),
    ("group", "conjugacy_classes"),
    ("group", "conjugacy_class_under"),
    ("group", "quotient"),
    ("group", "subgroup_closure"),
    ("group", "commutator_subgroup"),
    ("group", "centralizer_in"),
    ("group", "is_subgroup"),
    ("group", "is_normal"),
    ("subset", "product"),
    ("subset", "power"),
    ("probability", "commuting_probability"),
    ("approx", "certify"),
    ("approx", "growth_constants"),
    ("approx", "ruzsa_cover"),
    ("suite", "random_symmetric_subset"),
    ("suite", "run_suite"),
    ("statements", "check"),
    ("witness", "witness_thm1"),
    ("witness", "witness_thm2"),
    ("witness", "extract_core"),
    ("witness", "bounded_conjugate_cover"),
    ("family", "build_example"),
    ("corpus", "default_corpus"),
    ("specio", "load_group"),
    ("specio", "load_subset"),
    ("specio", "dump_json"),
    ("cli", "main"),
)

# Functions that are only counted, without a span: they run too often and
# too briefly for a span to be worth its cost.
COUNTED_FUNCTIONS = (("rng", "derive_seed"),)
COUNTED_METHODS = (("rng", "SplitMix64", "next_u64"), ("rng", "SplitMix64", "event"))

# Spans that run_suite spends outside instance generation.
_NOT_GENERATION = (
    "statements.check", "witness.witness_thm1", "witness.witness_thm2", "corpus.default_corpus",
)


def _layer_names() -> list[str]:
    layers = []
    for module, func in TRACED:
        if (module, func) == ("approx", "certify"):
            layers += ["approx.certify.greedy", "approx.certify.exact"]
        else:
            layers.append(f"{module}.{func}")
    return layers


LAYERS = _layer_names()


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(f"statements.check.{sid}.s", "s") for sid in STATEMENT_IDS]
    out += [(f"cli.main.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    out += [
        ("group.normal_subgroups.repeat_calls", "count"),
        ("subset.power.products", "count"),
        ("probability.commuting_probability.pairs", "count"),
        ("approx.certify.universe", "count"),
        ("specio.dump_json.bytes", "bytes"),
        ("suite.generate_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    out += [(f"{m}.{c}.{f}.calls", "count") for m, c, f in COUNTED_METHODS]
    out += [(f"{m}.{f}.calls", "count") for m, f in COUNTED_FUNCTIONS]
    return out


def _cli_command(argv) -> str:
    args = list(sys.argv[1:] if argv is None else argv)
    return next((a for a in args if not a.startswith("-")), "none")


class Tracer:
    """Spans and counters for the package's public functions."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per finished span: (span id, parent span id, name id, start, end)
        self._rows: list[tuple[int, int, int, float, float]] = []
        self._stack = [-1]
        self._next_span = 0
        self._running: set[object] = set()
        self.counts: Counter[str] = Counter()
        self._enumerated: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return got

    def _span_wrapper(self, fn, name_of, after=None):
        running, stack, rows, clock = self._running, self._stack, self._rows, time.perf_counter

        def traced(*args, **kwargs):
            if fn in running:
                return fn(*args, **kwargs)
            name_id = self._name_id(name_of(args, kwargs))
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1]
            stack.append(span)
            running.add(fn)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                running.discard(fn)
                stack.pop()
                rows.append((span, parent, name_id, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def new_round(self) -> None:
        """Forget which groups had their normal subgroups enumerated."""
        self._enumerated.clear()

    # -- hooks for the derived counters --------------------------------------

    def _after_normal_subgroups(self, args, kwargs, result) -> None:
        group = args[0] if args else kwargs["group"]
        # the group is kept alive so that its id cannot be reused in the round
        if id(group) in self._enumerated:
            self.counts["group.normal_subgroups.repeat_calls"] += 1
        self._enumerated[id(group)] = group

    def _after_commuting_probability(self, args, kwargs, result) -> None:
        x = args[0] if len(args) > 0 else kwargs["x"]
        y = args[1] if len(args) > 1 else kwargs["y"]
        self.counts["probability.commuting_probability.pairs"] += x.size * y.size

    def _after_certify(self, args, kwargs, result) -> None:
        square = Fraction(result.doubling) * result.base.size
        self.counts["approx.certify.universe"] += int(square)

    def _after_dump_json(self, args, kwargs, result) -> None:
        self.counts["specio.dump_json.bytes"] += len(result)

    # -- installation --------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Bind replacement wherever a package module bound original."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "approxcommute" or mod_name.startswith("approxcommute.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        hooks = {
            "group.normal_subgroups": self._after_normal_subgroups,
            "probability.commuting_probability": self._after_commuting_probability,
            "approx.certify": self._after_certify,
            "specio.dump_json": self._after_dump_json,
        }
        namers = {
            "approx.certify": lambda a, k: "approx.certify." + (
                a[1] if len(a) > 1 else k.get("mode", "greedy")
            ),
            "statements.check": lambda a, k: "statements.check:" + (
                a[0] if a else k["statement_id"]
            ),
            "cli.main": lambda a, k: "cli.main:" + _cli_command(a[0] if a else k.get("argv")),
        }
        importlib.import_module("approxcommute.cli")
        for module, func in TRACED:
            mod = importlib.import_module(f"approxcommute.{module}")
            original = getattr(mod, func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            key = f"{module}.{func}"
            namer = namers.get(key, lambda a, k, key=key: key)
            self._replace(original, self._span_wrapper(original, namer, hooks.get(key)))
        for module, func in COUNTED_FUNCTIONS:
            mod = importlib.import_module(f"approxcommute.{module}")
            original = getattr(mod, func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            self._replace(original, self._counter(original, f"{module}.{func}.calls"))
        for module, cls_name, meth in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"approxcommute.{module}"), cls_name, None)
            original = getattr(cls, meth, None)
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{meth}")
                continue
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._counter(original, f"{module}.{cls_name}.{meth}.calls"))
        return self

    def _counter(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def _table(self):
        rows = np.array(self._rows, dtype=np.float64).reshape(-1, 5)
        span = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        name = rows[:, 2].astype(np.int64)
        duration = rows[:, 4] - rows[:, 3]
        row_of = np.full(self._next_span + 1, -1, dtype=np.int64)
        row_of[span] = np.arange(span.size)
        parent_row = np.where(parent >= 0, row_of[parent], -1)
        child_time = np.zeros(span.size)
        has_parent = parent_row >= 0
        np.add.at(child_time, parent_row[has_parent], duration[has_parent])
        return name, parent_row, duration, duration - child_time

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round averages of every per-layer metric except trace.overhead_s."""
        name, parent_row, duration, self_time = self._table()
        names = self._names
        calls = np.bincount(name, minlength=len(names))
        self_sum = np.bincount(name, weights=self_time, minlength=len(names))
        incl_sum = np.bincount(name, weights=duration, minlength=len(names))
        totals: Counter[str] = Counter()
        for i, full in enumerate(names):
            layer, _, detail = full.partition(":")
            totals[f"{layer}.calls"] += int(calls[i])
            totals[f"{layer}.self_s"] += float(self_sum[i])
            if detail:
                totals[f"{layer}.{detail}.s"] += float(incl_sum[i])
        layer_of = np.array([n.partition(":")[0] for n in names], dtype=object)
        span_layer = layer_of[name]
        parent_layer = np.where(parent_row >= 0, span_layer[parent_row], "")
        totals["subset.power.products"] = int(
            np.count_nonzero((span_layer == "subset.product") & (parent_layer == "subset.power"))
        )
        totals["suite.generate_s"] = self._generation_time(span_layer, parent_row, duration)
        totals.update(self.counts)
        out = {}
        for metric, unit in metric_names():
            if metric == "trace.overhead_s":
                continue
            out[metric] = totals.get(metric, 0) / rounds
        return out

    @staticmethod
    def _generation_time(span_layer, parent_row, duration) -> float:
        """run_suite time outside checks, witness pipelines and the corpus."""
        total = 0.0
        for i in np.flatnonzero(span_layer == "suite.run_suite"):
            total += float(duration[i])
        for i in np.flatnonzero(np.isin(span_layer, _NOT_GENERATION)):
            up = parent_row[i]
            while up >= 0 and span_layer[up] not in _NOT_GENERATION + ("suite.run_suite",):
                up = parent_row[up]
            if up >= 0 and span_layer[up] == "suite.run_suite":
                total -= float(duration[i])
        return total

    def self_time_total(self) -> float:
        return float(self._table()[3].sum())

    def write_spans(self, path: Path) -> None:
        """Write every span once: names, and (span, parent, name, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self._names, dtype=str),
            spans=np.array(self._rows, dtype=np.float64).reshape(-1, 5),
        )
