"""The three benchmark workloads and the checks on their outputs.

Each workload has the same life cycle, driven by run.py:

- `setup()` is the program's set-up: it imports the package and builds the
  groups that every round reuses. Its cost is the `setup_s` metric.
- `prepare()` makes the seeded inputs; this is the benchmark's own work and
  is not timed.
- `run_round()` does the workload's fixed work once and returns the raw
  outputs. Only this is timed.
- `summarize(raw)` gives (attempted, failed, fingerprint); rounds after the
  first must reproduce the first round's fingerprint.
- `check(raw)` checks the first round's outputs against the brute-force
  references in oracles.py and raises CheckFailed on a wrong answer.

Every call into the package goes through the module attribute at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np

import oracles
from oracles import CheckFailed, require

# verify: random instances per statement; the default corpus adds 15,916
# corpus instances, so a round checks 17,116 instances.
VERIFY_INSTANCES = 100
# witness: seeded random symmetric sets per corpus group, and the chance that
# each {g, g^-1} pair joins one.
WITNESS_RANDOM_SETS = 2
WITNESS_DENSITY = Fraction(1, 4)


def sha256_json(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """approxcommute.cli.main(argv) in process, with stdout and stderr captured."""
    import approxcommute.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _ids(subset) -> list[int]:
    return [int(g) for g in subset.ids]


# ---------------------------------------------------------------------------
# checks shared by the witness and query workloads


def check_thm1(doc: dict, mul: np.ndarray, inv: np.ndarray, epsilon=None) -> None:
    """T normal, [G:T] and |[T,<B>]| by brute force, |A n B| = gamma max(|A|,|B|)."""
    n = mul.shape[0]
    a, t, b = doc["a"], doc["t"], doc["extractions"][0]["b"]
    want_eps = oracles.pr(mul, a, range(n)) if epsilon is None else Fraction(epsilon)
    require(Fraction(doc["epsilon"]) == want_eps, f"thm1 epsilon {doc['epsilon']} != {want_eps}")
    require(oracles.is_normal(mul, inv, t), "thm1: T is not a normal subgroup")
    require(doc["index_g_t"] == n // len(t), "thm1: [G:T] is wrong")
    b_closure = oracles.closure(mul, b)
    comm = oracles.commutator_subgroup(mul, inv, t, b_closure)
    require(doc["commutator_size"] == comm.size, "thm1: |[T,<B>]| is wrong")
    overlap = np.intersect1d(a, b).size
    require(
        Fraction(overlap) == Fraction(doc["gamma"]) * max(len(a), len(b)),
        "thm1: gamma is not |A n B| / max(|A|, |B|)",
    )


def check_thm2(doc: dict, mul: np.ndarray, inv: np.ndarray, epsilon=None) -> None:
    """C a subgroup, |C n A^2| >= gamma |A|, |C'| by brute force, coset count."""
    a, c = doc["a"], doc["c"]
    want_eps = oracles.pr(mul, a, a) if epsilon is None else Fraction(epsilon)
    require(Fraction(doc["epsilon"]) == want_eps, f"thm2 epsilon {doc['epsilon']} != {want_eps}")
    require(oracles.is_subgroup(mul, c), "thm2: C is not a subgroup")
    require(
        np.array_equal(oracles.closure(mul, doc["y"]), oracles.as_ids(c)),
        "thm2: C is not generated by Y",
    )
    square = oracles.product_set(mul, a, a)
    require(
        np.intersect1d(c, square).size >= Fraction(doc["gamma"]) * len(a),
        "thm2: |C n A^2| < gamma |A|",
    )
    derived = oracles.commutator_subgroup(mul, inv, c, c)
    require(doc["c_prime_size"] == derived.size, "thm2: |C'| is wrong")
    require(
        doc["coset_count"] == oracles.left_coset_count(mul, a, c),
        "thm2: A does not meet exactly coset_count left cosets of C",
    )


def report_doc(report) -> dict:
    """The fields of a WitnessReport that the checks and fingerprints read."""
    doc = {
        "theorem": report.theorem,
        "a": _ids(report.a),
        "epsilon": str(report.epsilon),
        "gamma": str(report.gamma),
        "k_cert": report.k_cert,
        "extractions": [{"b": _ids(e.b)} for e in report.extractions],
    }
    if report.t is not None:
        doc.update(t=_ids(report.t), index_g_t=report.index_g_t,
                   commutator_size=report.commutator_size)
    if report.c is not None:
        doc.update(y=_ids(report.y), c=_ids(report.c), c_prime_size=report.c_prime_size,
                   coset_count=report.coset_count)
    return doc


# ---------------------------------------------------------------------------


class Verify:
    """`approxcommute verify --seed <seed> --instances 100`, in process."""

    name = "verify"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.argv = ["verify", "--seed", str(seed), "--instances", str(VERIFY_INSTANCES)]

    def setup(self) -> None:
        import approxcommute.cli  # noqa: F401

    def prepare(self) -> None:
        pass

    def run_round(self):
        return run_cli(self.argv)

    @staticmethod
    def payload(raw) -> dict:
        doc = json.loads(raw[1])
        doc.pop("timing")
        return doc

    def summarize(self, raw) -> tuple[int, int, str]:
        payload = self.payload(raw)
        attempted = sum(s["instances"] for s in payload["statements"].values())
        return attempted, 0, sha256_json(payload)

    def check(self, raw) -> None:
        import approxcommute

        code, _, _ = raw
        payload = self.payload(raw)
        require(code == 0, f"verify exited with {code}")
        for sid, agg in payload["statements"].items():
            require(agg["failures"] == 0, f"{sid}: {agg['failures']} failing instances")
            require(
                agg["instances"] >= VERIFY_INSTANCES + 1,
                f"{sid}: {agg['instances']} instances, expected {VERIFY_INSTANCES} random "
                "and at least one corpus instance",
            )
        corpus = approxcommute.default_corpus()
        require(len(payload["witnesses"]) == len(corpus), "one witness entry per corpus group")
        for entry, (group, _) in zip(payload["witnesses"], corpus):
            mul = np.asarray(group.mul)
            want = oracles.pr(mul, range(group.order), range(group.order))
            for thm in ("thm1", "thm2"):
                got = Fraction(entry[thm]["epsilon"])
                require(got == want, f"{entry['group']} {thm}: epsilon {got} != pr(G,G) = {want}")


class Witness:
    """witness_thm1 and witness_thm2 on every corpus group and several sets A."""

    name = "witness"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.corpus = []
        self.inputs = []

    def setup(self) -> None:
        import approxcommute

        self.corpus = approxcommute.default_corpus()

    def prepare(self) -> None:
        from approxcommute import Subset

        self.inputs = []
        for gi, (group, roles) in enumerate(self.corpus):
            sets = [("all", Subset.full(group))]
            sets += [(f"role:{r}", roles[r]) for r in ("A", "A0", "H") if r in roles]
            inv = np.asarray(group.inv)
            for j in range(WITNESS_RANDOM_SETS):
                rng = random.Random(f"witness:{self.seed}:{gi}:{j}")
                ids = {0}
                for g in range(1, group.order):
                    if g <= inv[g] and rng.random() < WITNESS_DENSITY:
                        ids.update((g, int(inv[g])))
                sets.append((f"rand{j}", Subset.from_ids(group, sorted(ids))))
            for label, a in sets:
                self.inputs.append((gi, f"{gi}.{group.name}/{label}", a))

    def run_round(self):
        import approxcommute.witness as witness
        from approxcommute.errors import ApproxCommuteError

        out = []
        for _, key, a in self.inputs:
            for thm in ("witness_thm1", "witness_thm2"):
                try:
                    out.append((key, getattr(witness, thm)(a)))
                except ApproxCommuteError as exc:
                    out.append((key, exc))
        return out

    def summarize(self, raw) -> tuple[int, int, str]:
        failed = sum(isinstance(r, Exception) for _, r in raw)
        docs = [(key, repr(r) if isinstance(r, Exception) else report_doc(r)) for key, r in raw]
        return len(raw), failed, sha256_json(docs)

    def check(self, raw) -> None:
        tables = {}
        for gi, (group, _) in enumerate(self.corpus):
            mul = np.asarray(group.mul)
            tables[gi] = (mul, oracles.inverses(mul))
        keys = [(gi, key) for gi, key, _ in self.inputs for _ in range(2)]
        require(len(raw) == len(keys), "one result per pipeline call")
        for (gi, key), (got_key, report) in zip(keys, raw):
            require(got_key == key, f"results out of order at {key}")
            if isinstance(report, Exception):
                continue
            mul, inv = tables[gi]
            doc = report_doc(report)
            try:
                (check_thm1 if report.theorem == "1.1" else check_thm2)(doc, mul, inv)
            except CheckFailed as exc:
                raise CheckFailed(f"{key}: {exc}") from None


# query: (command, expected exit code). Each command builds its own group from
# its spec, as a one-shot CLI call does. The certify subsets of A5 and D25 were
# picked because the exact branch and bound takes 0.1 to 0.9 s on them.
S6_TABLE = "{s6_table}"
QUERY_COMMANDS = (
    (["pr", "S6", "all", "all"], 0),
    (["pr", "@" + S6_TABLE, "all", "all"], 0),
    (["certify", "family:5,2,2", "role:A", "--exact", "--growth", "4"], 0),
    (["certify", "family:5,2,2", "role:A0", "--exact", "--growth", "4"], 0),
    (["certify", "family:5,2,2", "role:H", "--exact", "--growth", "4"], 0),
    (["certify", "A5", "0,1,3,12,17,19,26,34,38,49,54", "--exact", "--growth", "4"], 0),
    (["certify", "A5", "0,5,6,7,13,17,23,34,39,45,47", "--exact", "--growth", "4"], 0),
    (["certify", "A5", "0,1,3,4,15,21,24,36,50", "--exact", "--growth", "4"], 0),
    (["certify", "D25", "0,3,5,6,19,20,22,29,39,47", "--exact", "--growth", "4"], 0),
    (["certify", "D25", "0,4,7,12,13,18,21,26,31,41", "--exact", "--growth", "4"], 0),
    (["witness", "thm1", "family:5,2,2", "role:A"], 0),
    (["witness", "thm2", "family:5,2,2", "role:A"], 0),
    (["witness", "thm2", "family:5,2,2", "role:A0"], 0),
    (["cover", "ruzsa", "family:5,2,2", "role:A", "role:Z"], 0),
    (["cover", "conjugate", "family:5,2,2", "role:A", "--elements", "1,2"], 0),
    (["example", "--n", "6", "--k", "2", "--u", "3"], 0),
    (["example", "--n", "6", "--k", "2", "--u", "3", "--emit", "group"], 0),
    # bad input: the right answer is exit code 2 and one line on stderr
    (["pr", "S3", "all", "99"], 2),
    (["witness", "thm1", "S3", "all", "--epsilon", "2"], 2),
    (["cover", "conjugate", "S3", "all", "--elements", "9"], 2),
)


@functools.cache
def s6_table() -> np.ndarray:
    """Cayley table of S6 on its permutations in lexicographic order."""
    perms = list(permutations(range(6)))
    index = {p: i for i, p in enumerate(perms)}
    arr = np.array(perms)
    # row a holds a*b for every b, where (a*b)(i) = a(b(i))
    return np.array([[index[tuple(p)] for p in a[arr].tolist()] for a in arr])


class Query:
    """A fixed list of one-shot CLI commands, in an order drawn from the seed."""

    name = "query"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.s6_path = out_dir / "s6_table.json"
        self.commands = []

    def setup(self) -> None:
        import approxcommute.cli  # noqa: F401

    def prepare(self) -> None:
        table = s6_table()
        self.s6_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.s6_path.with_suffix(".tmp")
        with tmp.open("w") as fh:
            fh.write('{"kind": "table", "name": "S6-lex", "table": [\n')
            fh.write(",\n".join(json.dumps(row.tolist()) for row in table))
            fh.write("]}\n")
        tmp.replace(self.s6_path)
        commands = [
            ([arg.replace(S6_TABLE, str(self.s6_path)) for arg in argv], code)
            for argv, code in QUERY_COMMANDS
        ]
        random.Random(f"query:{self.seed}").shuffle(commands)
        self.commands = commands

    def run_round(self):
        out = []
        for argv, _ in self.commands:
            try:
                out.append(run_cli(argv))
            except Exception as exc:  # a traceback out of cli.main is a failed command
                out.append(exc)
        return out

    def _failed(self, expected: int, result) -> bool:
        if isinstance(result, Exception):
            return True
        code, _, err = result
        if code != expected:
            return True
        return expected == 2 and len(err.strip().splitlines()) != 1

    def summarize(self, raw) -> tuple[int, int, str]:
        failed = sum(self._failed(code, r) for (_, code), r in zip(self.commands, raw))
        canon = [
            repr(r) if isinstance(r, Exception) else [r[0], hashlib.sha256(r[1].encode()).hexdigest()]
            for r in raw
        ]
        return len(raw), failed, sha256_json(canon)

    def check(self, raw) -> None:
        results = {}
        for (argv, code), r in zip(self.commands, raw):
            if not self._failed(code, r) and code == 0:
                results[tuple(argv)] = json.loads(r[1])
        emitted = next((doc for argv, doc in results.items() if "--emit" in argv), None)
        for argv, doc in results.items():
            try:
                self._check_one(list(argv), doc, emitted)
            except CheckFailed as exc:
                raise CheckFailed(f"{' '.join(argv)}: {exc}") from None

    def _group(self, spec: str):
        """Cayley table, inverses and roles of a group named on the command line."""
        import approxcommute as ac

        if spec.startswith("family:"):
            n, k, u = (int(p) for p in spec[len("family:"):].split(","))
            inst = ac.build_example(ac.ExampleParams(n, k, u))
            group, roles = inst.group, {r: _ids(s) for r, s in inst.roles.items()}
        else:
            group, roles = ac.named(spec), {}
        mul = np.asarray(group.mul, dtype=np.int64)
        oracles.check_group_table(mul)
        return mul, oracles.inverses(mul), roles

    @staticmethod
    def _subset(text: str, mul, roles) -> list[int]:
        if text == "all":
            return list(range(mul.shape[0]))
        if text.startswith("role:"):
            return roles[text[len("role:"):]]
        return [int(v) for v in text.split(",")]

    def _check_one(self, argv: list[str], doc: dict, emitted) -> None:
        cmd = argv[0]
        if cmd == "pr":
            want = oracles.pr(s6_table(), range(720), range(720))
            require(want == Fraction(11, 720), "brute-force pr(S6, S6) is not 11/720")
            require(Fraction(doc["pr"]) == want, f"pr {doc['pr']} != {want}")
            require(doc["x_size"] == doc["y_size"] == 720, "S6 sizes")
        elif cmd == "certify":
            mul, inv, roles = self._group(argv[1])
            a = self._subset(argv[2], mul, roles)
            square = oracles.product_set(mul, a, a)
            cover = doc["cover"]
            require(doc["k"] == len(cover), "k is not the cover size")
            require(doc["base_size"] == len(a), "base size")
            require(
                np.isin(square, oracles.product_set(mul, cover, a)).all(),
                "A^2 is not inside E*A",
            )
            require(doc["k"] <= oracles.greedy_cover_size(mul, inv, a), "exact k above a greedy cover")
            require(
                doc["k"] * len(a) >= square.size, "k*|A| < |A^2|, the cover cannot be complete"
            )
            growth = [Fraction(v) for v in doc["growth"]]
            want = [Fraction(oracles.power_set(mul, a, j).size, len(a)) for j in (2, 3, 4)]
            require(growth == want, f"growth {growth} != brute force {want}")
            require(Fraction(doc["doubling"]) == want[0], "doubling")
            require(Fraction(doc["tripling"]) == want[1], "tripling")
        elif cmd == "witness":
            mul, inv, roles = self._group(argv[2])
            a = self._subset(argv[3], mul, roles)
            require(doc["a"] == sorted(a), "witness ran on another set A")
            (check_thm1 if argv[1] == "thm1" else check_thm2)(doc, mul, inv)
        elif cmd == "cover" and argv[1] == "ruzsa":
            mul, inv, roles = self._group(argv[2])
            a = self._subset(argv[3], mul, roles)
            y = self._subset(argv[4], mul, roles)
            f = doc["f"]
            require(set(f) <= set(a), "F is not inside A")
            fy = oracles.product_set(mul, f, y)
            require(fy.size == len(f) * len(y), "the translates f*Y overlap")
            require(
                np.isin(a, oracles.product_set(mul, fy, inv[oracles.as_ids(y)])).all(),
                "A is not inside F*Y*Y^-1",
            )
            bound = Fraction(oracles.product_set(mul, a, y).size, len(y))
            require(Fraction(doc["bound"]) == bound, "bound is not |A*Y|/|Y|")
            require(doc["size"] == len(f) and len(f) <= bound, "|F| above |A*Y|/|Y|")
        elif cmd == "cover":
            mul, inv, roles = self._group(argv[2])
            a = self._subset(argv[3], mul, roles)
            gs = [int(v) for v in argv[argv.index("--elements") + 1].split(",")]
            d = oracles.power_set(mul, a, 1 << len(gs))
            for g in gs:
                d = oracles.centralizer(mul, d, g)
            require(doc["d"] == d.tolist(), "D is not the centralizer in A^(2^s)")
            covered = np.unique(mul[np.ix_(d, oracles.as_ids(doc["translates"]))])
            require(np.isin(a, covered).all(), "A is not covered by the D*d")
            for g, gc in zip(gs, doc["growth_checks"]):
                lhs = oracles.conjugacy_class(mul, inv, g, oracles.power_set(mul, a, 2)).size
                require(gc["lhs"] == lhs, f"|g^(A^2)| for g={g}")
                require(gc["holds"] == (gc["lhs"] <= gc["rhs"]), "holds flag")
        elif cmd == "example" and "--emit" in argv:
            table = np.asarray(doc["table"], dtype=np.int64)
            require(table.shape == (1152, 1152), "family (6,2,3) has order 1152")
            require(len(doc["labels"]) == 1152, "one label per element")
            oracles.check_group_table(table)
        elif cmd == "example":
            n, k, u = (int(argv[argv.index(f) + 1]) for f in ("--n", "--k", "--u"))
            z = 2 * u
            a = doc["roles"]["A"]
            require(len(a) == k * z + 1, "|A| != kz+1")
            want = (Fraction(k * z, n) + 1) / (k * z + 1)
            require(Fraction(doc["predicted"]["pr_A_G"]) == want, "predicted pr(A,G)")
            require(emitted is not None, "the --emit group command did not succeed")
            table = np.asarray(emitted["table"], dtype=np.int64)
            require(table.shape[0] == doc["order"], "order")
            require(oracles.pr(table, a, range(doc["order"])) == want, "pr(A,G) by pair count")
        else:
            raise CheckFailed(f"no check for command {argv}")


WORKLOADS = {w.name: w for w in (Verify, Witness, Query)}
