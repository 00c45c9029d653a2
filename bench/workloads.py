"""Benchmark workloads: seeded instance lists and the answer table.

Every instance is a `Case`: one `blocksets` command line plus the answer it
must produce.  Seeded rows draw their hyperplanes from `random.Random(seed)`,
but each draw stays inside one isomorphism class (any two lines of PG(2,q),
any non-concurrent line triple, any single plane, any two non-parallel
planes of AG(3,q)), so the seed only relabels the instance and the answer in
`ANSWERS` holds for every seed.  `small` has no table: its cases run with
`--oracle` and are checked against the exhaustive oracle.

Generation needs no field arithmetic: a hyperplane is written directly in
normalized form (first nonzero variable coefficient 1), so distinct rows are
distinct hyperplanes over any GF(q).
"""

import random
from dataclasses import dataclass
from itertools import product

PG = "projective"
AG = "affine"

# Per-instance ceiling in seconds.  It is passed to the search as --budget
# and also applied to the whole call, which --budget does not cover.
CEILING_S = 30.0

# Answer table: row id -> (verdict, size, provenance).
ANSWERS = {
    "pg2-7.minus-2-lines.touching.plain": (
        "exists", 12,
        "PG(2,7) minus L1 is AG(2,7); a set off L2 that meets every other "
        "affine line, plus one point of L2, blocks all affine lines, so "
        "Jamison/Brouwer-Schrijver gives >= 2q-2 = 12. PGL(3,q) is transitive "
        "on line pairs; the class answer is MILP-checked in test_bench.py"),
    "pg2-7.minus-3-lines.touching.nontrivial": (
        "exists", 12,
        "PGL(3,q) is transitive on non-concurrent line triples; class answer "
        "from an exact MILP, checked in test_bench.py"),
    "pg2-5.empty.nontrivial": (
        "exists", 9, "Blokhuis (1994): 3(p+1)/2 for prime p = 5"),
    "ag2-5.empty.plain": (
        "exists", 9, "Jamison (1977), Brouwer-Schrijver (1978): n(q-1)+1"),
    "ag3-3.empty.plain": (
        "exists", 7, "Jamison (1977), Brouwer-Schrijver (1978): n(q-1)+1"),
    "pg3-3.empty.nontrivial": (
        "exists", 6,
        "a nontrivial blocking set of a plane of PG(3,3) (6 points, Blokhuis "
        "1994) blocks every plane; minimality from an exact MILP, checked in "
        "test_bench.py"),
    "pg4-2.empty.nontrivial": (
        "exists", 5, "exact MILP, checked in test_bench.py"),
    "pg3-5.minus-plane.contained": (
        "vacuous", 0,
        "any two planes of PG(3,q) meet, so no plane lies in the complement "
        "of one: the family is empty"),
    "pg2-11.minus-line.contained": (
        "vacuous", 0,
        "any two lines of PG(2,q) meet, so no line lies in the complement of "
        "one: the family is empty"),
    "ag3-5.minus-2-planes.contained.t2": (
        "exists", 16,
        "the contained lines are the (q-1)^2 lines parallel to P1 cap P2 and "
        "off both planes; they are disjoint, so one point each is necessary "
        "and sufficient"),
    "pg3-7.empty.t1.plain": (
        "exists", 8, "Bose-Burton: a line, q+1 points"),
    "braid.ag4-5.t3": (
        "exists", 24,
        "the contained braid lines are one parallel class of "
        "(q-1)(q-2)(q-3) disjoint lines; a transversal is minimum"),
    "braid.ag3-7.t2": (
        "exists", 30,
        "the contained braid lines are one parallel class of (q-1)(q-2) "
        "disjoint lines; a transversal is minimum"),
    "pg3-9.empty.t2.plain": (
        "exists", 91, "Bose-Burton: a plane, q^2+q+1 points"),
}


@dataclass
class Case:
    """One instance: a command line, its inputs and the expected answer."""
    name: str
    command: str                 # "search" or "braid"
    space: tuple                 # (kind, n, q)
    t: int
    scope: str
    convention: str
    forms: tuple = ()            # normalized coefficient rows (search only)
    expect: tuple = None         # (verdict, size); None means oracle-checked
    provenance: str = ""
    oracle: bool = False

    def arrangement_text(self):
        kind, n, q = self.space
        lines = ["%s %d %d" % (kind, n, q)]
        lines += [" ".join(str(c) for c in row) for row in self.forms]
        return "\n".join(lines) + "\n"

    def argv(self, input_path, workers=1):
        """Command line for `blocksets.cli.main`, the path scripts/ use."""
        kind, n, q = self.space
        opts = ["--t", str(self.t), "--scope", self.scope,
                "--convention", self.convention, "--budget", str(CEILING_S),
                "--workers", str(workers)]
        if self.command == "braid":
            return ["--no-meta", "braid", "--kind", kind, "--n", str(n),
                    "--q", str(q)] + opts
        argv = ["--no-meta", "search", input_path] + opts
        if self.oracle:
            argv.append("--oracle")
        return argv


def _row(rng, kind, n, q):
    """A random hyperplane in normalized form."""
    nvars = n + 1 if kind == PG else n
    lead = rng.randrange(nvars)
    row = [0] * lead + [1] + [rng.randrange(q) for _ in range(nvars - lead - 1)]
    if kind == AG:
        row.append(rng.randrange(q))
    return tuple(row)


def _distinct_rows(rng, kind, n, q, k):
    rows = []
    while len(rows) < k:
        r = _row(rng, kind, n, q)
        if r not in rows:
            rows.append(r)
    return tuple(rows)


def _det3_mod(rows, p):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _answered(name, **kw):
    verdict, size, prov = ANSWERS[name]
    return Case(name=name, expect=(verdict, size), provenance=prov, **kw)


def bound_cases(rng):
    """The bound phase is over 90% of the time here."""
    two = _distinct_rows(rng, PG, 2, 7, 2)
    while True:
        three = _distinct_rows(rng, PG, 2, 7, 3)
        if _det3_mod(three, 7):
            break
    return [
        _answered("pg2-7.minus-2-lines.touching.plain", command="search",
                  space=(PG, 2, 7), t=1, scope="touching", convention="plain",
                  forms=two),
        _answered("pg2-7.minus-3-lines.touching.nontrivial", command="search",
                  space=(PG, 2, 7), t=1, scope="touching",
                  convention="nontrivial", forms=three),
        _answered("pg2-5.empty.nontrivial", command="search", space=(PG, 2, 5),
                  t=1, scope="contained", convention="nontrivial"),
        _answered("ag2-5.empty.plain", command="search", space=(AG, 2, 5),
                  t=1, scope="contained", convention="plain"),
        _answered("ag3-3.empty.plain", command="search", space=(AG, 3, 3),
                  t=1, scope="contained", convention="plain"),
        _answered("pg3-3.empty.nontrivial", command="search", space=(PG, 3, 3),
                  t=1, scope="contained", convention="nontrivial"),
        _answered("pg4-2.empty.nontrivial", command="search", space=(PG, 4, 2),
                  t=1, scope="contained", convention="nontrivial"),
    ]


def build_cases(rng):
    """Instance construction dominates; the search closes at once."""
    plane = _distinct_rows(rng, PG, 3, 5, 1)
    line = _distinct_rows(rng, PG, 2, 11, 1)
    while True:
        planes = _distinct_rows(rng, AG, 3, 5, 2)
        if planes[0][:3] != planes[1][:3]:  # normalized, so not parallel
            break
    return [
        _answered("pg3-5.minus-plane.contained", command="search",
                  space=(PG, 3, 5), t=1, scope="contained", convention="plain",
                  forms=plane),
        _answered("pg2-11.minus-line.contained", command="search",
                  space=(PG, 2, 11), t=1, scope="contained", convention="plain",
                  forms=line),
        _answered("ag3-5.minus-2-planes.contained.t2", command="search",
                  space=(AG, 3, 5), t=2, scope="contained", convention="plain",
                  forms=planes),
        _answered("pg3-7.empty.t1.plain", command="search", space=(PG, 3, 7),
                  t=1, scope="contained", convention="plain"),
        _answered("braid.ag4-5.t3", command="braid", space=(AG, 4, 5), t=3,
                  scope="contained", convention="plain"),
        _answered("braid.ag3-7.t2", command="braid", space=(AG, 3, 7), t=2,
                  scope="contained", convention="plain"),
        _answered("pg3-9.empty.t2.plain", command="search", space=(PG, 3, 9),
                  t=2, scope="contained", convention="plain"),
    ]


SMALL_SPACES = [(PG, 2, 2), (PG, 2, 3), (PG, 2, 4), (AG, 2, 3), (AG, 2, 4),
                (AG, 3, 2), (AG, 3, 3), (PG, 3, 2), (AG, 4, 2)]
SMALL_UNIVERSE_CAP = 16
SMALL_DRAWS = 50     # tries for forms that leave a universe of 1..16 points


def _universe_size(kind, n, q, forms):
    from blocksets.arrangement import arrangement_make, complement
    from blocksets.geometry import space
    sp = space(kind, n, q)
    return len(complement(sp, arrangement_make(sp, forms)).members)


def _small_forms(rng, kind, n, q, k):
    """k random forms leaving 1..16 points, or None when no draw does."""
    for _ in range(SMALL_DRAWS):
        forms = _distinct_rows(rng, kind, n, q, k)
        if 1 <= _universe_size(kind, n, q, forms) <= SMALL_UNIVERSE_CAP:
            return forms
    return None


def small_cases(rng):
    """Tiny oracle-checked instances, where fixed per-call costs dominate.

    One instance per cell of the grid space x form count (0-3) x level t x
    scope x convention, skipping (space, count) pairs whose universe never
    fits the cap; the seed draws only the forms, so every seed runs the same
    mix of shapes."""
    cases = []
    for kind, n, q in SMALL_SPACES:
        for k in range(4):
            for t, scope, convention in product(
                    range(1, n + 1), ("contained", "touching"),
                    ("plain", "minimal", "nontrivial")):
                forms = _small_forms(rng, kind, n, q, k)
                if forms is None:
                    break
                cases.append(Case(
                    name="small.%03d" % len(cases), command="search",
                    space=(kind, n, q), t=t, scope=scope,
                    convention=convention, forms=forms, oracle=True,
                    provenance="exhaustive oracle"))
    return cases


WORKLOADS = {
    "bound": bound_cases,
    "build": build_cases,
    "small": small_cases,
}

# Workloads whose instances are also run, untimed, at --workers 2: the
# reports must match the serial ones byte for byte, and the traced run
# times the pool against the serial search.
POOLED = ("bound",)
POOL_WORKERS = 2


def make_cases(workload, seed):
    """The workload's instance list for this seed; same seed, same list."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
