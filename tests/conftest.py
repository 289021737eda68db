"""Shared corpus: group tables, corpus groupoids, and small helpers.

Hypothesis runs under the ``tier1`` profile unless ``--hypothesis-profile``
names another: every run of one tree draws the same examples, each test's
from its own source, and no example database carries them between runs.
Each test keeps its own ``max_examples``.  The ``explore`` profile draws
fresh examples from ``--hypothesis-seed`` (random when not given), and ten
times the default count for a test that sets none::

    PYTHONPATH=src python -m pytest -m hypothesis --hypothesis-profile explore --hypothesis-seed 1
"""

from __future__ import annotations

import pytest
from hypothesis import settings

import gburnside as gb
from gburnside.gsets import GSet


settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, max_examples=1000)
settings.load_profile("tier1")


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# An order-5 loop: identity 0 and two-sided inverses, but not associative,
# first at (1, 1, 2): (1 1) 2 = 2 and 1 (1 2) = 4.
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def table_product(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    n2 = len(t2)
    n1 = len(t1)
    out = []
    for a1 in range(n1):
        for a2 in range(n2):
            out.append(
                [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
            )
    return out


def s3_table() -> list[list[int]]:
    return gb.group_table_from_perm_gens([[1, 0, 2], [1, 2, 0]])


def d4_table() -> list[list[int]]:
    return gb.group_table_from_perm_gens([[1, 2, 3, 0], [0, 3, 2, 1]])


def q8_table() -> list[list[int]]:
    units = ["1", "i", "j", "k"]
    mul_unit = {("1", u): (1, u) for u in units}
    for u in units:
        mul_unit[(u, "1")] = (1, u)
    mul_unit.update(
        {
            ("i", "i"): (-1, "1"),
            ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"),
            ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
    )
    idx = {
        (s, u): units.index(u) * 2 + (0 if s == 1 else 1)
        for s in (1, -1)
        for u in units
    }
    table = [[0] * 8 for _ in range(8)]
    for (s1, u1), a in idx.items():
        for (s2, u2), b in idx.items():
            s3, u3 = mul_unit[(u1, u2)]
            table[a][b] = idx[(s1 * s2 * s3, u3)]
    return table


GROUP_TABLES_LEQ8 = {
    "trivial": cyclic_table(1),
    "C2": cyclic_table(2),
    "C3": cyclic_table(3),
    "C4": cyclic_table(4),
    "V4": table_product(cyclic_table(2), cyclic_table(2)),
    "C5": cyclic_table(5),
    "C6": cyclic_table(6),
    "S3": s3_table(),
    "C7": cyclic_table(7),
    "C8": cyclic_table(8),
    "C4xC2": table_product(cyclic_table(4), cyclic_table(2)),
    "C2^3": table_product(table_product(cyclic_table(2), cyclic_table(2)), cyclic_table(2)),
    "D4": d4_table(),
    "Q8": q8_table(),
}


def build_corpus() -> dict[str, gb.FiniteGroupoid]:
    c2 = gb.from_group(cyclic_table(2))
    c3 = gb.from_group(cyclic_table(3))
    s3 = gb.from_group(s3_table())
    corpus = {
        "trivial": gb.from_group(cyclic_table(1)),
        "C2": c2,
        "C3": c3,
        "S3": s3,
        "D4": gb.from_group(d4_table()),
        "Q8": gb.from_group(q8_table()),
        "Pair(1)": gb.pair_groupoid(1),
        "Pair(2)": gb.pair_groupoid(2),
        "Pair(3)": gb.pair_groupoid(3),
        "Pair(4)": gb.pair_groupoid(4),
        "C2xPair(2)": gb.direct_product(c2, gb.pair_groupoid(2)),
        "C2+S3": gb.disjoint_union([c2, s3])[0],
        "(C2xPair(2))+C3": gb.disjoint_union(
            [gb.direct_product(c2, gb.pair_groupoid(2)), c3]
        )[0],
    }
    return corpus


@pytest.fixture(scope="session")
def corpus() -> dict[str, gb.FiniteGroupoid]:
    return build_corpus()


@pytest.fixture(scope="session")
def c2() -> gb.FiniteGroupoid:
    return gb.from_group(cyclic_table(2))


@pytest.fixture(scope="session")
def c3() -> gb.FiniteGroupoid:
    return gb.from_group(cyclic_table(3))


@pytest.fixture(scope="session")
def s3() -> gb.FiniteGroupoid:
    return gb.from_group(s3_table())


@pytest.fixture
def lincomb_calls(monkeypatch) -> list:
    """Records the arguments of every ``rings._lincomb`` call: the
    associativity check makes one per distinct product for each packed
    table it builds."""
    calls = []
    lincomb = gb.rings._lincomb

    def counted(*args):
        calls.append(args)
        return lincomb(*args)

    monkeypatch.setattr(gb.rings, "_lincomb", counted)
    return calls


@pytest.fixture(scope="session")
def s3_perms() -> list[tuple[int, ...]]:
    """Element k of the S3 fixture as a permutation of 3 points, in the
    same breadth-first order used to build its table."""
    gens = [[1, 0, 2], [1, 2, 0]]
    ident = tuple(range(3))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(3))
                if r not in index:
                    index[r] = len(elems)
                    elems.append(r)
                    fresh.append(r)
        frontier = fresh
    return elems


def regular_gset(g: gb.FiniteGroupoid) -> GSet:
    """Left-translation action on the morphisms: the fiber at x is the
    morphisms with codomain x, ascending, and m acts by post-composition.
    On a one-object groupoid this is the regular action on the group."""
    fibers = [g.by_cod(x) for x in g.objects]
    pos = [{f: i for i, f in enumerate(fib)} for fib in fibers]
    action = [
        [pos[g.cod[m]][g.compose_table[m][f]] for f in fibers[g.dom[m]]]
        for m in g.morphisms
    ]
    return GSet(g, [len(fib) for fib in fibers], action).validate()


def editable_tables(g: gb.FiniteGroupoid) -> dict:
    """Mutable copies of a groupoid's frozen tables, keyed by constructor
    argument: edit them, then build the mutant as a new instance with
    ``gb.FiniteGroupoid(g.n_objects, **tables)``."""
    return {
        "dom": list(g.dom),
        "cod": list(g.cod),
        "compose_table": [list(row) for row in g.compose_table],
        "identity": list(g.identity),
        "inverse": list(g.inverse),
    }


def dense_constants(ring) -> list[list[list[int]]]:
    """A ring's structure constants as a dense d x d x d table c[i][j][k],
    for oracles written as plain loops over every coordinate."""
    d = ring.dim
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, ri in enumerate(ring.structure_constants):
        for j, rij in enumerate(ri):
            for k, v in rij:
                c[i][j][k] = v
    return c


def sparse_rows(c: list[list[list[int]]]) -> list[list[tuple]]:
    """A dense table c[i][j][k] in the stored format: rows[i][j] lists the
    non-zero ((k, c_ijk), ...), k ascending."""
    return [[tuple((k, v) for k, v in enumerate(cij) if v) for cij in ci] for ci in c]


def fixed_points_gset(g: gb.FiniteGroupoid, k: int) -> GSet:
    """k fixed points at every object."""
    return GSet(
        g, [k] * g.n_objects, [list(range(k)) for _ in g.morphisms]
    ).validate()
