"""Builtin structures and the small exhaustive-enumeration corpus.

The builtins cover the worked structures used throughout the tests and
the claim verifier: the trivial cycle sets on cyclic groups and the
nontrivial order-4 pair, a brace on Z/4 with a o b = a + b + 2ab and its
linear cycle set a . b = (1 + 2a) b.
"""

import itertools
import re

from .abelian import FiniteAbelianGroup
from .budget import check_basis
from .errors import ParameterError, UnknownStructureError
from .structures import Brace, LinearCycleSet, validate_brace, validate_lcs

_TRIVIAL_RE = re.compile(r"^trivial\((\d+)\)$")

BUILTIN_NAMES = ("trivial(n)", "z4-brace", "z4-lcs")


def trivial_lcs(group: FiniteAbelianGroup) -> LinearCycleSet:
    """The trivial cycle set a . b = b on a given finite abelian group."""
    elems = group.elements()
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[group.add(a, b)] for b in elems] for a in elems]
    dot = [[b for b in range(n)] for _ in range(n)]
    return LinearCycleSet(n, add, dot)


def builtin_structure(name: str):
    """Look up a builtin structure by name.

    Known names: ``trivial(n)`` for n >= 1, ``z4-brace``, ``z4-lcs``.
    """
    if not isinstance(name, str):
        raise UnknownStructureError(f"structure name must be a string, got {name!r}")
    compact = name.strip()
    match = _TRIVIAL_RE.match(compact)
    if match:
        try:
            n = int(match.group(1))
        except ValueError:  # more digits than int() converts
            raise UnknownStructureError(
                f"trivial(n) with {len(match.group(1))} digits is too large"
            ) from None
        if n < 1:
            raise UnknownStructureError(f"trivial({n}) needs n >= 1")
        # two n x n tables; factor 2 admits every order whose degree-1
        # cochains (n**2 of them) fit the basis budget
        check_basis(2 * n * n, f"the trivial({n}) tables", factor=2)
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        dot = [[b for b in range(n)] for _ in range(n)]
        return LinearCycleSet(n, add, dot)
    if compact == "z4-brace":
        add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        circle = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
        return Brace(4, add, circle)
    if compact == "z4-lcs":
        add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        dot = [[(1 + 2 * a) * b % 4 for b in range(4)] for a in range(4)]
        return LinearCycleSet(4, add, dot)
    raise UnknownStructureError(
        f"unknown builtin structure {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )


def _abelian_tables(n):
    """All abelian group tables on {0..n-1} with neutral 0, up to nothing.

    Canonical tables for each isomorphism class are relabelled by every
    permutation fixing 0; duplicates collapse through a set.
    """
    shapes = {
        1: [()],
        2: [(2,)],
        3: [(3,)],
        4: [(4,), (2, 2)],
    }
    if n not in shapes:
        raise ParameterError(f"exhaustive table enumeration is limited to order <= 4, got {n}")
    tables = set()
    for shape in shapes[n]:
        group = FiniteAbelianGroup(shape)
        elems = group.elements()
        index = {e: i for i, e in enumerate(elems)}
        base = [[index[group.add(a, b)] for b in elems] for a in elems]
        for perm_rest in itertools.permutations(range(1, n)):
            p = (0,) + perm_rest
            table = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    table[p[i]][p[j]] = p[base[i][j]]
            tables.add(tuple(tuple(row) for row in table))
    return sorted(tables)


def _automorphisms(add, n):
    """All permutations p with p(a + b) = p(a) + p(b)."""
    auts = []
    for perm in itertools.permutations(range(n)):
        if all(perm[add[a][b]] == add[perm[a]][perm[b]] for a in range(n) for b in range(n)):
            auts.append(perm)
    return auts


def enumerate_lcs(n):
    """Every valid linear cycle set of order n (neutral at index 0), n <= 4.

    Left translations must be additive bijections, so rows of `dot` range
    over automorphisms of the additive group.  Row 0 is the identity,
    since 0 . b = (0 . 0) . (0 . b) = 0 . (0 . b) and 0 . - is a
    bijection; rows 1..n-1 range over every automorphism, and each
    candidate then goes through full validation.

    >>> len(enumerate_lcs(4))
    10
    """
    out = []
    identity = tuple(range(n))
    for add in _abelian_tables(n):
        for rest in itertools.product(_automorphisms(add, n), repeat=n - 1):
            # the tables are well-formed tuple rows with neutral 0
            candidate = LinearCycleSet._trusted(n, add, (identity,) + rest, 0)
            if validate_lcs(candidate).valid:
                out.append(candidate)
    out.sort(key=lambda s: (s.add, s.dot))
    return out


def enumerate_braces(n):
    """Every valid brace of order n (neutral at index 0), n <= 4.

    By the compatibility law the translation lambda_a: b |-> a o b - a is
    an additive bijection, so circle rows are built from automorphisms of
    the additive group.  lambda_0 is the identity, because lambda is a
    homomorphism from (A, o) to Aut(A, +); lambda_1..lambda_(n-1) range
    over every automorphism, and each candidate then goes through full
    validation.
    """
    out = []
    identity = tuple(range(n))
    for add in _abelian_tables(n):
        for rest in itertools.product(_automorphisms(add, n), repeat=n - 1):
            rows = (identity,) + rest
            circle = [[add[rows[a][b]][a] for b in range(n)] for a in range(n)]
            candidate = Brace(n, add, circle)
            if validate_brace(candidate).valid:
                out.append(candidate)
    out.sort(key=lambda s: (s.add, s.circle))
    return out


def standard_corpus():
    """Named structures the test batteries sweep over.

    Trivial cycle sets up to order 4, the z4 pair, and every valid linear
    cycle set of order <= 3 found by exhaustive enumeration (deduplicated
    against the trivial ones).
    """
    corpus = []
    seen = set()
    for n in range(1, 5):
        s = builtin_structure(f"trivial({n})")
        corpus.append((f"trivial({n})", s))
        seen.add(s)
    z4 = builtin_structure("z4-lcs")
    corpus.append(("z4-lcs", z4))
    seen.add(z4)
    for n in range(1, 4):
        for i, s in enumerate(enumerate_lcs(n)):
            if s not in seen:
                corpus.append((f"enumerated(order={n},#{i})", s))
                seen.add(s)
    return corpus
