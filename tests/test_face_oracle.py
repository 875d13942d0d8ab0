"""Face rows from index maps against the per-tuple writer of `face_oracle`.

Every kind of face list the complexes are built from is written both
ways: the horizontal, linearity, unconstrained, vertical and
antisymmetrization faces of reduced degrees 1-4, and the total boundary
and shuffle sums of full degrees 1-3, over the order <= 4 corpus and the
order-8 cycle set ext8 (whose 5-tuples get the reduced cocycle system
only).  Rows must hold the same entries in the same key order, because
elimination breaks pivot ties by that order.  The reduced boundary in
presentation coordinates, as the one presented writer compiles it on
prefixes, is compared entry for entry with its n^k-tuple route over
every cycle set of order <= 4, ext8 (also relabeled) and
trivial(Z/2+Z/4); its key order is the writer's own, so rows are
compared as sorted items.
"""

import pytest
from ext8 import EXT8, EXT8_RELABELED
from face_oracle import face_rows as oracle_rows
from face_oracle import presented_boundary, total_keys, tuple_keys
from linearity_oracle import linearity_faces

from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.bicomplex import _into, _shuffle_faces, _total_faces, _vertical_faces, total_blocks
from lcscohom.corpus import enumerate_lcs, standard_corpus, trivial_lcs
from lcscohom.reduced import (
    _antisymmetrization_faces,
    _cs_faces,
    _drop,
    _face_rows,
    _horizontal_faces,
    _index_maps,
    _merge,
    _presentation,
    _tables,
    _unknowns,
    _write_boundary,
)

STRUCTURES = standard_corpus() + [("ext8", EXT8)]
# every cycle set of order <= 4, and three of order 8 on two generators:
# ext8, ext8 relabeled so that 2 s_1 = 2 s_0, and trivial(Z/2+Z/4)
PRESENTED = [s for n in range(1, 5) for s in enumerate_lcs(n)]
PRESENTED += [EXT8, EXT8_RELABELED, trivial_lcs(FiniteAbelianGroup((2, 4)))]


def reduced_cases(s, d):
    """(name, source degree, blocks, targets) of reduced degree d."""
    n, k = s.order, d + 1
    below, same = tuple_keys(n, d), tuple_keys(n, k)
    cases = [
        ("horizontal", k, [_horizontal_faces(s, d)], below),
        ("linearity", k, [linearity_faces(s, d)], below),
        ("unconstrained", k, [_cs_faces(s, k)], below),
        ("antisymmetrization", k, [_antisymmetrization_faces(k)], same),
        ("cocycle system", k, [linearity_faces(s, d), _horizontal_faces(s, d)], below),
    ]
    cases += [
        (f"vertical at ({i},{k - i})", k, [_vertical_faces(s, i, k - i)], below)
        for i in range(k - 1)
    ]
    return cases


def full_cases(s, d):
    """(name, source degree, blocks, targets) of full degree d."""
    keys = total_keys(s.order, d)
    shuffles = [
        [(sign, _into(b, face)) for sign, face in _shuffle_faces(*b, r)]
        for b in total_blocks(d)
        for r in range(1, b[1])
    ]
    return [("total boundary", d + 1, _total_faces(s, d + 1), keys), ("shuffles", d, shuffles, keys)]


def _same_rows(n, k, blocks, targets, start=0):
    got = _face_rows(n, k, blocks, len(targets), start)
    want = oracle_rows(n, k, blocks, targets, start)
    return [list(row.items()) for row in got] == [list(row.items()) for row in want]


@pytest.mark.parametrize("name,s", STRUCTURES, ids=[name for name, _s in STRUCTURES])
def test_face_rows_match_the_per_tuple_writer(name, s):
    n = s.order
    for d in range(1, 5):
        cases = reduced_cases(s, d) + (full_cases(s, d) if d <= 3 else [])
        if n ** (d + 1) > 4096:
            # the per-tuple writer takes seconds on ext8's 5-tuples: only the
            # reduced cocycle system, both of its blocks, is written there
            cases = [case for case in cases if case[0] == "cocycle system"]
        for case, k, blocks, targets in cases:
            assert _same_rows(n, k, blocks, targets), (name, d, case)
    # blocks placed after other columns, as the full cocycle system does
    case, k, blocks, targets = full_cases(s, 2)[1]
    assert _same_rows(n, k, blocks, targets, start=2 * n**3)


def test_the_comparison_refuses_a_flipped_sign_or_an_extra_merge():
    for _name, s in STRUCTURES[1:]:
        n = s.order
        for d in (2, 3):
            faces = _horizontal_faces(s, d)
            targets = tuple_keys(n, d)
            flipped = [(-faces[0][0], faces[0][1])] + faces[1:]
            merged = faces + [(1, _merge(s.add, 1))]
            for wrong in (flipped, merged):
                got = _face_rows(n, d + 1, [wrong], len(targets))
                want = oracle_rows(n, d + 1, [faces], targets)
                assert [list(r.items()) for r in got] != [list(r.items()) for r in want]


def _items(rows):
    return [sorted(row.items()) for row in rows]


def _written_boundary(s, k):
    """The reduced degree-k boundary as the presented writer writes it:
    block (k - 1, 1) of the total complex over the presentation of (A, +),
    into the rows of block (k - 2, 1)."""
    pres, tables = {1: _presentation(s.add)}, _tables(s)
    rows, blocks, _dead = _unknowns(s, k - 1, pres, False, tables)
    _write_boundary(s, k, pres, blocks, False, tables)
    return rows


@pytest.mark.parametrize("k", [2, 3, 4])
def test_presented_boundary_matches_the_tuple_route(k):
    for s in PRESENTED:
        assert _items(_written_boundary(s, k)) == _items(presented_boundary(s, k)), (s.order, k)


def _wrong_maps(s, k):
    """The horizontal face maps on k-tuples, once with the action's last
    slot left undotted and once with coordinate k - 1 dropped for k - 2."""
    n = s.order
    (sign, act), *rest = maps = _index_maps(_horizontal_faces(s, k - 1), n, k)
    undotted = [(sign, [y - y % n + x % n for x, y in enumerate(act)])] + rest
    late_drop = maps[:-1] + _index_maps([(maps[-1][0], _drop(k - 1))], n, k)
    return undotted, late_drop


def test_the_comparison_refuses_a_wrong_action_or_drop():
    # reading s_j for p_0 . s_j, or dropping the wrong coordinate, changes
    # some row of some case
    cases = [(s, k) for s in PRESENTED for k in (2, 3, 4)]
    for wrong in range(2):
        assert any(
            _items(_written_boundary(s, k))
            != _items(presented_boundary(s, k, _wrong_maps(s, k)[wrong]))
            for s, k in cases
        ), wrong
