"""Face rows from index maps against the per-tuple writer of `face_oracle`.

Every kind of face list the complexes are built from is written both
ways: the horizontal, linearity, unconstrained, vertical and
antisymmetrization faces of reduced degrees 1-4, and the total boundary
and shuffle sums of full degrees 1-3, over the order <= 4 corpus and the
order-8 cycle set ext8 (whose 5-tuples get the reduced cocycle system
only).  Rows must hold the same entries in the same key order, because
elimination breaks pivot ties by that order.
"""

import pytest
from ext8 import EXT8
from face_oracle import face_rows as oracle_rows
from face_oracle import total_keys, tuple_keys
from linearity_oracle import linearity_faces

from lcscohom.bicomplex import _into, _shuffle_faces, _total_faces, _vertical_faces, total_blocks
from lcscohom.corpus import standard_corpus
from lcscohom.reduced import (
    _antisymmetrization_faces,
    _cs_faces,
    _face_rows,
    _horizontal_faces,
    _merge,
)

STRUCTURES = standard_corpus() + [("ext8", EXT8)]


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
