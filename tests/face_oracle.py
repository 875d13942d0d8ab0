"""The per-tuple face writer, as an oracle for the index-map builder.

The library compiles every face into an index map over the
lexicographically ordered tuple basis (`lcscohom.reduced._index_map`)
and writes face rows from those maps.  The writer here reads each face's
description instead, turns it into a closure on tuples, calls it once per
tuple and finds the image's row in a key dict, as the library did before
it compiled faces.  It shares no map arithmetic with the library.

`presented_boundary` is the presented boundary as the library built it
before it compiled faces on prefixes: every face is compiled on all
n^k tuples, and the tuples (p, s_j) are read off the whole maps.
"""

from operator import itemgetter

from lcscohom import bicomplex, reduced


def _act(dot, pos):
    def face(t):
        row = dot[t[pos]]
        return tuple(row[x] for x in t[:pos] + t[pos + 1 :])

    return face


def _merge(add, pos):
    return lambda t: t[: pos - 1] + (add[t[pos - 1]][t[pos]],) + t[pos + 1 :]


def _drop(pos):
    return lambda t: t[:pos] + t[pos + 1 :]


def _permute(perm):
    # with one position itemgetter returns a bare entry
    if len(perm) == 1:
        (q,) = perm
        return lambda t: (t[q],)
    return itemgetter(*perm)


_CLOSURES = {
    reduced._act_map: _act,
    reduced._merge_map: _merge,
    reduced._drop_map: _drop,
    reduced._permute_map: _permute,
}


def on_tuples(face):
    """The face as a closure from tuples to its image; faces moved into a
    block of the total complex give (block, tuple) keys."""
    build, *args = face
    if build is bicomplex._into_map:
        block, inner = args
        inner = on_tuples(inner)
        return lambda t: (block, inner(t))
    return _CLOSURES[build](*args)


def tuple_keys(n: int, k: int):
    """The k-tuples over n elements, in lexicographic order."""
    return list(reduced.all_tuples(n, k))


def total_keys(n: int, d: int):
    """The (block, tuple) coordinates of total degree d, in matrix order."""
    return [(b, t) for b in bicomplex.total_blocks(d) for t in reduced.all_tuples(n, d)]


def face_rows(n: int, k: int, blocks, targets, start: int = 0):
    """Sparse rows of signed face sums, one row per target key: every
    k-tuple's column adds each face's sign at the row of its image."""
    index = {key: r for r, key in enumerate(targets)}
    rows = [{} for _ in index]
    col = start
    for faces in blocks:
        closures = [(sign, on_tuples(face)) for sign, face in faces]
        for t in reduced.all_tuples(n, k):
            for sign, face in closures:
                row = rows[index[face(t)]]
                row[col] = row.get(col, 0) + sign
            col += 1
    return rows


def presented_boundary(structure, k: int, maps=None):
    """The reduced degree-k boundary in presentation coordinates, the rows
    that the presented writer `lcscohom.reduced._write_boundary` writes
    into block (k - 2, 1), read off the horizontal face maps on every
    k-tuple, or off `maps`, a compiled face list on the k-tuples given in
    their place.  Row (q, i) is at index(q) * r + i and column (p, j) at
    index(p) * r + j, for the generators of `_presentation`."""
    n = structure.order
    gens, _relations, terms, _layers = reduced._presentation(structure.add)
    r = len(gens)
    rows = [{} for _ in range(n ** (k - 2) * r)]
    if maps is None:
        maps = reduced._index_maps(reduced._horizontal_faces(structure, k - 1), n, k)
    for j, s in enumerate(gens):
        columns = range(j, n ** (k - 1) * r, r)
        for sign, image in maps:
            for x, target in zip(columns, image[s::n]):
                q, a = divmod(target, n)
                for i, c in terms[a]:
                    row = rows[q * r + i]
                    row[x] = row.get(x, 0) + sign * c
    return rows
