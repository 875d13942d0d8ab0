"""Dense views of the library's sparse face rows, for tests.

The library writes every differential and constraint as sparse face rows
(`lcscohom.reduced._face_rows`) and lays out none of them densely but
`dh_matrix` and `dv_matrix`.  Each builder here is the dense view of the
face list the library reduces, looked up on the library's modules at
each call, so that a patched face list reaches both; `linearity_rows`
views the linearity faces of `linearity_oracle`, which the library
solves around on generators of (A, +) and no longer writes.  Tests can then
multiply, transpose and compare whole matrices, and hand them to the
Smith-form oracle of `lattice_oracle`.  `dh_matrix` and `dv_matrix` wrap the library's lists
of rows in the same matrix type, and `kernel_mod_m` lays out the sparse kernel generators
of `lcscohom.linalg._kernel_mod` as matrix columns.
"""

from lattice_oracle import IntegerMatrix
from linearity_oracle import linearity_faces
from lcscohom import bicomplex, reduced
from lcscohom.linalg import _kernel_mod


def face_matrix(n: int, k: int, blocks, size: int) -> IntegerMatrix:
    """`_face_rows` written out: `size` rows, and one column per k-tuple of
    each block."""
    width = len(blocks) * n**k
    rows = reduced._face_rows(n, k, blocks, size)
    return IntegerMatrix(size, width, [[row.get(x, 0) for x in range(width)] for row in rows])


def dense_view(rows, height: int) -> IntegerMatrix:
    """The dense matrix with `height` rows whose column x is the sparse
    {row: entry} dict rows[x]."""
    data = [[0] * len(rows) for _ in range(height)]
    for x, row in enumerate(rows):
        for r, entry in row.items():
            data[r][x] = entry
    return IntegerMatrix(height, len(rows), data)


def dh_matrix(s, i: int, j: int) -> IntegerMatrix:
    """The library's rows of the horizontal differential, as a matrix."""
    return IntegerMatrix.from_rows(bicomplex.dh_matrix(s, i, j))


def dv_matrix(s, i: int, j: int) -> IntegerMatrix:
    """The library's rows of the vertical differential, as a matrix."""
    return IntegerMatrix.from_rows(bicomplex.dv_matrix(s, i, j))


def _boundary(n: int, k: int, faces) -> IntegerMatrix:
    # the degree-1 boundary is the zero map into nothing
    return face_matrix(n, k, [faces], n ** (k - 1)) if k > 1 else IntegerMatrix.zeros(0, n)


def reduced_boundary_matrix(s, k: int) -> IntegerMatrix:
    return _boundary(s.order, k, reduced._horizontal_faces(s, k - 1))


def cs_chain_matrix(s, k: int) -> IntegerMatrix:
    return _boundary(s.order, k, reduced._cs_faces(s, k))


def cs_coboundary_matrix(s, k: int) -> IntegerMatrix:
    return cs_chain_matrix(s, k + 1).transpose()


def linearity_rows(s, k: int) -> IntegerMatrix:
    """One row per (prefix, a, b): (prefix, a + b) - (prefix, a) - (prefix, b)."""
    return face_matrix(s.order, k + 1, [linearity_faces(s, k)], s.order**k).transpose()


def antisymmetrization_matrix(s, k: int) -> IntegerMatrix:
    return face_matrix(s.order, k, [reduced._antisymmetrization_faces(k)], s.order**k)


def shuffle_rows(s, i: int, j: int) -> IntegerMatrix:
    """The partial-shuffle sums of bidegree (i, j), one row per tuple and
    shuffle type; none for j < 2."""
    n = s.order
    data = []
    for r in range(1, j):
        faces = bicomplex._shuffle_faces(i, j, r)
        data += face_matrix(n, i + j, [faces], n ** (i + j)).transpose().data
    return IntegerMatrix(len(data), n ** (i + j), data)


def total_chain_matrix(s, d: int) -> IntegerMatrix:
    """The total boundary of degree d, from d blocks of |A|^d coordinates
    into d - 1 blocks of |A|^(d-1)."""
    return face_matrix(s.order, d, bicomplex._total_faces(s, d), (d - 1) * s.order ** (d - 1))


def kernel_mod_m(mat: IntegerMatrix, m: int) -> IntegerMatrix:
    """Generators of {x in (Z/m)^cols : mat @ x == 0 mod m} as columns,
    entries in [0, m): `_kernel_mod` of mat's columns, so zero columns
    give the identity."""
    n = mat.cols
    cols = [{i: row[j] for i, row in enumerate(mat.data) if row[j]} for j in range(n)]
    gens = _kernel_mod(cols, [{j: 1} for j in range(n)], m)
    return IntegerMatrix(n, len(gens), [[gen.get(j, 0) for gen in gens] for j in range(n)])
