"""Entry-for-entry pins of every face-map matrix.

Each digest is the SHA-256 of one builder's matrices, shapes included,
over every linear cycle set of orders 1 to 4 in enumeration order, so a
change to any single entry of any of them fails the test.  The digests
were taken from the hand-written per-matrix loops that the shared
face-map builder replaced; the builders are now the dense views of the
library's face rows in `dense_views`.
"""

import hashlib

import pytest

from dense_views import (
    antisymmetrization_matrix,
    cs_chain_matrix,
    dense_view,
    dh_matrix,
    dv_matrix,
    linearity_rows,
    reduced_boundary_matrix,
    shuffle_rows,
    total_chain_matrix,
)
from linearity_oracle import linearity_faces
from lcscohom.corpus import enumerate_lcs
from lcscohom.reduced import _face_rows, _horizontal_faces

STRUCTURES = [s for n in (1, 2, 3, 4) for s in enumerate_lcs(n)]


def _cycle_type_stack(structure):
    # linearity, then minus the degree-3 boundary: 2 n^3 constraints, the
    # system cycle-type classification solved before it used generators
    n = structure.order
    horizontal = [(-s, f) for s, f in _horizontal_faces(structure, 2)]
    rows = _face_rows(n, 3, [linearity_faces(structure, 2), horizontal], n * n)
    return dense_view(rows, 2 * n**3)


PINNED = {
    "reduced_boundary_matrix(1)": "8c867f6cbe0a205357dc6a16da2e15c84b81b28647d1402aa7cfe24a34571583",
    "cs_chain_matrix(1)": "8c867f6cbe0a205357dc6a16da2e15c84b81b28647d1402aa7cfe24a34571583",
    "linearity_rows(1)": "231234bda8ce9f805e2cca7250d2e062829b7fde040446e3b4f5c3d4e3a6a307",
    "antisymmetrization_matrix(1)": "52b5de06e4a7dd2ba6a68568228bd71ba7361855649b11bb58efdb354fc065d8",
    "total_chain_matrix(1)": "8c867f6cbe0a205357dc6a16da2e15c84b81b28647d1402aa7cfe24a34571583",
    "reduced_boundary_matrix(2)": "391079a3ce80397c5d92a06932c7a901a613bbdec97b7e1db2418a3dffc75358",
    "cs_chain_matrix(2)": "391079a3ce80397c5d92a06932c7a901a613bbdec97b7e1db2418a3dffc75358",
    "linearity_rows(2)": "c1ef01e77a4ff1c921146cc167a6b249b1b3041235d8a09455b65e6d01666a7c",
    "antisymmetrization_matrix(2)": "015e692a2cd54840d6d30b369b5218549da59531f9e593b08367313e0f7201ec",
    "total_chain_matrix(2)": "e5a7d653ea8ddf1d1d55231d5d90c7218ba7f3744743a1adadad75e4e52b7c40",
    "reduced_boundary_matrix(3)": "6f10bf7b2d800a4b404a3e96d263795018902cf6ca04b6aea0b1559a4c4ccd1c",
    "cs_chain_matrix(3)": "9ec3307531502822e28d268d126a40a297a5db1233f5e9813e542b4633228db6",
    "linearity_rows(3)": "a3adbc6e48cbc87b5d6a674320df091d98d37e1ecbbec5fbc94e235e67ad461b",
    "antisymmetrization_matrix(3)": "68de0283e3ebe2ba89a75a173964025245db14b05a2c2c2210a9499a34bc09fe",
    "total_chain_matrix(3)": "b90e13c829b5b1d318f56b554b08b1b25004ed9945816c3766d4f079eb7fb194",
    "shuffle_rows(0, 1)": "8c867f6cbe0a205357dc6a16da2e15c84b81b28647d1402aa7cfe24a34571583",
    "shuffle_rows(0, 2)": "c5f7216d164ab5bdda4ef379ddac55e179fb0a871304ed011591c553370ade41",
    "dv_matrix(0, 2)": "8a464decacb2b338f937711fe92e2acf954b996823520ca062e67934b5fde29d",
    "shuffle_rows(0, 3)": "962dc80a75dbb988011465d092cc1ba0519dc237696f4b21e3aa72189af5b03d",
    "dv_matrix(0, 3)": "47b3193fa9482aac99990e1f55204741dc484b311509a1ad231f525123a21554",
    "shuffle_rows(1, 1)": "180c11618d34d06f1d5d6d8fffed213d3430c43a4a404f6bd3bc7b5082bba9e6",
    "dh_matrix(1, 1)": "391079a3ce80397c5d92a06932c7a901a613bbdec97b7e1db2418a3dffc75358",
    "shuffle_rows(1, 2)": "ae5879bfeb70454331063297c97315a4ba377f7c857462d179a188bc6b09a2bb",
    "dh_matrix(1, 2)": "6fa148f572a9c0975dbd4997fbbf02e8afbb9919586ef9381098108975c469a1",
    "dv_matrix(1, 2)": "0f73386c7e7f619f929748b017406f47fe2825e1a2e932a393518d469f0db798",
    "shuffle_rows(2, 1)": "2f03a3edcc2f3d5c2fcdca8e3211301a23b64246a7ba483b7fe0584a0ce7abdc",
    "dh_matrix(2, 1)": "6f10bf7b2d800a4b404a3e96d263795018902cf6ca04b6aea0b1559a4c4ccd1c",
    "cycle-type constraint stack": "2b50a3779d792aec98c0cf16d8e280efb27889d823034573ad9edb833352a758",
}


def _cases():
    cases = []
    for k in (1, 2, 3):
        for fn in (
            reduced_boundary_matrix,
            cs_chain_matrix,
            linearity_rows,
            antisymmetrization_matrix,
            total_chain_matrix,
        ):
            cases.append((f"{fn.__name__}({k})", fn, (k,)))
    for i in range(3):
        for j in range(1, 4 - i):
            cases.append((f"shuffle_rows({i}, {j})", shuffle_rows, (i, j)))
            if i >= 1:
                cases.append((f"dh_matrix({i}, {j})", dh_matrix, (i, j)))
            if j >= 2:
                cases.append((f"dv_matrix({i}, {j})", dv_matrix, (i, j)))
    cases.append(("cycle-type constraint stack", _cycle_type_stack, ()))
    return cases


def test_every_case_is_pinned():
    assert len(STRUCTURES) == 13
    assert sorted(name for name, _fn, _args in _cases()) == sorted(PINNED)


@pytest.mark.parametrize("name,fn,args", _cases(), ids=[c[0] for c in _cases()])
def test_matrix_digest(name, fn, args):
    digest = hashlib.sha256()
    for s in STRUCTURES:
        mat = fn(s, *args)
        digest.update(repr((mat.rows, mat.cols, mat.data)).encode())
    assert digest.hexdigest() == PINNED[name]
