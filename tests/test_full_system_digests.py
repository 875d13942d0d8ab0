"""Entry-for-entry pins of the presented systems of both theories.

Each digest is the SHA-256 of one system, `_full_system(s, d,
normalized)(m)`, `_reduced_system(s, d)(m)` or, for the normalized
reduced system, which the library no longer keeps, what the one
presented writer `_presented_system` writes for it: the items of
every row of its cocycle, constraint and coboundary rows, in insertion
order, its dead coordinates, the tuple of each cocycle condition, and the
reading of each unit coordinate on every tuple.  Key order steers the
pivot tie-breaks of the elimination, so the rows must be written in the
same order, not only with the same entries.  The full digests were taken
from the writer that served the full theory alone, before the reduced
theory was written by it too; the reduced digests were taken from that
one writer, and pin its key order.  The reduced system does not depend
on m, so it is pinned over Z/2 alone.
"""

import hashlib

import pytest
from ext8 import EXT8

from lcscohom.abelian import FiniteAbelianGroup
from lcscohom.bicomplex import _full_system
from lcscohom.corpus import builtin_structure, trivial_lcs
from lcscohom.reduced import _presentation, _presented_system, _reduced_system, _tables

STRUCTURES = {
    "z4-lcs": (builtin_structure("z4-lcs"), (1, 2, 3)),
    "trivial(2)": (trivial_lcs(FiniteAbelianGroup((2,))), (1, 2, 3)),
    "ext8": (EXT8, (1, 2)),
}

PINNED = {
    ("z4-lcs", 1, False, 2): "9ed4c1cd280bd55a59ae92de5919b1643d2467e79e1dd87dff86cb5cc73fd0f0",
    ("z4-lcs", 1, False, 4): "9ed4c1cd280bd55a59ae92de5919b1643d2467e79e1dd87dff86cb5cc73fd0f0",
    ("z4-lcs", 1, False, 6): "9ed4c1cd280bd55a59ae92de5919b1643d2467e79e1dd87dff86cb5cc73fd0f0",
    ("z4-lcs", 1, True, 2): "5ae68cb5aa38158ecde1315088fe216676c5277653dfebce7b991ebfbc33fd5a",
    ("z4-lcs", 1, True, 4): "5ae68cb5aa38158ecde1315088fe216676c5277653dfebce7b991ebfbc33fd5a",
    ("z4-lcs", 1, True, 6): "5ae68cb5aa38158ecde1315088fe216676c5277653dfebce7b991ebfbc33fd5a",
    ("z4-lcs", 2, False, 2): "4df284c259b0c7dfa604f962fb1158708149d44c24c897883068dc0925653fca",
    ("z4-lcs", 2, False, 4): "4df284c259b0c7dfa604f962fb1158708149d44c24c897883068dc0925653fca",
    ("z4-lcs", 2, False, 6): "4df284c259b0c7dfa604f962fb1158708149d44c24c897883068dc0925653fca",
    ("z4-lcs", 2, True, 2): "ccd0ef51d9e0e30d364cf6fd3d9fd65fc5c51cd6695c349b6324ca0bd0a66601",
    ("z4-lcs", 2, True, 4): "ccd0ef51d9e0e30d364cf6fd3d9fd65fc5c51cd6695c349b6324ca0bd0a66601",
    ("z4-lcs", 2, True, 6): "ccd0ef51d9e0e30d364cf6fd3d9fd65fc5c51cd6695c349b6324ca0bd0a66601",
    ("z4-lcs", 3, False, 2): "26a346618028bf95463f74144c00781b44446944849827d8d809b30996d60880",
    ("z4-lcs", 3, False, 4): "74545dc8d5a0db24566283492893e09915880c1093664e13c530e58c88a2632c",
    ("z4-lcs", 3, False, 6): "534e952c1e568ae15c0e96522c8cfa315b04b0b93dc86016fd527c8195aea18f",
    ("z4-lcs", 3, True, 2): "ea4bf6e90e0ace121906a38e68cfe551798a04b864b8cff229d2e83ee1e5b41c",
    ("z4-lcs", 3, True, 4): "97a7bb2b87fca211bd45504310d5e901e8f79768faf0a4d4ecb9978d60fd97ce",
    ("z4-lcs", 3, True, 6): "8110ec59da4ff78a98354cef88d194fa750886d5b416a016b46ae038a4c56a61",
    ("trivial(2)", 1, False, 2): "c22e239f3e9ecf807e30baf52bafc626eb7a3d62f3fa972e32e12737f8468d55",
    ("trivial(2)", 1, False, 4): "c22e239f3e9ecf807e30baf52bafc626eb7a3d62f3fa972e32e12737f8468d55",
    ("trivial(2)", 1, False, 6): "c22e239f3e9ecf807e30baf52bafc626eb7a3d62f3fa972e32e12737f8468d55",
    ("trivial(2)", 1, True, 2): "fe463c5a8b6f29f9578c414160c766bcf365002b076aee0271c8eaa2743cde6d",
    ("trivial(2)", 1, True, 4): "fe463c5a8b6f29f9578c414160c766bcf365002b076aee0271c8eaa2743cde6d",
    ("trivial(2)", 1, True, 6): "fe463c5a8b6f29f9578c414160c766bcf365002b076aee0271c8eaa2743cde6d",
    ("trivial(2)", 2, False, 2): "79741f1b9aa8e53f651029001b87815a53e7885ba8b398f452b4419e002440b8",
    ("trivial(2)", 2, False, 4): "79741f1b9aa8e53f651029001b87815a53e7885ba8b398f452b4419e002440b8",
    ("trivial(2)", 2, False, 6): "79741f1b9aa8e53f651029001b87815a53e7885ba8b398f452b4419e002440b8",
    ("trivial(2)", 2, True, 2): "0b8ba8356141c613b28bebd94e38e661afdaa8d163ee65c56a0e4486e215e2a2",
    ("trivial(2)", 2, True, 4): "0b8ba8356141c613b28bebd94e38e661afdaa8d163ee65c56a0e4486e215e2a2",
    ("trivial(2)", 2, True, 6): "0b8ba8356141c613b28bebd94e38e661afdaa8d163ee65c56a0e4486e215e2a2",
    ("trivial(2)", 3, False, 2): "5804e5391dd994a37eab409428e7d9a020bf4bbe1274420ae1c2ee477c1a9ae0",
    ("trivial(2)", 3, False, 4): "59b5f16db89849e45301c3e8b92cd93aa642f3005b8b962a2691c9c13d42596a",
    ("trivial(2)", 3, False, 6): "ef1ad4e3d1a0db0b4516c3a40d0f97e8eaf5e75d33a5cd3c93b41813c5b134c5",
    ("trivial(2)", 3, True, 2): "d70cb053f7b4569f850fa26c14e0b776f615c438ef387b713ef06e0961a8f92f",
    ("trivial(2)", 3, True, 4): "4d0ae772bbaf9e6059822a5926bed128cdee8600f146c779039ce15e82ea0bd4",
    ("trivial(2)", 3, True, 6): "35d4839561da756ea6e030ac4726b901b60049c3138fce1a8572b0ee604ac0ab",
    ("ext8", 1, False, 2): "23ab761eaa988334758c0366679e18e06ce4d697a2eb815ce1a4c418f9ae29dc",
    ("ext8", 1, False, 4): "23ab761eaa988334758c0366679e18e06ce4d697a2eb815ce1a4c418f9ae29dc",
    ("ext8", 1, False, 6): "23ab761eaa988334758c0366679e18e06ce4d697a2eb815ce1a4c418f9ae29dc",
    ("ext8", 1, True, 2): "78b4db43c22a4030ece3e3fa07852b52414ce4cad61e8374aa062ac5d071e003",
    ("ext8", 1, True, 4): "78b4db43c22a4030ece3e3fa07852b52414ce4cad61e8374aa062ac5d071e003",
    ("ext8", 1, True, 6): "78b4db43c22a4030ece3e3fa07852b52414ce4cad61e8374aa062ac5d071e003",
    ("ext8", 2, False, 2): "135eaed7c9b9831fe53990ad5e2133fa7a2832070edea48517844cb69c2ab086",
    ("ext8", 2, False, 4): "135eaed7c9b9831fe53990ad5e2133fa7a2832070edea48517844cb69c2ab086",
    ("ext8", 2, False, 6): "135eaed7c9b9831fe53990ad5e2133fa7a2832070edea48517844cb69c2ab086",
    ("ext8", 2, True, 2): "b27e72f8dba2c12ae188d08bdda58c104664077f2d00a6ca73de2de7f7aca1d0",
    ("ext8", 2, True, 4): "b27e72f8dba2c12ae188d08bdda58c104664077f2d00a6ca73de2de7f7aca1d0",
    ("ext8", 2, True, 6): "b27e72f8dba2c12ae188d08bdda58c104664077f2d00a6ca73de2de7f7aca1d0",
}


REDUCED = {
    ("z4-lcs", 1, False, 2): "93ceaec445d045d07c7720d7473b171c33264c1f2e6334d905f84835ec4e05c7",
    ("z4-lcs", 1, True, 2): "740bbf72148ce2488788e9d5c1071aa9e7e2cf98c79dc0cdad4abb22a021e0c9",
    ("z4-lcs", 2, False, 2): "c64dae0e3dcbda15c42ccba56ef62f016e3e1749bfd58ecff3c6becf42dc50b1",
    ("z4-lcs", 2, True, 2): "3bf381861fb8909594d3f001dcff582b997ddac3b655bf6fa987b4f6a59fa55d",
    ("z4-lcs", 3, False, 2): "31209f41d199e6adb3cb26ee91dd8a760f0624ca51f45475bc80654b7f87f9d6",
    ("z4-lcs", 3, True, 2): "dcc0e2eeb96fdfdfa284dcf0f24f8519c600caa995d274f23cbee088572bb1e1",
    ("trivial(2)", 1, False, 2): "0baf97034b5e67d901341919f9537083cb79081a54a3ec1b584565d7fd4b7845",
    ("trivial(2)", 1, True, 2): "4a9af3aab1d099f6d28d1f7cd2b1a21e7905727980bcb143432d84fbbd5945af",
    ("trivial(2)", 2, False, 2): "f1d1d5578515e525e2579d69d25c613793bb88cb2f6c54c9373b1196b84b5e73",
    ("trivial(2)", 2, True, 2): "3c2ff567fedfd945cf00520a4167ca1aa7cb29422d73914efcc3ffbedc7a6079",
    ("trivial(2)", 3, False, 2): "a3cc2e47fb68eb8ca478cc66f1844e23e831dadf6bcd2e09ba88f3ef9f515041",
    ("trivial(2)", 3, True, 2): "29aa3bd18d808a4493ed19e20ba01859eb04f80ce78fd63d1f51fdcdb7c308a5",
    ("ext8", 1, False, 2): "806c41266f414221430046da321800f35e76c0865e36b5dc6584b8d9cbb97e27",
    ("ext8", 1, True, 2): "3447dea9736d12049a383f338efb9d418da0d480b9f4e34688a2388fe1db6bf6",
    ("ext8", 2, False, 2): "f0df565b2e7cda79124a4d82975f9612c072abf15fb955f6178786ea62e9e18c",
    ("ext8", 2, True, 2): "3771e38fc2943b0edbde58886dbf72320f83fd40146f6ec2a41f5497e739327c",
}


def _digest(over, m):
    system, read, targets = over(m)
    cocycles, constraints, coboundaries, dead, dead_below = system
    digest = hashlib.sha256()
    for rows in (cocycles, constraints, coboundaries):
        for row in rows:
            digest.update(repr(list(row.items())).encode())
        digest.update(b"|")
    digest.update(repr((sorted(dead), sorted(dead_below), targets())).encode())
    for x in range(len(cocycles)):
        digest.update(repr(read({x: 1})).encode())
    return digest.hexdigest()


CASES = [
    (name, d, normalized, m)
    for name, (_s, degrees) in STRUCTURES.items()
    for d in degrees
    for normalized in (False, True)
    for m in (2, 4, 6)
]
REDUCED_CASES = [case for case in CASES if case[3] == 2]


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINNED)
    assert sorted(REDUCED_CASES) == sorted(REDUCED)


@pytest.mark.parametrize("name,degree,normalized,m", CASES)
def test_full_system_digest(name, degree, normalized, m):
    structure = STRUCTURES[name][0]
    over = _full_system(structure, degree, normalized)
    assert _digest(over, m) == PINNED[name, degree, normalized, m]


@pytest.mark.parametrize("name,degree,normalized,m", REDUCED_CASES)
def test_reduced_system_digest(name, degree, normalized, m):
    structure = STRUCTURES[name][0]
    if normalized:
        pres = {1: _presentation(structure.add)}
        written = _presented_system(structure, degree, pres, True, _tables(structure))
        over = lambda _m: written
    else:
        over = _reduced_system(structure, degree)
    assert _digest(over, m) == REDUCED[name, degree, normalized, m]
