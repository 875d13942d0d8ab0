"""Frozen invariant factors of every cohomology and homology flavor.

Each digest is the SHA-256 of one flavor's invariant lists over every
linear cycle set of orders 1 to 4 in enumeration order, for one
coefficient group.  The digests were taken from the dense integer Smith
normal form path that the elimination over Z/p^e replaced, so any change
to a single invariant factor of any of them fails the test.
"""

import hashlib

import pytest
from compile_caches import clear_compile_caches

import lcscohom.reduced
from lcscohom.abelian import parse_group_spec
from lcscohom.bicomplex import full_cohomology
from lcscohom.corpus import enumerate_lcs
from lcscohom.reduced import (
    cs_cocycle_group,
    cs_cohomology,
    reduced_cohomology,
    reduced_homology,
)

STRUCTURES = [s for n in (1, 2, 3, 4) for s in enumerate_lcs(n)]
COEFFS = ("Z/4", "Z/6", "Z/2+Z/4")

PINNED = {
    ("Z/4", "reduced_cohomology(1, normalized=False)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "reduced_homology(1, normalized=False)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "reduced_cohomology(1, normalized=True)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "reduced_homology(1, normalized=True)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "cs_cohomology(1)"): "94c861a11471c45edf54424d6ad862d3a818760821f98315d3694190fe3651c7",
    ("Z/4", "cs_cocycle_group(1)"): "94c861a11471c45edf54424d6ad862d3a818760821f98315d3694190fe3651c7",
    ("Z/4", "reduced_cohomology(2, normalized=False)"): "7a7c5ae6a5e5f5643d44e9f443a536624ef5dc09603976fef6f0d3801c743330",
    ("Z/4", "reduced_homology(2, normalized=False)"): "7a7c5ae6a5e5f5643d44e9f443a536624ef5dc09603976fef6f0d3801c743330",
    ("Z/4", "reduced_cohomology(2, normalized=True)"): "7a7c5ae6a5e5f5643d44e9f443a536624ef5dc09603976fef6f0d3801c743330",
    ("Z/4", "reduced_homology(2, normalized=True)"): "7a7c5ae6a5e5f5643d44e9f443a536624ef5dc09603976fef6f0d3801c743330",
    ("Z/4", "cs_cohomology(2)"): "86e05553f34dd34b171f447b649d04da0a3d4ffebf5e84b2e0810d564fd867a1",
    ("Z/4", "cs_cocycle_group(2)"): "ffc740d8101d08d264c52d95d801dccbc53ccac2cdd6aae61da7420bcb0afe33",
    ("Z/4", "reduced_cohomology(3, normalized=False)"): "1c917878509e0192da0cfedb7d5b90b91bd18720cfa200464b11c09550c6ab0f",
    ("Z/4", "reduced_homology(3, normalized=False)"): "1c917878509e0192da0cfedb7d5b90b91bd18720cfa200464b11c09550c6ab0f",
    ("Z/4", "reduced_cohomology(3, normalized=True)"): "1c917878509e0192da0cfedb7d5b90b91bd18720cfa200464b11c09550c6ab0f",
    ("Z/4", "reduced_homology(3, normalized=True)"): "1c917878509e0192da0cfedb7d5b90b91bd18720cfa200464b11c09550c6ab0f",
    ("Z/4", "cs_cohomology(3)"): "dfbec9b1ea3705552087a16a384d6f13bef87db6c73fde07f8863bda1c5f283f",
    ("Z/4", "cs_cocycle_group(3)"): "f66120adf59aad5b43042be8a20eed0d92585c9b7e437a4c236ab4b53adaec02",
    ("Z/4", "full_cohomology(1, normalized=False)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "full_cohomology(1, normalized=True)"): "4e8f7e7675a59e38172827f16c4af8071cf5102af0fe1b73c6e85eab2dee15ff",
    ("Z/4", "full_cohomology(2, normalized=False)"): "54041d3952d4ae17be61455e1af7a0a954419b6fc12b80fb1dd8fc6702192891",
    ("Z/4", "full_cohomology(2, normalized=True)"): "54041d3952d4ae17be61455e1af7a0a954419b6fc12b80fb1dd8fc6702192891",
    ("Z/6", "reduced_cohomology(1, normalized=False)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "reduced_homology(1, normalized=False)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "reduced_cohomology(1, normalized=True)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "reduced_homology(1, normalized=True)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "cs_cohomology(1)"): "8055c96033674cc4e41f9fba66035dc494c8130818a893cd808de571fd16a957",
    ("Z/6", "cs_cocycle_group(1)"): "8055c96033674cc4e41f9fba66035dc494c8130818a893cd808de571fd16a957",
    ("Z/6", "reduced_cohomology(2, normalized=False)"): "b07b4fe917d76de98e081dc71140c4fcdf77a66bbc77998129f292686165b948",
    ("Z/6", "reduced_homology(2, normalized=False)"): "b07b4fe917d76de98e081dc71140c4fcdf77a66bbc77998129f292686165b948",
    ("Z/6", "reduced_cohomology(2, normalized=True)"): "b07b4fe917d76de98e081dc71140c4fcdf77a66bbc77998129f292686165b948",
    ("Z/6", "reduced_homology(2, normalized=True)"): "b07b4fe917d76de98e081dc71140c4fcdf77a66bbc77998129f292686165b948",
    ("Z/6", "cs_cohomology(2)"): "5b56882833dc2c397b5c765ac22d79c72f23157a052ab9d651ee75675a885804",
    ("Z/6", "cs_cocycle_group(2)"): "26207c28aabf14eb800ac9ec2d85262810782b09cbc8f9a90b2300a2e75f73c0",
    ("Z/6", "reduced_cohomology(3, normalized=False)"): "aeb9217c81baa29fc11dd555a88a76c3ebeefa30788e8a8087ab9f5aba77d9dc",
    ("Z/6", "reduced_homology(3, normalized=False)"): "aeb9217c81baa29fc11dd555a88a76c3ebeefa30788e8a8087ab9f5aba77d9dc",
    ("Z/6", "reduced_cohomology(3, normalized=True)"): "aeb9217c81baa29fc11dd555a88a76c3ebeefa30788e8a8087ab9f5aba77d9dc",
    ("Z/6", "reduced_homology(3, normalized=True)"): "aeb9217c81baa29fc11dd555a88a76c3ebeefa30788e8a8087ab9f5aba77d9dc",
    ("Z/6", "cs_cohomology(3)"): "1065eaff5a56342f1f2c51f16e3281e72b63ee7f30fe0d24e9314a2c37927a7c",
    ("Z/6", "cs_cocycle_group(3)"): "b5d81a2c590d7ff52b97141f17988a63805462bd7b1f639bd26bcd75aa132057",
    ("Z/6", "full_cohomology(1, normalized=False)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "full_cohomology(1, normalized=True)"): "6c2af83eb73a4e4d843d23fcf85a4865a69c8fb6b6662c5eea1b33d2ba4e683b",
    ("Z/6", "full_cohomology(2, normalized=False)"): "08213b2875fc4524cbdde40073210929723fd2a1df6b273ed0ea6ba0900ea11c",
    ("Z/6", "full_cohomology(2, normalized=True)"): "08213b2875fc4524cbdde40073210929723fd2a1df6b273ed0ea6ba0900ea11c",
    ("Z/2+Z/4", "reduced_cohomology(1, normalized=False)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "reduced_homology(1, normalized=False)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "reduced_cohomology(1, normalized=True)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "reduced_homology(1, normalized=True)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "cs_cohomology(1)"): "ccd9d1e59cbce89336256bfcf60c81b4d6fbe611da58b1455f34026ecce25312",
    ("Z/2+Z/4", "cs_cocycle_group(1)"): "ccd9d1e59cbce89336256bfcf60c81b4d6fbe611da58b1455f34026ecce25312",
    ("Z/2+Z/4", "reduced_cohomology(2, normalized=False)"): "9d225804bc74345b70501ab8de3be30c1cb207cbf45e7663d819e840e1a9e15d",
    ("Z/2+Z/4", "reduced_homology(2, normalized=False)"): "9d225804bc74345b70501ab8de3be30c1cb207cbf45e7663d819e840e1a9e15d",
    ("Z/2+Z/4", "reduced_cohomology(2, normalized=True)"): "9d225804bc74345b70501ab8de3be30c1cb207cbf45e7663d819e840e1a9e15d",
    ("Z/2+Z/4", "reduced_homology(2, normalized=True)"): "9d225804bc74345b70501ab8de3be30c1cb207cbf45e7663d819e840e1a9e15d",
    ("Z/2+Z/4", "cs_cohomology(2)"): "4c56a886f6b5a7ac128cd5ea5600262ff14f0016d79fb6c050adde3b7272144c",
    ("Z/2+Z/4", "cs_cocycle_group(2)"): "ccc6c5e33977e08527001e747ef0fc7083b268d90297861854c96acb6d39865c",
    ("Z/2+Z/4", "reduced_cohomology(3, normalized=False)"): "126290f9dbddbd9f78ff54853d5f6e1bb33822207c135acd9d4ed5372b309676",
    ("Z/2+Z/4", "reduced_homology(3, normalized=False)"): "126290f9dbddbd9f78ff54853d5f6e1bb33822207c135acd9d4ed5372b309676",
    ("Z/2+Z/4", "reduced_cohomology(3, normalized=True)"): "126290f9dbddbd9f78ff54853d5f6e1bb33822207c135acd9d4ed5372b309676",
    ("Z/2+Z/4", "reduced_homology(3, normalized=True)"): "126290f9dbddbd9f78ff54853d5f6e1bb33822207c135acd9d4ed5372b309676",
    ("Z/2+Z/4", "cs_cohomology(3)"): "b387f53d1369650209b9797752c44476c8824469394411422a3303d4ab62776b",
    ("Z/2+Z/4", "cs_cocycle_group(3)"): "c47f44abec3e089b69d8af3be6a0ba31abf304750ac11da2380c82be62248d3d",
    ("Z/2+Z/4", "full_cohomology(1, normalized=False)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "full_cohomology(1, normalized=True)"): "3985570ce473b3cd4de27e5c028c16f3b6412fec584687b966ae7c7edc3912fe",
    ("Z/2+Z/4", "full_cohomology(2, normalized=False)"): "dc0463ffd07a068818710036f13865c1e8561186e2e96d5fdc0219768b6625cc",
    ("Z/2+Z/4", "full_cohomology(2, normalized=True)"): "dc0463ffd07a068818710036f13865c1e8561186e2e96d5fdc0219768b6625cc",
}


def _flavors():
    out = []
    for k in (1, 2, 3):
        for norm in (False, True):
            out.append((f"reduced_cohomology({k}, normalized={norm})", reduced_cohomology, k, norm))
            out.append((f"reduced_homology({k}, normalized={norm})", reduced_homology, k, norm))
        out.append((f"cs_cohomology({k})", cs_cohomology, k, None))
        out.append((f"cs_cocycle_group({k})", cs_cocycle_group, k, None))
    for k in (1, 2):
        for norm in (False, True):
            out.append((f"full_cohomology({k}, normalized={norm})", full_cohomology, k, norm))
    return out


def _cases():
    return [(spec, *flavor) for spec in COEFFS for flavor in _flavors()]


def test_every_case_is_pinned():
    assert len(STRUCTURES) == 13
    assert sorted((spec, name) for spec, name, *_ in _cases()) == sorted(PINNED)


@pytest.mark.parametrize(
    "spec,name,fn,k,norm", _cases(), ids=[f"{c[0]}:{c[1]}" for c in _cases()]
)
def test_invariant_digest(spec, name, fn, k, norm):
    coeffs = parse_group_spec(spec)
    digest = hashlib.sha256()
    for s in STRUCTURES:
        inv = fn(s, coeffs, k) if norm is None else fn(s, coeffs, k, normalized=norm)
        digest.update(repr(inv).encode())
    assert digest.hexdigest() == PINNED[(spec, name)]


def test_normalized_reduced_groups_are_read_off_the_resolution(monkeypatch):
    # a tuple holding 0 is a degenerate bar cell of the brace group, so the
    # normalized reduced groups are the plain ones, read off the resolved
    # system: no tuple system is written for them, cold or warm
    def refuse(*_args):
        raise AssertionError("a tuple system was written")

    clear_compile_caches()
    monkeypatch.setattr(lcscohom.reduced, "_presented_system", refuse)
    pinned = [case for case in _cases() if case[2] is not full_cohomology and case[4]]
    assert len(pinned) == 2 * 3 * len(COEFFS)
    for case in pinned:
        test_invariant_digest(*case)
