"""Frozen classification JSON and `lcscohom equivalent` output.

Each classification digest is the SHA-256 over the `classify` JSON of
every linear cycle set of orders 1 to 4 (but `HEAVY`), one digest per
coefficient group and flavor.  Each equivalence digest covers the stdout and exit code of
`lcscohom equivalent` on accept pairs (a class against itself shifted by
a coboundary) and reject pairs (two different classes) over the same
corpus.  The digests were taken from the exhaustive search that the
linear algebra over Z/m replaced, so a changed class representative,
verdict, theta or isomorphism fails the test.
"""

import contextlib
import hashlib
import io
import json

import pytest

from lcscohom.abelian import parse_group_spec
from lcscohom.cli import main
from lcscohom.corpus import enumerate_lcs
from lcscohom.extensions import (
    build_extension_full,
    classify_extensions,
    extension_to_dict,
    extract_cocycle,
)

STRUCTURES = [s for n in (1, 2, 3, 4) for s in enumerate_lcs(n)]
FLAVORS = ("cycle-type", "general")
COEFFS = ("Z/2", "Z/3", "Z/4", "Z/6", "Z/2+Z/2", "Z/2+Z/4")
EQUIVALENT_COEFFS = ("Z/2", "Z/4", "Z/6", "Z/2+Z/2")
# Pairs per base, coefficient group and flavor: the first classes only.
PAIRS = 3
# The trivial structure on Z/2+Z/2 has 4,096 general classes over Z/2+Z/4,
# each an order-32 structure validated outright: 7.7 s on its own (one
# AMD EPYC core, CPython 3.11), 19.4 s when every law was checked one
# element at a time.
HEAVY = ("Z/2+Z/4", "general", 3)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _shifted(triple, k: int):
    """The class of `triple` rebuilt from its cocycle plus the full
    coboundary of the normalized 1-cochain a -> element(k * a + 1)."""
    gamma, base = triple.gamma, triple.base
    n = base.order
    theta = [
        gamma.zero if a == base.zero else gamma.element((k * a + 1) % gamma.order)
        for a in range(n)
    ]
    c = extract_cocycle(triple, "full")
    d = gamma.sub
    f = [
        [gamma.add(c.f[a][b], d(theta[base.dot[a][b]], theta[b])) for b in range(n)]
        for a in range(n)
    ]
    g = [
        [gamma.add(c.g[a][b], d(d(theta[base.add[a][b]], theta[a]), theta[b])) for b in range(n)]
        for a in range(n)
    ]
    return build_extension_full(gamma, base, f, g)


def _cli(tmp, first, second) -> str:
    paths = []
    for triple in (first, second):
        # a fresh name each time: truncating a file can cost more than the call
        path = tmp / f"{len(list(tmp.iterdir()))}.json"
        path.write_text(json.dumps(extension_to_dict(triple)))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["equivalent", *paths])
    return f"{code}\n{out.getvalue()}"


def digests(tmp, coeff: str, flavor: str):
    """The classification digest, and the equivalence digest for the
    groups in EQUIVALENT_COEFFS (None for the others)."""
    classify, equivalent = [], []
    for index, s in enumerate(STRUCTURES):
        if (coeff, flavor, index) == HEAVY:
            continue
        classes = classify_extensions(s, parse_group_spec(coeff), flavor)
        text = json.dumps([e.to_dict() for e in classes], sort_keys=True, indent=2) + "\n"
        classify.append(_sha(text))
        if coeff not in EQUIVALENT_COEFFS:
            continue
        for i, c in enumerate(classes[:PAIRS]):
            equivalent.append(_sha(_cli(tmp, c.triple, _shifted(c.triple, i + 1))))
            if i + 1 < len(classes):
                equivalent.append(_sha(_cli(tmp, c.triple, classes[i + 1].triple)))
    return _sha("".join(classify)), _sha("".join(equivalent)) if equivalent else None


PINNED_CLASSIFY = {
    ("Z/2", "cycle-type"): "581cc968ada591f93db30e5f4aaec14b862dd56304ad87a3b29786b301a8d2b3",
    ("Z/2", "general"): "46dd30a76f43fc79cf329f1a8749fef4cf6aa51d52e8cf92a5f9ae8ea9df6c32",
    ("Z/3", "cycle-type"): "d3f43636f129bf2334bffa709e6a8f574f3f687dc0fd145b9c94e1e93b2fd7a8",
    ("Z/3", "general"): "cb5c5a3d585bfd3835b10630634228cd12ee600f03edbd0abb74e33a9bac8942",
    ("Z/4", "cycle-type"): "d3ee2f55797dc990575930fd8151c983a8f5d078e45101d0ac425c6374b4d360",
    ("Z/4", "general"): "676daf409de2c7a6f9322a79a4142f27f74adbffb5e5c4dfc70351f96df81bf1",
    ("Z/6", "cycle-type"): "7756ccdceea1bc7d808310d62bdf867883c85f38f19e9d65190a40920524ff87",
    ("Z/6", "general"): "3224fbf6dadd7dbbe57a8d09736a9d3cc4296b19f711961b2ac02d74a12b4e97",
    ("Z/2+Z/2", "cycle-type"): "6898be2e378bbf21889e7df2b322cc63e6a1e299ae78d027aa336b27af6371bb",
    ("Z/2+Z/2", "general"): "6605fb0d862b4c79c3165d21fb90555e19360890fa37e5394588b0797bc07de9",
    ("Z/2+Z/4", "cycle-type"): "596c2fe2dab9d8b88cb30fd81ac7ada1fc33cf7cb58756aa001705502167bee6",
    ("Z/2+Z/4", "general"): "a341865310be6d0bc5391273c39ab4fc542938b8c6758b6e1040c10672196d3e",
}

PINNED_EQUIVALENT = {
    ("Z/2", "cycle-type"): "c1a5d53e53e7a6218ede661f526be6f27173564143cb1c33a36d9f3f90592f20",
    ("Z/2", "general"): "a1ad1d6743e944b310754b2ed2a37981d7ade80c274094f5c21134fff6df157b",
    ("Z/4", "cycle-type"): "10ba7b234e54c14fe8eab577629ada2a8f1ae71fdba0363b0e3b4435b3e40670",
    ("Z/4", "general"): "c0b4c2a3d168e03a7a9daa5e47682288844000cb84394542b4c5c55a1621362d",
    ("Z/6", "cycle-type"): "47bc59f2da549bad9099b6f76420e2dfc7b42b0eed01cd6177d31b489daac40d",
    ("Z/6", "general"): "007f6754b4261672abbdaef3bb52a87006185d8d9168336adf4f4bc0faccc169",
    ("Z/2+Z/2", "cycle-type"): "0b25605b439e1d2648d16eecb35e5a38796c6b8c3bc76ff2ba21cd7a876a22ff",
    ("Z/2+Z/2", "general"): "0b25605b439e1d2648d16eecb35e5a38796c6b8c3bc76ff2ba21cd7a876a22ff",
}


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_classify_and_equivalent_frozen(tmp_path, coeff, flavor):
    classify, equivalent = digests(tmp_path, coeff, flavor)
    assert classify == PINNED_CLASSIFY[(coeff, flavor)]
    assert equivalent == PINNED_EQUIVALENT.get((coeff, flavor))
