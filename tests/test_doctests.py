"""Run the doctest examples of every lcscohom module."""

import doctest
import importlib
import pkgutil

import pytest

import lcscohom

# __main__ runs the command line on import
MODULES = ["lcscohom"] + [
    f"lcscohom.{info.name}"
    for info in pkgutil.iter_modules(lcscohom.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_examples_are_collected():
    counts = {
        name: doctest.testmod(importlib.import_module(name)).attempted
        for name in ("lcscohom.abelian", "lcscohom.linalg")
    }
    assert counts["lcscohom.abelian"] >= 3 and counts["lcscohom.linalg"] >= 9
    finder = doctest.DocTestFinder()
    linalg = importlib.import_module("lcscohom.linalg")
    assert finder.find(linalg._eliminate)[0].examples
    assert finder.find(linalg._subquotient_mod)[0].examples
    # K / B read off one echelon of K: pivots of valuation 1 over Z/8, a
    # repeated generator of B and one outside K
    examples = finder.find(linalg._quotient_invariants)[0].examples
    assert any("[{0: 4}, {0: 4}], 2, 3)" in ex.source for ex in examples)
    assert any(ex.exc_msg for ex in examples)
    assert finder.find(linalg._IntegerSpan)[0].examples
    # the merged kernel shows both rings: membership over Z, least coset
    # elements and the order over Z/m
    sources = [ex.source for ex in finder.find(linalg._IntegerSpan)[0].examples]
    assert any(".contains(" in src for src in sources)
    assert any(".reduce(" in src for src in sources) and any(".order" in src for src in sources)
    assert finder.find(linalg._kernel_mod)[0].examples
    reduced = importlib.import_module("lcscohom.reduced")
    assert len(finder.find(reduced._apply)[0].examples) >= 3
    names = {t.name for t in finder.find(reduced) if t.examples}
    assert "lcscohom.reduced._presentation" in names
    # presented cochains are read on every tuple, and chains tested modulo
    # linearity, through the presentation
    assert "lcscohom.reduced._reader" in names
    assert "lcscohom.reduced._in_linearity_lattice" in names
    # the solver shows a least solution read in its tags' coordinates
    sources = [ex.source for ex in finder.find(linalg._least_solver)[0].examples]
    assert any("_least_solver(" in src and "}], " in src for src in sources)
    # every face's index-map builder shows its map on order 2
    bicomplex = importlib.import_module("lcscohom.bicomplex")
    builders = (
        reduced._act_map,
        reduced._merge_map,
        reduced._drop_map,
        reduced._permute_map,
        bicomplex._into_map,
        reduced._compose,
    )
    for builder in builders:
        assert finder.find(builder)[0].examples, builder.__name__
    # the maps are cut into runs and gathered, and the one presented writer
    # shows the reduced rows of Z/2, keys in write order, relations last
    for helper in (reduced._runs, reduced._gatherer, reduced._presented_system):
        assert finder.find(helper)[0].examples, helper.__name__
    examples = finder.find(reduced._presented_system)[0].examples
    assert any(ex.source.startswith("_presented_system(z2, 2, pres,") for ex in examples)
    assert any(ex.want == "[{0: 1, 3: -1, 1: 1, 2: 1, 4: 2}, {1: 0, 2: 0, 3: 2, 5: 2}]\n" for ex in examples)
    # the resolution builder shows the minimal ranks of V4 over Z/2
    resolution = importlib.import_module("lcscohom.resolution")
    examples = finder.find(resolution._resolution)[0].examples
    assert any(ex.source.startswith("d = _resolution(v4, 2, 2)") for ex in examples)
    assert any(ex.want == "[1, 2, 3]\n" for ex in examples)
    # the shuffle quotient's presentation shows its generators: pairs over
    # two elements up to order, three of them
    examples = finder.find(bicomplex._harrison)[0].examples
    assert any(ex.source.startswith("gens, relations, forms, _layers = _harrison(2, 2,") for ex in examples)
    assert any(ex.want.startswith("((0, 2, 3), ") for ex in examples)
    # the cached helper's doctest is collected through its cache wrapper
    extensions = importlib.import_module("lcscohom.extensions")
    names = {t.name for t in finder.find(extensions) if t.examples}
    assert "lcscohom.extensions._addition_index" in names
    assert "lcscohom.extensions._cocycle_plan" in names
    assert "lcscohom.extensions._class_representatives" in names
    # the JSON writer shows a table's rows, and the enumeration its count
    structures = importlib.import_module("lcscohom.structures")
    wants = [ex.want for ex in finder.find(structures._dump_json)[0].examples]
    assert any('"add": [\n    [\n      0,\n      1\n    ],' in want for want in wants)
    corpus = importlib.import_module("lcscohom.corpus")
    examples = finder.find(corpus.enumerate_lcs)[0].examples
    assert any(ex.source == "len(enumerate_lcs(4))\n" and ex.want == "10\n" for ex in examples)
