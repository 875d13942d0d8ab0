"""A small free resolution of Z/q over the group ring of a finite group.

Let G be a finite group on the elements 0, ..., n-1, with multiplication
table `mul`, and let R = (Z/q)[G] for a prime power q = p^e.  A free
resolution

    ... -> P_2 -> P_1 -> P_0 = R -> Z/q -> 0

computes H^*(G; M) as the cohomology of Hom_G(P, M), and H_*(G; M) as
the homology of P (x)_G M, whatever resolution is taken (the comparison
theorem: Brown, *Cohomology of Groups*, GTM 87, 1982, I.7).  The bar
resolution has n^i generators in degree i; a minimal one has r_i =
dim H^i(G; F_p) when G is a p-group.

P_i is free on generators e_0, ..., e_(r_i - 1).  An element of P_i is a
sparse {l * n + g: c}, the sum of c g e_l, so its coordinates are a
Z/q-basis and G acts on the left by h . (g e_l) = (h g) e_l.  The kernel
K_i of d_i, with K_0 the augmentation ideal J, is the vanishing
combinations of the Z/q-rows h . d_i(e_l), read off one tagged
elimination (`linalg._kernel_tags`).  Its module generators lift a basis
of the F_p-space K_i / (p K_i + J K_i).  When G is a p-group, R is local
with maximal ideal (p, J), so by Nakayama's lemma these generate K_i, and
minimally.  Otherwise the G-orbits of the lifts need not span K_i, so
each step checks them against every kernel generator and adds the ones
left out, greedily.  Every kernel is free over Z/q: it is the kernel of
a split surjection of free Z/q-modules.
"""

from .linalg import _IntegerSpan, _kernel_tags, _prime_powers

__all__ = []


def _resolution(mul, q: int, length: int) -> tuple:
    """The differentials d_1, ..., d_length of a free resolution of Z/q
    over (Z/q)[G], for the group G with multiplication table `mul` and a
    prime power q.

    d_i is the tuple of the images d_i(e_l) in P_(i-1), as sparse
    {l' * n + g: c} with entries in [1, q), so P_i has r_i = len(d_i)
    generators, and P_0 = (Z/q)[G] has one, augmented onto Z/q.  Over F_2
    the Klein four-group V4 = Z/2 x Z/2 has dim H^i(V4; F_2) = i + 1, and
    its resolution has ranks 1, 2, 3; d_1 sends e_0 and e_1 to a + 1 and
    b + 1 for the generators a = 1 and b = 2:

    >>> v4 = [[g ^ h for h in range(4)] for g in range(4)]
    >>> d = _resolution(v4, 2, 2)
    >>> [1] + [len(images) for images in d]
    [1, 2, 3]
    >>> d[0]
    ({1: 1, 0: 1}, {2: 1, 0: 1})

    Over Z/4 the ranks are the same.  (Z/3)[V4] is not local: J = J^2, so
    no kernel element lifts a basis vector of K / (3K + JK), and every
    generator is a greedy one, not a minimal one:

    >>> [len(images) for images in _resolution(v4, 4, 2)]
    [2, 3]
    >>> [len(images) for images in _resolution(v4, 3, 2)]
    [2, 3]
    """
    ((p, e),) = _prime_powers(q)
    n = len(mul)
    steps = _generating_set(mul)
    rows = [{0: 1}] * n  # the augmentation g -> 1 on the basis of P_0
    differentials = []
    for _ in range(length):
        kernel = _kernel_tags(rows, [{x: 1} for x in range(len(rows))], p, e)
        chosen = _module_generators(kernel, mul, steps, p, q)
        differentials.append(tuple(chosen))
        rows = [_translate(mul, h, image) for image in chosen for h in range(n)]
    return tuple(differentials)


def _generating_set(mul) -> list:
    """Elements of G that generate it, picked greedily in index order.

    >>> z4 = [[(g + h) % 4 for h in range(4)] for g in range(4)]
    >>> _generating_set(z4)
    [1]
    """
    n = len(mul)
    unit = next(g for g in range(n) if mul[g][g] == g)
    found, steps = {unit}, []
    for g in range(n):
        if g in found:
            continue
        steps.append(g)
        grown = list(found)
        for x in grown:  # close under multiplication by the steps so far
            for s in steps:
                y = mul[x][s]
                if y not in found:
                    found.add(y)
                    grown.append(y)
    return steps


def _translate(mul, h: int, vec: dict) -> dict:
    """h . vec for an element {l * n + g: c} of a free module."""
    n = len(mul)
    row = mul[h]
    return {x - x % n + row[x % n]: c for x, c in vec.items()}


def _module_generators(kernel, mul, steps, p: int, q: int) -> list:
    """Generators, as an R-module, of the Z/q-span K of `kernel`, a
    G-submodule of a free module: lifts of a basis of K / (pK + JK),
    then any generator of K that the G-orbits of those do not reach.

    JK is spanned by the (s - 1) k for k in K and s in `steps`, a
    generating set of G: (gh - 1) k = (g - 1) h k + (h - 1) k.
    """
    n = len(mul)
    radical = _IntegerSpan([], q)
    for k in kernel:
        radical.add({x: p * c for x, c in k.items()})
        for s in steps:
            moved = _translate(mul, s, k)
            for x, c in k.items():
                moved[x] = moved.get(x, 0) - c
            radical.add(moved)
    chosen = []
    for k in kernel:
        if radical.reduce(k):
            chosen.append(k)
            radical.add(k)
    orbits = _IntegerSpan([_translate(mul, h, k) for k in chosen for h in range(n)], q)
    for k in kernel:
        if orbits.reduce(k):  # not reached: R is not local
            chosen.append(k)
            for h in range(n):
                orbits.add(_translate(mul, h, k))
    return chosen
