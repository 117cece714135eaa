"""Seeded random instances, small vectors and spaces, and the oracles of the
test suite.

The tests import this module as ``generators``; the library does not use it.
Everything draws from a caller-supplied ``random.Random`` so runs are
reproducible from a single seed.  Draws run over points in ``repr`` order,
never in set order, which follows the per-process string hash.
"""

import math
import random
from fractions import Fraction

from poukit import FiniteSpace, SetValuedMap, SparseVec, indexed_cover


def dirac(index):
    return SparseVec({index: Fraction(1)})


def uniform(indices):
    indices = list(indices)
    return SparseVec(dict.fromkeys(indices, Fraction(1, len(indices))))


def linear_combination(*terms):
    """The sum of ``c * v`` over the ``(c, v)`` terms, added key by key in
    term order."""
    acc = {}
    for c, v in terms:
        for k, x in v.entries.items():
            acc[k] = acc.get(k, 0) + c * x
    return SparseVec(acc)


def open_star(pou, alpha):
    """Ground points, in ``pou.ground_points()`` order, where the alpha-th
    coordinate function is nonzero."""
    return [x for x in pou.ground_points() if pou.rows[x][alpha] != 0]


def product_space(x, y):
    """Product topology: minimal opens are boxes of minimal opens."""
    points = {(p, q) for p in x.points for q in y.points}
    min_open = {
        (p, q): {(a, b) for a in x.min_open[p] for b in y.min_open[q]}
        for (p, q) in points
    }
    return FiniteSpace(points, min_open)


def random_simplex_point(rng, indices, max_carrier=None):
    """Uniformly weighted random rational simplex point with carrier drawn
    from the given index pool."""
    indices = list(indices)
    k = rng.randint(1, max_carrier or len(indices))
    carrier = rng.sample(indices, min(k, len(indices)))
    weights = [rng.randint(1, 100) for _ in carrier]
    total = sum(weights)
    return SparseVec({a: Fraction(w, total) for a, w in zip(carrier, weights)})


def random_space(rng, max_points=8):
    """Random finite Alexandrov space: a random relation closed under
    reflexivity and transitivity."""
    n = rng.randint(1, max_points)
    points = [f"p{i}" for i in range(n)]
    succ = {p: {p} for p in points}
    for p in points:
        for q in points:
            if p != q and rng.random() < 0.3:
                succ[p].add(q)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for p in points:
            extra = set()
            for q in succ[p]:
                extra |= succ[q]
            if not extra <= succ[p]:
                succ[p] |= extra
                changed = True
    return FiniteSpace(points, succ)


def random_set_valued_map(rng, domain=None, codomain=None, max_points=6):
    """Random nonempty-valued map between random finite spaces."""
    if domain is None:
        domain = random_space(rng, max_points)
    if codomain is None:
        codomain = random_space(rng, max_points)
    cod = sorted(codomain.points, key=repr)
    values = {
        p: set(rng.sample(cod, rng.randint(1, len(cod))))
        for p in sorted(domain.points, key=repr)
    }
    return SetValuedMap(domain, codomain, values)


def random_cover(rng, domain=None, max_indices=6, max_points=8):
    """Random indexed cover of a random finite space."""
    if domain is None:
        domain = random_space(rng, max_points)
    k = rng.randint(1, max_indices)
    indices = [f"U{i}" for i in range(k)]
    values = {
        p: set(rng.sample(indices, rng.randint(1, k)))
        for p in sorted(domain.points, key=repr)
    }
    return indexed_cover(domain, indices, values)


def random_open_cover(rng, domain=None, max_indices=6, max_points=8):
    """Random totally-l.s.c. cover: every fiber is a union of minimal opens,
    patched so each point is covered."""
    if domain is None:
        domain = random_space(rng, max_points)
    pts = sorted(domain.points, key=repr)
    k = rng.randint(1, max_indices)
    indices = [f"U{i}" for i in range(k)]
    fibers = {}
    for a in indices:
        fiber = set()
        for p in pts:
            if rng.random() < 0.4:
                fiber |= domain.min_open[p]
        fibers[a] = fiber
    covered = set().union(*fibers.values()) if fibers else set()
    for p in pts:
        if p not in covered:
            fibers[indices[rng.randrange(k)]] |= domain.min_open[p]
            covered.add(p)
    values = {p: {a for a in indices if p in fibers[a]} for p in pts}
    # fiber unions of minimal opens may still miss points added above; the
    # patch loop extends fibers by whole minimal opens, so openness holds
    return indexed_cover(domain, indices, values)


def make_rng(seed):
    return random.Random(seed)


def graph_closure(phi):
    """Mapping given by the closure of the graph, computed via the
    neighborhood-image intersection formula."""
    x, y = phi.domain, phi.codomain
    values = {}
    for p in x.points:
        acc = set(y.points)
        for q in x.points:
            u = x.min_open[q]
            if p in u:
                acc &= y.closure(phi.image(u))
        values[p] = frozenset(acc)
    return SetValuedMap(x, y, values)


def oracle_bump(x, ball):
    """max(radius - d(x, centre), 0): through Fraction in dimension 1, else
    the root of the correctly rounded Fraction d**2, or where that leaves
    the float range 2**512 times the root of d**2 / 2**1024."""
    if len(x) == 1:
        gap = Fraction(ball.radius) - abs(Fraction(x[0]) - Fraction(ball.center[0]))
    else:
        d_sq = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, ball.center))
        try:
            d = math.sqrt(float(d_sq))
        except OverflowError:
            d = math.sqrt(float(d_sq / 2**1024)) * 2.0**512
        gap = float(ball.radius) - d
    return max(gap, 0)


def float_bump(x, ball):
    """The bump of a float pair: r - |x0 - c0| in floats in dimension 1,
    else as ``oracle_bump``."""
    if len(x) == 1:
        return max(ball.radius - abs(x[0] - ball.center[0]), 0)
    return oracle_bump(x, ball)


def float_of(total):
    """``float(total)``, or past the float range ``math.inf``."""
    try:
        return float(total)
    except OverflowError:
        return math.inf
