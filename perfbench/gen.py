"""Seeded input generators for the four benchmark workloads.

Only the standard library is used (never ``poukit.generators``), so the
inputs for a given ``(workload, seed)`` stay fixed when library code changes.

Every pool is stratified: one round holds exactly one operation per stratum
(overlap depth, command, |Y| or polytope size m), and a pool is a whole number
of rounds.  The secondary sizes (n, the spread-ball count, |X|, the anchor
count) are dealt so that each stratum sees each listed value once across the
rounds, in a seeded order.  Runs measure whole pools, so every seed sees the
same multiset of sizes and only the pairing and the geometry vary.

Each operation is a dict::

    {"command": str, "args": [str], "input": <JSON object>, "sizes": {...}}

Every generated instance meets the preconditions of the theorems that
``verify-all`` checks: every sample lies in some ball, every target point has
an anchor strictly inside epsilon, spaces are preorders and maps are
nonempty-valued.  The generators assert this on exact rationals.
"""

import random
from fractions import Fraction

DEPTHS = range(3, 13)  # overlap depth at the deepest sample, 3..12
Y_SIZES = range(6, 14)  # |Y| for setmap-classify, 6..13
M_SIZES = range(3, 10)  # polytope vertices for select-eps, 3..9
DUMP_COMMANDS = ("nerve-build", "pou-build", "canonical-check")



def fmt(q):
    """Canonical rational string, the same form poukit writes back."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _deal(rng, strata, **values):
    """Per stratum, a seeded permutation of each value list: round r of
    stratum t uses ``dealt[t][r][name]``.  All lists have the round count."""
    rounds = len(next(iter(values.values())))
    dealt = {}
    for t in strata:
        cols = {name: rng.sample(vals, rounds) for name, vals in values.items()}
        dealt[t] = [{name: col[r] for name, col in cols.items()} for r in range(rounds)]
    return rounds, dealt


def _unit(rng, lo=-1, hi=1, den=1000):
    """Random rational in [lo, hi] with denominator ``den``."""
    return Fraction(rng.randint(lo * den, hi * den), den)


def _dist_sq(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


# --- metric ball covers -----------------------------------------------------


def ball_cover(rng, dim, depth, s, n):
    """A ball cover of n samples whose deepest sample lies in exactly
    ``depth`` balls.

    ``s`` spread balls form a chain along [0, 1] (a strip of height h in
    dimension 2) with overlap depth at most 2.  ``depth - 1`` small cluster
    balls share a core sample inside one spread ball's exclusive region, so
    the core has depth ``depth``.  k = depth - 1 + s with s in 3..7.
    """
    h = Fraction(1, 2 * s)
    spread_r = h * Fraction(5, 4)
    spread = [
        ((2 * j + 1) * h,) + ((h / 2,) if dim == 2 else ()) for j in range(s)
    ]
    host = spread[rng.randrange(s)]
    core = tuple(c + _unit(rng) * h / 8 for c in host)
    rho = h * Fraction(rng.randint(18, 24), 100)
    cluster = []
    for _ in range(depth - 1):
        center = tuple(c + _unit(rng) * rho / 2 for c in core)
        cluster.append((center, rho * Fraction(rng.randint(90, 110), 100)))
    balls = [(c, spread_r) for c in spread] + cluster
    rng.shuffle(balls)
    names = [f"B{i:02d}" for i in range(len(balls))]

    def generic(p, seen):
        # distinct, and no sample on (or numerically next to) a ball boundary
        if p in seen:
            return False
        return all(
            abs(_dist_sq(p, c) - r * r) * 10000 > r * r for c, r in balls
        )

    samples = [core]
    seen = {core}
    assert generic(core, set())
    n_cluster = rng.randint(4, 10)
    while len(samples) < n:
        if len(samples) <= n_cluster:
            p = tuple(c + _unit(rng) * rho * Fraction(6, 5) for c in core)
        else:
            p = (Fraction(rng.randint(0, 10**5), 10**5),)
            if dim == 2:
                p += (Fraction(rng.randint(0, 10**5), 10**5) * h,)
        if generic(p, seen):
            samples.append(p)
            seen.add(p)
    rng.shuffle(samples)

    witness = [
        [a for a, (c, r) in zip(names, balls) if _dist_sq(p, c) < r * r]
        for p in samples
    ]
    assert all(witness), "generator left a sample uncovered"
    assert max(map(len, witness)) == depth, "generator missed the target depth"
    obj = {
        "space": {"dim": dim, "samples": [[fmt(c) for c in p] for p in samples]},
        "balls": {
            a: {"center": [fmt(c) for c in ctr], "radius": fmt(r)}
            for a, (ctr, r) in zip(names, balls)
        },
    }
    sizes = {"n": n, "k": len(balls), "depth": depth, "dim": dim}
    return obj, sizes


def cover_check(rng, seed):
    strata = [(depth, dim) for depth in DEPTHS for dim in (1, 2)]
    rounds, dealt = _deal(rng, strata, s=[3, 4, 5, 6, 7], n=[20, 25, 30, 35, 40])
    ops = []
    for r in range(rounds):
        for depth, dim in strata:
            cover, sizes = ball_cover(rng, dim, depth, **dealt[depth, dim][r])
            ops.append(_verify_all({"metric_covers": [cover]}, sizes, seed))
    return ops


def cover_dump(rng, seed):
    strata = [(depth, command) for depth in DEPTHS for command in DUMP_COMMANDS]
    rounds, dealt = _deal(rng, strata, dim=[1, 1, 2, 2], s=[3, 4, 6, 7], n=[20, 27, 33, 40])
    ops = []
    for r in range(rounds):
        for depth, command in strata:
            cover, sizes = ball_cover(rng, depth=depth, **dealt[depth, command][r])
            obj = {"cover": cover} if command == "canonical-check" else cover
            ops.append({"command": command, "args": [], "input": obj, "sizes": sizes})
    return ops


# --- finite spaces and set-valued maps ---------------------------------------


def finite_space(rng, prefix, n):
    """Random finite poset as an Alexandrov space: min_open(x) is the
    up-set of x under the transitive closure of random forward edges."""
    p_edge = rng.uniform(0.08, 0.25)
    succ = [{j for j in range(i + 1, n) if rng.random() < p_edge} for i in range(n)]
    for i in reversed(range(n)):
        for j in list(succ[i]):
            succ[i] |= succ[j]
    order = list(range(n))
    rng.shuffle(order)  # decouple names from the topological order
    name = {i: f"{prefix}{order[i]}" for i in range(n)}
    return {
        "points": sorted(name.values()),
        "min_open": {
            name[i]: sorted({name[i]} | {name[j] for j in succ[i]}) for i in range(n)
        },
    }


def setmap_bundle(rng, ny, nx):
    x = finite_space(rng, "x", nx)
    y = finite_space(rng, "y", ny)
    values = {
        p: sorted(rng.sample(y["points"], rng.randint(1, max(1, ny // 3))))
        for p in x["points"]
    }
    # a second map whose fibers are open (unions of minimal opens), so that it
    # is totally l.s.c. and the lower-local-constancy check visits every K
    fibers = {q: set() for q in y["points"]}
    for q in y["points"]:
        for p in x["points"]:
            if rng.random() < 0.2:
                fibers[q] |= set(x["min_open"][p])
    for p in x["points"]:
        if not any(p in f for f in fibers.values()):
            fibers[rng.choice(y["points"])] |= set(x["min_open"][p])
    open_values = {
        p: sorted(q for q in y["points"] if p in fibers[q]) for p in x["points"]
    }
    k = rng.randint(3, 6)
    indices = [f"U{i}" for i in range(k)]
    cover = {
        p: sorted(rng.sample(indices, rng.randint(1, k))) for p in x["points"]
    }
    bundle = {
        "spaces": [x, y],
        "maps": [
            {"domain": x, "codomain": y, "values": values},
            {"domain": x, "codomain": y, "values": open_values},
        ],
        "covers": [{"domain": x, "codomain": indices, "values": cover}],
    }
    return bundle, {"X": nx, "Y": ny, "indices": k}


def setmap_classify(rng, seed):
    rounds, dealt = _deal(rng, Y_SIZES, nx=[*range(6, 17), 9, 13])
    ops = []
    for r in range(rounds):
        for ny in Y_SIZES:
            bundle, sizes = setmap_bundle(rng, ny, **dealt[ny][r])
            ops.append(_verify_all(bundle, sizes, seed))
    return ops


# --- epsilon-selection targets ------------------------------------------------


def selection_target(rng, dim, m, n_anchors):
    """Point, segment, box and an m-vertex polytope in dimension ``dim``,
    with 6..14 anchors.  Each set gets one anchor within eps/4 of a point
    of the set (a vertex for the polytope), so every anchor row is nonempty
    and every theorem precondition holds with margin."""
    eps = Fraction(rng.randint(20, 40), 100)

    def pt(lo=0, hi=2):
        return tuple(_unit(rng, lo, hi) for _ in range(dim))

    def shifted(p, scale):
        return tuple(c + _unit(rng) * scale for c in p)

    base = [pt() for _ in range(4)]
    lo = base[2]
    sets = {
        "x0": {"kind": "point", "p": base[0]},
        "x1": {"kind": "segment", "a": base[1], "b": shifted(base[1], Fraction(1, 2))},
        "x2": {"kind": "box", "lo": lo,
               "hi": tuple(c + _unit(rng, 0, 1) / 2 + Fraction(1, 20) for c in lo)},
        "x3": {"kind": "polytope",
               "vertices": [shifted(base[3], Fraction(3, 10)) for _ in range(m)]},
    }
    refs = [sets["x0"]["p"], sets["x1"]["a"], lo, sets["x3"]["vertices"][0]]
    near = [shifted(r, eps / 8) for r in refs]
    for r, a in zip(refs, near):
        assert _dist_sq(r, a) < (eps / 4) ** 2
    anchors = near + [pt(-1, 3) for _ in range(n_anchors - len(near))]
    rng.shuffle(anchors)

    def enc(spec):
        out = {"kind": spec["kind"]}
        for key, val in spec.items():
            if key == "vertices":
                out[key] = [[fmt(c) for c in v] for v in val]
            elif key != "kind":
                out[key] = [fmt(c) for c in val]
        return out

    obj = {
        "target": {"ambient_dim": dim, "sets": {x: enc(s) for x, s in sets.items()}},
        "epsilon": fmt(eps),
        "anchors": [[fmt(c) for c in a] for a in anchors],
    }
    return obj, {"m": m, "dim": dim, "anchors": n_anchors}


def select_eps(rng, seed):
    strata = [(m, dim) for m in M_SIZES for dim in (2, 3)]
    rounds, dealt = _deal(rng, strata, n_anchors=[6, 7, 8, 9, 11, 12, 13, 14])
    ops = []
    for r in range(rounds):
        for m, dim in strata:
            target, sizes = selection_target(rng, dim, m, **dealt[m, dim][r])
            ops.append(_verify_all({"targets": [target]}, sizes, seed))
    return ops


def _verify_all(bundle, sizes, seed):
    return {"command": "verify-all", "args": ["--seed", str(seed)],
            "input": bundle, "sizes": sizes}


WORKLOADS = {
    "cover-check": cover_check,
    "cover-dump": cover_dump,
    "setmap-classify": setmap_classify,
    "select-eps": select_eps,
}


def generate(workload, seed):
    """The operation pool of one run; identical for identical arguments."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return WORKLOADS[workload](rng, seed)
