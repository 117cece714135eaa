"""JSON encodings for every value the command line reads or writes.

Scalars travel as strings: either decimals ("0.25") or rationals ("1/4").
In exact mode they parse to Fractions, in float mode to floats.  Ground
points of a metric sample space are addressed by their sample position
("0", "1", ...) wherever JSON needs a string key.
"""

from .errors import InputError
from .pou import PartitionOfUnity, validate_pou
from .scalars import EXACT, format_scalar, parse_scalar
from .selection import ConvexTarget
from .setmaps import SetValuedMap
from .spaces import Ball, FiniteSpace, MetricSampleSpace
from .sparse import ExtendedUnitVec, SparseVec


def load_sparse_vec(obj, mode=EXACT):
    entries = {k: parse_scalar(v, mode) for k, v in obj.get("entries", {}).items()}
    if "tail_mass" in obj or "tail_sup" in obj:
        return ExtendedUnitVec(
            entries,
            parse_scalar(obj.get("tail_mass", 0), mode),
            parse_scalar(obj.get("tail_sup", 0), mode),
            mode=mode,
        )
    return SparseVec(entries)


def dump_sparse_vec(v):
    if isinstance(v, ExtendedUnitVec):
        return {
            "entries": {str(k): format_scalar(val) for k, val in sorted(v.explicit.entries.items())},
            "tail_mass": format_scalar(v.tail_mass),
            "tail_sup": format_scalar(v.tail_sup),
        }
    return {"entries": {str(k): format_scalar(val) for k, val in sorted(v.entries.items())}}


def require_fields(obj, what, *keys):
    """``obj[k]`` for each key; InputError if ``obj`` is not a JSON object
    or lacks a key."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError(f"{what} lacks {missing}")
    return [obj[k] for k in keys]


def _point_set(items, what):
    try:
        return set(items)
    except TypeError as exc:
        raise InputError(f"{what} is not a list of points: {exc}") from exc


def _point_sets(obj, what):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    return {p: _point_set(v, f"{what}[{p!r}]") for p, v in obj.items()}


def load_finite_space(obj):
    points, min_open = require_fields(obj, "a finite space", "points", "min_open")
    points = _point_set(points, "points")
    min_open = _point_sets(min_open, "min_open")
    missing = points - min_open.keys()
    if missing:
        raise InputError(f"no min_open for {sorted(missing, key=repr)}")
    return FiniteSpace(points, min_open)


def dump_finite_space(space):
    return {
        "points": sorted(space.points, key=repr),
        "min_open": {
            str(p): sorted(space.min_open[p], key=repr)
            for p in sorted(space.points, key=repr)
        },
    }


def load_metric_space(obj, mode=EXACT):
    samples = [tuple(parse_scalar(c, mode) for c in row) for row in obj["samples"]]
    return MetricSampleSpace(samples, dim=obj.get("dim"))


def dump_metric_space(space):
    return {
        "dim": space.dim,
        "samples": [[format_scalar(c) for c in p] for p in space.samples],
    }


def load_ball(obj, mode=EXACT):
    return Ball(
        [parse_scalar(c, mode) for c in obj["center"]],
        parse_scalar(obj["radius"], mode),
    )


def dump_ball(ball):
    return {
        "center": [format_scalar(c) for c in ball.center],
        "radius": format_scalar(ball.radius),
    }


def load_ground(obj, mode=EXACT):
    if "min_open" in obj:
        return load_finite_space(obj)
    return load_metric_space(obj, mode)


def load_set_valued_map(obj, mode=EXACT):
    domain, codomain, values = require_fields(
        obj, "a set-valued map", "domain", "codomain", "values"
    )
    domain = load_finite_space(domain)
    values = _point_sets(values, "values")
    if codomain == "discrete" or isinstance(codomain, list):
        indices = set() if codomain == "discrete" else _point_set(codomain, "codomain")
        for vals in values.values():
            indices |= vals
        codomain = FiniteSpace.discrete(indices)
    else:
        codomain = load_finite_space(codomain)
    return SetValuedMap(domain, codomain, values)


def dump_set_valued_map(phi):
    return {
        "domain": dump_finite_space(phi.domain),
        "codomain": (
            sorted(phi.codomain.points, key=repr)
            if phi.is_discrete_codomain()
            else dump_finite_space(phi.codomain)
        ),
        "values": {
            str(p): sorted(phi.values[p], key=repr)
            for p in sorted(phi.domain.points, key=repr)
        },
    }


def _ground_point(ground, key):
    if isinstance(ground, MetricSampleSpace):
        return ground.samples[int(key)]
    if key not in ground.points:
        raise InputError(f"unknown ground point {key!r}")
    return key


def load_pou(obj, mode=EXACT):
    ground = load_ground(obj["ground"], mode)
    indices = set(obj["indices"])
    rows = {
        _ground_point(ground, k): load_sparse_vec({"entries": row}, mode)
        for k, row in obj["rows"].items()
    }
    return validate_pou(ground, indices, rows, mode=mode)


def dump_pou(pou):
    if isinstance(pou.ground, MetricSampleSpace):
        ground = dump_metric_space(pou.ground)
        key = {x: str(i) for i, x in enumerate(pou.ground.samples)}
    else:
        ground = dump_finite_space(pou.ground)
        key = {x: str(x) for x in pou.ground.points}
    return {
        "ground": ground,
        "indices": sorted(pou.index_set, key=repr),
        "rows": {
            key[x]: {
                str(a): format_scalar(pou.rows[x][a]) for a in pou.rows[x]
            }
            for x in pou.ground_points()
        },
    }


def dump_complex(cx):
    return {
        "vertices": sorted(cx.vertices, key=repr),
        "simplices": sorted(
            (sorted(s, key=repr) for s in cx.simplices), key=lambda s: (len(s), s)
        ),
        "witnessed": cx.witnessed,
    }


def load_convex_target(obj, mode=EXACT):
    given = obj.get("sets") if isinstance(obj, dict) else None
    if not isinstance(given, dict) or "ambient_dim" not in obj:
        raise InputError("a convex target needs ambient_dim and a sets object")
    sets = {}
    for x, spec in given.items():
        if not isinstance(spec, dict):
            raise InputError(f"convex set at {x!r} is not a JSON object")
        spec = dict(spec)
        for field in ("p", "a", "b", "lo", "hi"):
            if field in spec:
                spec[field] = tuple(parse_scalar(c, mode) for c in spec[field])
        if "vertices" in spec:
            spec["vertices"] = [
                tuple(parse_scalar(c, mode) for c in v) for v in spec["vertices"]
            ]
        sets[x] = spec
    return ConvexTarget(obj["ambient_dim"], sets)


def load_anchors(obj, mode=EXACT):
    return [tuple(parse_scalar(c, mode) for c in a) for a in obj]
