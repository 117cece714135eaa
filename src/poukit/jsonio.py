"""JSON encodings for every value the command line reads or writes.

Scalars travel as strings: either decimals ("0.25") or rationals ("1/4").
A JSON number with a fraction or an exponent is read as its text, so exact
mode reads 0.3 as 3/10.  In exact mode scalars parse to Fractions, in float
mode to floats.  Ground points of a metric sample space are addressed by
their sample position ("0", "1", ...) wherever JSON needs a string key; any
other point or index, such as the integer 1, by its ``str`` ("1"), so two
of them with the same ``str`` cannot be told apart and are an InputError.
"""

import json
import math
import reprlib

from .errors import InputError, RowNotSimplex
from .nerve import _dump_bound
from .pou import PartitionOfUnity
from .scalars import EXACT, format_scalar
from .selection import ConvexTarget
from .setmaps import SetValuedMap
from .spaces import Ball, FiniteSpace, MetricSampleSpace
from .sparse import ExtendedUnitVec, SparseVec


def load_sparse_vec(obj, mode=EXACT):
    entries = expect(expect(obj, "a unit vector").get("entries", {}), "entries")
    entries = {k: mode.parse(v) for k, v in entries.items()}
    if "tail_mass" in obj or "tail_sup" in obj:
        return ExtendedUnitVec(entries, mode.parse(obj.get("tail_mass", 0)),
                               mode.parse(obj.get("tail_sup", 0)))
    return SparseVec(entries)


def dump_sparse_vec(v):
    if isinstance(v, ExtendedUnitVec):
        return {
            "entries": {str(k): format_scalar(val) for k, val in sorted(v.explicit.entries.items())},
            "tail_mass": format_scalar(v.tail_mass),
            "tail_sup": format_scalar(v.tail_sup),
        }
    return {"entries": {str(k): format_scalar(val) for k, val in sorted(v.entries.items())}}


def expect(obj, what, items=None):
    """``obj`` if it is a JSON object or, when ``items`` names what a list
    holds, a list.  Otherwise an InputError that names ``what``, the
    expected shape and the value, and calls a string a string."""
    shape, noun = (dict, "a JSON object") if items is None else (list, f"a list of {items}")
    if isinstance(obj, shape):
        return obj
    given = "the string " if isinstance(obj, str) else ""
    raise InputError(f"{what} must be {noun}, not {given}{reprlib.repr(obj)}")


def require_fields(obj, what, *keys):
    """``obj[k]`` for each key; InputError if ``obj`` is not a JSON object
    or lacks a key."""
    missing = [k for k in keys if k not in expect(obj, what)]
    if missing:
        raise InputError(f"{what} lacks {missing}")
    return [obj[k] for k in keys]


def _scalars(obj, what, mode):
    """A JSON list of scalars as a tuple."""
    return tuple(map(mode.parse, expect(obj, what, "scalars")))


def _points(obj, what, mode):
    """A JSON list of coordinate lists as a list of tuples."""
    each, parse = f"each of {what}", mode.parse
    return [tuple(map(parse, expect(p, each, "scalars")))
            for p in expect(obj, what, "coordinate lists")]


def _point_set(items, what):
    """A JSON list of points as a set; a string, an object or a list with a
    JSON true or false, which the set would merge with 1 or 0, is not one."""
    try:
        points = set(expect(items, what, "points"))
    except TypeError as exc:
        raise InputError(f"{what} is not a list of points: {exc}") from exc
    if (0 in points or 1 in points) and any(type(p) is bool for p in items):
        raise InputError(f"{what} names a JSON true or false, which is no point")
    return points


def _point_sets(obj, what):
    try:  # the name what[key] is formatted only on the pass that checks it
        sets = {p: set(expect(v, what, "points")) for p, v in expect(obj, what).items()}
        if not any(0 in s or 1 in s for s in sets.values()):
            return sets
    except (InputError, TypeError):
        pass
    return {p: _point_set(v, f"{what}[{p!r}]") for p, v in expect(obj, what).items()}


def _by_str(points, what):
    """``{str(p): p}`` over ``points``: a JSON object keys each point by its
    ``str``.  Two points with the same ``str``, such as ``1`` and ``"1"``,
    are an InputError."""
    by_str = {}
    for p in sorted(points, key=repr):
        if by_str.setdefault(str(p), p) is not p:
            raise InputError(f"{what} {by_str[str(p)]!r} and {p!r} are both keyed {str(p)!r}")
    return by_str


def _keyed_by_points(sets, points, what):
    """``sets``, read from a JSON object, with each key that names no point
    read as the point whose ``str`` it is; a document whose keys are its
    points, as every one with string points, is taken as it is."""
    if sets.keys() == points:
        return sets
    point_of = _by_str(points, what)
    return {point_of.get(k, k): v for k, v in sets.items()}


def load_finite_space(obj, loaded=None):
    """The space ``obj`` encodes.  ``loaded``, when given, is a run's memo:
    a document equal (``==``) to one loaded before, key order aside, gets
    that space back and is not loaded again.  The memo holds the documents
    in buckets by their tuple of points, so a document is compared only
    with those that list the same points.  Equal JSON values are the same
    point (a JSON decimal is read as its text, and no valid space has a
    true or false point), so ``==`` cannot take a document of another space
    for it; one too deep to compare is loaded without the memo.  A point
    that is not a string, such as ``1``, has its minimal open under the key
    ``"1"``."""
    bucket = None if loaded is None else _memo_bucket(loaded, obj)
    if bucket is not None:
        try:
            for doc, space in bucket:
                if doc == obj:
                    return space
        except RecursionError:
            bucket = None
    points, min_open = require_fields(obj, "a finite space", "points", "min_open")
    points = _point_set(points, "points")
    min_open = _keyed_by_points(_point_sets(min_open, "min_open"), points, "points")
    space = FiniteSpace(points, min_open)
    if bucket is not None:
        bucket.append((obj, space))
    return space


def _memo_bucket(loaded, obj):
    """The list of ``(document, space)`` pairs in ``loaded`` whose points
    are those of ``obj``, or None when ``obj`` has no hashable points,
    which loading it rejects."""
    try:
        return loaded.setdefault(tuple(obj["points"]), [])
    except (TypeError, KeyError):
        return None


def dump_finite_space(space):
    return {
        "points": sorted(space.points, key=repr),
        "min_open": {
            str(p): sorted(space.min_open[p], key=repr)
            for p in sorted(space.points, key=repr)
        },
    }


def load_metric_space(obj, mode=EXACT):
    (samples,) = require_fields(obj, "a metric sample space", "samples")
    return MetricSampleSpace(_points(samples, "samples", mode), dim=obj.get("dim"))


def dump_metric_space(space):
    return {
        "dim": space.dim,
        "samples": [[format_scalar(c) for c in p] for p in space.samples],
    }


def load_ball(obj, mode=EXACT):
    center, radius = require_fields(obj, "a ball", "center", "radius")
    return Ball(_scalars(center, "a ball centre", mode), mode.parse(radius))


def load_metric_cover(obj, mode=EXACT):
    """The :class:`~poukit.spaces.BallIncidence` of a ball cover
    ``{"space": ..., "balls": {index: ball}}``: which balls contain each
    sample, decided once, for the cover and the partition alike."""
    space, balls = require_fields(obj, "a metric cover", "space", "balls")
    space = load_metric_space(space, mode)
    return space.incidence({a: load_ball(b, mode) for a, b in expect(balls, "balls").items()})


def load_ground(obj, mode=EXACT):
    if isinstance(obj, dict) and "min_open" in obj:
        return load_finite_space(obj)
    return load_metric_space(obj, mode)


def load_set_valued_map(obj, loaded=None):
    """The map ``obj`` encodes; ``loaded`` as for :func:`load_finite_space`."""
    domain, codomain, values = require_fields(
        obj, "a set-valued map", "domain", "codomain", "values"
    )
    domain = load_finite_space(domain, loaded)
    values = _keyed_by_points(_point_sets(values, "values"), domain.points, "domain points")
    if codomain == "discrete":  # the indices the values name
        codomain = FiniteSpace.discrete(set().union(*values.values()))
    elif isinstance(codomain, list):  # the index set, which values may not leave
        codomain = FiniteSpace.discrete(_point_set(codomain, "codomain"))
    else:
        codomain = load_finite_space(codomain, loaded)
    return SetValuedMap(domain, codomain, values)


def load_pou(obj, mode=EXACT):
    ground, indices, rows = require_fields(
        obj, "a partition of unity", "ground", "indices", "rows"
    )
    ground = load_ground(ground, mode)
    indices = _point_set(indices, "indices")
    if isinstance(ground, MetricSampleSpace):  # exactly the keys dump_pou writes
        points = {str(i): x for i, x in enumerate(ground.samples)}
    else:
        points = _by_str(ground.points, "ground points")
    index_of = _by_str(indices, "indices")  # an entry is keyed by its index's str
    loaded = {}
    for k, row in expect(rows, "rows").items():
        if k not in points:
            raise InputError(f"no ground point keyed {k!r}")
        entries = {index_of.get(a, a): v for a, v in expect(row, "entries").items()}
        loaded[points[k]] = load_sparse_vec({"entries": entries}, mode)
    try:
        return PartitionOfUnity(ground, indices, loaded)
    except RowNotSimplex as exc:  # named by its key, its entries as a report writes them
        k = next(k for k in rows if points[k] == exc.point)
        text = {str(a): format_scalar(v) for a, v in loaded[exc.point].entries.items()}
        raise RowNotSimplex(exc.point, json.dumps(text, sort_keys=True), json.dumps(k)) from None


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


def dump_complex(cx, max_dimension=None):
    """The vertices of ``cx`` and its simplices, up to ``max_dimension`` when
    a bound is given, as plain lists in the order
    :meth:`~poukit.nerve.SimplicialComplex.faces_by_size` lists them."""
    levels = cx.faces_by_size(max_dimension=max_dimension)
    return _complex_doc(cx, [list(s) for level in levels for s in level])


def complex_payload(cx, max_dimension=None):
    """:func:`dump_complex` as :func:`report_text` writes it, with each name
    quoted once here and the faces left to the writer; a tuple name is a
    JSON array, whose text depends on its indentation, so it gets lists."""
    if any(isinstance(v, tuple) for v in cx.vertices):
        return dump_complex(cx, max_dimension)
    names = {v: _quote(v) if type(v) is str else json.dumps(v) for v in cx.vertices}
    return _complex_doc(cx, _FaceBlock(cx, names, _dump_bound(max_dimension)))


def _complex_doc(cx, simplices):
    return {"vertices": sorted(cx.vertices, key=repr), "simplices": simplices,
            "witnessed": cx.witnessed}


class _FaceBlock:
    """The simplices of ``complex`` up to ``max_dimension``, unexpanded.  A
    plain class: a dataclass would add about 0.5 ms to every import."""

    __slots__ = ("complex", "names", "max_dimension")

    def __init__(self, cx, names, max_dimension):
        self.complex, self.names, self.max_dimension = cx, names, max_dimension


def load_convex_target(obj, mode=EXACT):
    ambient_dim, given = require_fields(obj, "a convex target", "ambient_dim", "sets")
    sets = {}
    for x, spec in expect(given, "sets").items():
        spec = dict(expect(spec, f"convex set at {x!r}"))
        for field in ("p", "a", "b", "lo", "hi"):
            if field in spec:
                spec[field] = _scalars(spec[field], f"{field} at {x!r}", mode)
        if "vertices" in spec:
            spec["vertices"] = _points(spec["vertices"], f"vertices at {x!r}", mode)
        sets[x] = spec
    return ConvexTarget(ambient_dim, sets)


_quote = json.encoder.encode_basestring_ascii


def report_text(doc):
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a final newline,
    byte for byte, for a document whose object keys are strings, with the
    simplices of :func:`complex_payload` as :func:`dump_complex` lists them.

    ``indent`` makes ``json.dumps`` use its pure-Python encoder.  Here the
    text, final newline included, is written as chunks to one list and
    joined once, so no container's text is copied into its parent's.  Each
    string goes through the C string encoder.  A :func:`complex_payload`'s
    faces are expanded only here, one chunk per level of ``faces_by_size``
    joined from each face's text, the only object made per face.  ``null``,
    ``true``, ``false``, ints and finite floats (by ``repr``) are written as
    ``json.dumps`` writes them; other scalars, such as ``inf``, ``nan`` or
    a float subclass, by ``json.dumps`` itself.
    """
    chunks = []
    _write(doc, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(obj, nl, put):
    """Put the text of ``obj`` in chunks; ``nl`` is the line break and
    indentation of the line it starts on."""
    if isinstance(obj, str):
        put(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            put(sep)
            _write(x, inner, put)
            sep = comma
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted(obj.items()):
            put(sep + _quote(k) + ": ")
            _write(v, inner, put)
            sep = comma
        put(nl + "}")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif type(obj) is int or type(obj) is float and math.isfinite(obj):
        put(repr(obj))
    elif isinstance(obj, _FaceBlock):
        inner = nl + "  "
        deeper = inner + "  "
        sep, between = "[" + inner + "[" + deeper, inner + "]," + inner + "[" + deeper
        for labels in obj.complex.faces_by_size(obj.names.__getitem__, obj.max_dimension):
            put(sep)
            put(between.join(map(("," + deeper).join, labels)))
            sep = between
        put(inner + "]" + nl + "]" if sep is between else "[]")
    else:
        put(json.dumps(obj))
