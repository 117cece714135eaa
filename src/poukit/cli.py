"""Command-line front end: load JSON artifacts, run constructions and
verifications, emit machine-readable reports with CI-friendly exit codes.

Exit codes: 0 all checks passed (or pure construction succeeded), 1 at least
one check failed, 2 malformed input.  Reports are deterministic for a fixed
input and flags: they embed the config (``--seed`` is recorded only, it
seeds nothing) and content digests of the inputs, and carry no timestamps.
"""

import argparse
import functools
import hashlib
import json
import sys

from . import jsonio, scalars
from .errors import CoverGap, InputError, PoukitError, SelfCheckFailed, TailTooLarge
from .nerve import MAX_DIMENSION, canonical_map_check, nerve_from_cover
from .pou import mather_compose, pou_from_incidence, subordination_check
from .selection import epsilon_selection
from .setmaps import _closed_value_masks, classify, incidence_cover
from .sparse import _as_extended, mather_eta, mather_lambda, mather_support_bound

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2


_DECODER = json.JSONDecoder(parse_float=str)  # a decimal is read as its text


def _load(path):
    """The SHA-256 digest and the JSON document of the file at ``path``,
    read once: ``json.loads(text, parse_float=str)``, with one decoder for
    every call."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode()
        if text.startswith("\ufeff"):  # as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return hashlib.sha256(raw).hexdigest(), _DECODER.decode(text)
    # no file, bad JSON, bad UTF-8, a 5000-digit integer, nesting deeper than the stack
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


class Report:
    def __init__(self, command, config, inputs):
        self.command = command
        self.config = config
        self.inputs = inputs
        self.checks = []
        self.payload = {}

    def check(self, name, ok, witness=None):
        self.checks.append(
            {
                "name": name,
                "status": "pass" if ok else "fail",
                "witness": witness,
            }
        )

    @property
    def failed(self):
        return any(c["status"] == "fail" for c in self.checks)

    def to_json(self):
        doc = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "checks": self.checks,
            "overall": "fail" if self.failed else "pass",
            "payload": self.payload,
        }
        return jsonio.report_text(doc)


def _emit(report, out):
    text = report.to_json()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_space_validate(doc, args, report, mode):
    space = jsonio.load_finite_space(doc)
    report.check("space-valid", True)
    report.payload["space"] = jsonio.dump_finite_space(space)


def cmd_map_classify(doc, args, report, mode):
    phi = jsonio.load_set_valued_map(doc)
    rep = classify(phi)
    report.payload["classification"] = rep.to_dict()
    # classification itself never fails; only consistency of the hierarchy does
    ok = _diagram_holds(rep)
    witnesses = report.payload["classification"]["witnesses"]
    report.check("hierarchy-consistent", ok, None if ok else witnesses)


def _diagram_holds(rep):
    """An open graph is totally lsc, and a totally lsc map is lsc."""
    return (not rep.open_graph or rep.totally_lsc) and (not rep.totally_lsc or rep.lsc)


def cmd_pou_build(doc, args, report, mode):
    pou = pou_from_incidence(jsonio.load_metric_cover(doc, mode))
    report.check("pou-built", True)
    report.payload["pou"] = jsonio.dump_pou(pou)


def cmd_pou_verify(doc, args, report, mode):
    pou = jsonio.load_pou(doc, mode)
    report.check("pou-valid", True)
    report.payload["indices"] = sorted(pou.index_set, key=repr)


def cmd_mather(doc, args, report, mode):
    y = _as_extended(jsonio.load_sparse_vec(doc, mode))
    lam, eta, (bound, radius) = mather_lambda(y), mather_eta(y), mather_support_bound(y)
    l1 = eta.norm1()
    ok = scalars.is_one(l1)
    report.check("eta-on-simplex", ok, None if ok else {"eta_l1": scalars.format_scalar(l1)})
    report.payload["lambda"] = jsonio.dump_sparse_vec(lam)
    report.payload["eta"] = jsonio.dump_sparse_vec(eta)
    report.payload["support_bound"] = {
        "indices": sorted(bound, key=repr),
        "radius": scalars.format_scalar(radius),
    }


def _load_cover_input(obj, mode):
    """``(incidence, cover)`` of a ball cover, ``(None, cover)`` of an
    indexed one."""
    if isinstance(obj, dict) and "balls" in obj:
        incidence = jsonio.load_metric_cover(obj, mode)
        return incidence, incidence_cover(incidence)
    return None, jsonio.load_set_valued_map(obj)


def cmd_nerve_build(doc, args, report, mode):
    _, cover = _load_cover_input(doc, mode)
    report.payload["complex"] = jsonio.complex_payload(nerve_from_cover(cover), args.max_dim)
    report.check("nerve-built", True)


def cmd_canonical_check(doc, args, report, mode):
    (cover,) = jsonio.require_fields(doc, "a canonical-check input", "cover")
    incidence, cover = _load_cover_input(cover, mode)
    if incidence is not None:
        pou = pou_from_incidence(incidence)
    else:
        (pou,) = jsonio.require_fields(doc, "a canonical-check input", "pou")
        pou = jsonio.load_pou(pou, mode)
    cx_report = canonical_map_check(pou, cover)
    report.check("canonical", cx_report.canonical, cx_report.to_dict())
    report.payload["nerve"] = jsonio.complex_payload(nerve_from_cover(cover), args.max_dim)


def _load_selection_input(obj):
    """Target, epsilon and anchors of one epsilon-selection problem, all in
    float mode."""
    target, eps, anchors = jsonio.require_fields(
        obj, "a selection problem", "target", "epsilon", "anchors"
    )
    target, eps = jsonio.load_convex_target(target, scalars.FLOAT), scalars.FLOAT.parse(eps)
    return target, eps, jsonio._points(anchors, "anchors", scalars.FLOAT)


def cmd_select_eps(doc, args, report, mode):
    target, eps, anchors = _load_selection_input(doc)
    try:
        values, certs = epsilon_selection(target, eps, anchors)
    except (CoverGap, SelfCheckFailed) as exc:
        report.check("epsilon-bound", False, _violation(exc, eps))
        return
    report.check("epsilon-bound", True)
    report.payload["selection"] = {
        str(x): {
            "value": [repr(float(c)) for c in v],
            "distance": repr(float(certs[x].distance_bound)),
            "epsilon": repr(float(eps)),
        }
        for x, v in values.items()
    }


def _verify_unit_vector(report, name, y):
    """The transform's invariants: eta has l1 mass one (``scalars.is_one``),
    its carrier stays inside that of ``y``, and it has at most ``2 / sup``
    indices.  A failed check names each broken invariant with its value; a
    tail certificate too weak for the transform fails with ``tail_sup`` and
    ``sup/2``."""
    y = _as_extended(y)
    fmt = scalars.format_scalar
    try:
        eta = mather_eta(y)
    except TailTooLarge:
        broken = {"tail_sup": fmt(y.tail_sup), "sup/2": fmt(y.sup_norm() / 2)}
    else:
        l1, car = eta.norm1(), eta.carrier()
        size_times_sup = len(car) * y.sup_norm()
        broken = {}
        if not scalars.is_one(l1):
            broken["eta_l1"] = fmt(l1)
        if not car <= y.explicit.carrier():
            broken["eta_carrier_outside"] = sorted(map(repr, car - y.explicit.carrier()))
        if size_times_sup > 2:
            broken["carrier_size_times_sup"] = fmt(size_times_sup)
    report.check(f"{name}:mather-invariants", not broken, broken or None)


def cmd_verify_all(doc, args, report, mode):
    bundle = jsonio.expect(doc, "a verify-all bundle")
    loaded = {}  # a bundle repeats a space wherever a map or cover names it

    for i, obj in _section(bundle, "spaces"):
        bad = _kuratowski_witness(jsonio.load_finite_space(obj, loaded))
        report.check(f"space[{i}]:kuratowski", bad is None, bad)

    for i, obj in _section(bundle, "unit_vectors"):
        y = jsonio.load_sparse_vec(obj, mode)
        _verify_unit_vector(report, f"unit_vector[{i}]", y)

    for i, obj in _section(bundle, "maps"):
        phi = jsonio.load_set_valued_map(obj, loaded)
        rep = classify(phi)
        diagram = _diagram_holds(rep)
        collapse = rep.lower_locally_constant == rep.totally_lsc
        witnesses = rep.to_dict()["witnesses"]
        report.check(f"map[{i}]:diagram", diagram, None if diagram else witnesses)
        report.check(
            f"map[{i}]:llc-collapse", collapse, None if collapse else witnesses
        )

    for i, obj in _section(bundle, "covers"):
        omega = jsonio.load_set_valued_map(obj, loaded)
        if not omega.is_discrete_codomain():
            raise InputError(f"covers[{i}] has a codomain that is not discrete")
        try:
            _closed_value_masks(omega)  # cross-checks the fiberwise and pointwise formulas
            report.check(f"cover[{i}]:closure-formulas", True)
        except SelfCheckFailed as exc:
            report.check(f"cover[{i}]:closure-formulas", False, str(exc))

    for i, obj in _section(bundle, "metric_covers"):
        incidence = jsonio.load_metric_cover(obj, mode)
        pou, cover = pou_from_incidence(incidence), incidence_cover(incidence)
        sub = subordination_check(pou, cover)
        ok = sub["index_subordinated"]
        report.check(
            f"metric_cover[{i}]:index-subordinated",
            ok,
            None if ok else _sample_witness(incidence, sub["witness"]),
        )
        can = canonical_map_check(pou, cover)
        report.check(
            f"metric_cover[{i}]:canonical",
            can.canonical,
            None if can.canonical else can.to_dict(),
        )
        gamma, _ = mather_compose(pou)
        # gamma's rows are in ground_points() order, as mather_compose builds them
        escape = next(
            (
                x
                for x, r in gamma.rows.items()
                if not r.entries.keys() <= pou.carrier_at(x)
            ),
            None,
        )
        report.check(
            f"metric_cover[{i}]:carrier-shrinks",
            escape is None,
            None if escape is None else _sample_witness(incidence, ("carrier escapes", escape)),
        )

    for i, obj in _section(bundle, "targets"):
        target, eps, anchors = _load_selection_input(obj)
        try:
            epsilon_selection(target, eps, anchors)
            report.check(f"target[{i}]:epsilon-bound", True)
        except (CoverGap, SelfCheckFailed) as exc:
            report.check(f"target[{i}]:epsilon-bound", False, _violation(exc, eps))


def _section(bundle, name):
    """``(i, item)`` over the list ``bundle[name]``, empty when absent."""
    return enumerate(jsonio.expect(bundle.get(name, []), f"verify-all section {name!r}", name))


def _violation(exc, eps):
    """A target point with no anchor within epsilon as ``["no anchor within
    epsilon", point, epsilon]``; a violated selection certificate as
    ``["certificate violated", point, distance, epsilon, active anchors]``;
    any other self-check as its text."""
    if isinstance(exc, CoverGap):
        return ["no anchor within epsilon", str(exc.point), repr(float(eps))]
    c = exc.certificate
    return str(exc) if c is None else [
        "certificate violated", str(c.point), repr(float(c.distance_bound)),
        repr(float(eps)), list(c.active_anchors)]


def _sample_witness(incidence, witness):
    """A ``(kind, sample)`` witness, the sample written as its position in
    ``incidence.space``: the key ``jsonio`` uses for metric ground points."""
    kind, x = witness
    return [kind, str(incidence.space.samples.index(x))]


def _kuratowski_witness(space):
    """``repr`` of the first point p, by ``repr``, with p outside cl{p} or
    cl(cl{p}) != cl{p}, else None.  ``closure`` is additive and maps the
    empty set to itself, so singletons decide all four axioms.  The sets are
    masks over the space's ``repr`` order: cl{p} is read as ``down[p]``, and
    cl(cl{p}) is one OR of the closures of its points."""
    ix = space._index()
    for p, b, c in zip(ix.order, ix.bits, ix.down):
        if not c & b or ix.closure(c) != c:
            return repr(p)
    return None


COMMANDS = {
    "space-validate": cmd_space_validate,
    "map-classify": cmd_map_classify,
    "pou-build": cmd_pou_build,
    "pou-verify": cmd_pou_verify,
    "mather": cmd_mather,
    "nerve-build": cmd_nerve_build,
    "canonical-check": cmd_canonical_check,
    "select-eps": cmd_select_eps,
    "verify-all": cmd_verify_all,
}


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers must not mutate it.  ``parse_args``
    leaves it unchanged, so no flag value reaches the next call."""
    parser = argparse.ArgumentParser(
        prog="poukit",
        description="verify partitions of unity, covers, nerves, and selections",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="JSON input file")
    parser.add_argument("--mode", choices=["exact", "float"], default="exact")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--max-dim", type=int, default=MAX_DIMENSION)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = {
        "mode": args.mode,
        "seed": args.seed,
        "tol_sum": scalars.TOL,
        "max_dim": args.max_dim,
    }
    mode = scalars.EXACT if args.mode == "exact" else scalars.FLOAT
    try:
        digest, doc = _load(args.input)
        report = Report(args.command, config, {args.input: digest})
        COMMANDS[args.command](doc, args, report, mode)
        return _emit(report, args.out)
    except InputError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_PARSE_ERROR
    except PoukitError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
