"""Command-line front end: load JSON artifacts, run constructions and
verifications, emit machine-readable reports with CI-friendly exit codes.

Usage: ``poukit COMMAND INPUT [--mode exact|float] [--seed INT] [--out PATH]
[--max-dim INT]``.  :func:`parse_argv` reads argv in one pass against the
table ``FLAGS``: a flag takes its value as ``--flag value`` or
``--flag=value``, before, between or after the positionals, and the last
one given counts.  Flags are not abbreviated, and ``--`` is no separator.

Exit codes: 0 all checks passed (or pure construction succeeded), 1 at least
one check failed, 2 malformed input or a bad command line; ``-h`` prints the
help and exits 0.  Reports are deterministic for a fixed
input and flags: they embed the config (``--seed`` is recorded only, it
seeds nothing) and content digests of the inputs, and carry no timestamps.
"""

import hashlib
import json
import re
import sys
import types

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
    can = canonical_map_check(pou, cover)
    key = str if incidence is None else _sample_key(incidence)
    report.check("canonical", can.canonical, _canonical_witness(can, key))
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
            None if can.canonical else _canonical_witness(can, _sample_key(incidence)),
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
    """A ``(kind, sample)`` witness, the sample written by its key."""
    kind, x = witness
    return [kind, _sample_key(incidence)(x)]


def _sample_key(incidence):
    """The key of a sample of ``incidence.space``, its position as a string:
    the key ``jsonio`` uses for metric ground points."""
    samples = incidence.space.samples
    return lambda x: str(samples.index(x))


def _canonical_witness(can, key):
    """The outcome of a canonical check, each point written as ``key(point)``
    and each star violation as ``[index, key(point)]``, in the order of
    ``can``'s lists."""
    return {
        "canonical": can.canonical,
        "membership_violations": [key(x) for x in can.membership_violations],
        "star_violations": [[str(a), key(x)] for a, x in can.star_violations],
    }


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


def _mode_name(text):
    """``text`` if it names a mode, else ValueError."""
    if text in ("exact", "float"):
        return text
    raise ValueError(text)


# flag: (field of args, default, parser of its text, what it takes, what it does)
FLAGS = {
    "--mode": ("mode", "exact", _mode_name, "exact|float", "how scalars are read"),
    "--seed": ("seed", 0, int, "INT", "recorded in the report; it seeds nothing"),
    "--out": ("out", None, str, "PATH", "write the report here, not to stdout"),
    "--max-dim": ("max_dim", MAX_DIMENSION, int, "INT",
                  "the largest simplex dimension a nerve dump lists"),
}
_DEFAULTS = {field: default for field, default, *_ in FLAGS.values()}
_USAGE = "usage: poukit COMMAND INPUT [-h] " + " ".join(
    f"[{flag} {takes}]" for flag, (_, _, _, takes, _) in FLAGS.items()) + "\n"
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")  # argparse's negative numbers


def _is_value(token):
    """Whether an argv token that is no flag is a value, as argparse reads
    it: it does not start with ``-``, or it is ``-``, a negative number or
    a token with a space."""
    return token[:1] != "-" or token == "-" or " " in token or _NEGATIVE.match(token) is not None


def parse_argv(argv):
    """The namespace ``main`` runs: ``command``, ``input`` and one field per
    entry of ``FLAGS``, read in one pass over ``argv``.  A flag takes its
    value as ``--flag value`` or ``--flag=value`` anywhere, and the last
    one given counts.  ``-h`` or ``--help`` prints the help and raises
    ``SystemExit(0)``.  An unknown command, a bad or missing value, a
    missing positional, a third one or an unknown flag writes the usage and
    ``poukit: error: ...`` to stderr and raises ``SystemExit(2)``; unknown
    flags and extra positionals are reported together at the end."""
    args = types.SimpleNamespace(**_DEFAULTS)
    positionals, extras = [], []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        spec = FLAGS.get(name)
        if spec is not None:
            field, _, parse, takes, _ = spec
            if not eq:
                value = next(tokens, None)
                if value is None or not _is_value(value):
                    _argv_error(f"{name} needs a value")
            try:
                setattr(args, field, parse(value))
            except ValueError:
                _argv_error(f"{name} takes {takes}, not {value!r}")
        elif name in ("-h", "--help"):
            if eq:
                _argv_error(f"{name} takes no value")
            sys.stdout.write(_help())
            raise SystemExit(EXIT_OK)
        elif not _is_value(token) or len(positionals) == 2:
            extras.append(token)
        elif positionals or token in COMMANDS:
            positionals.append(token)
        else:
            _argv_error(f"unknown command {token!r}; the commands are {', '.join(sorted(COMMANDS))}")
    if len(positionals) < 2:
        _argv_error("a command and an input file are required")
    if extras:
        _argv_error(f"unrecognized arguments: {' '.join(extras)}")
    args.command, args.input = positionals
    return args


def _argv_error(message):
    sys.stderr.write(f"{_USAGE}poukit: error: {message}\n")
    raise SystemExit(EXIT_PARSE_ERROR)


def _help():
    flags = [("-h, --help", "print this help and exit")] + [
        (f"{flag} {takes}", does if default is None else f"{does} (default: {default})")
        for flag, (_, default, _, takes, does) in FLAGS.items()]
    return (
        f"{_USAGE}\nverify partitions of unity, covers, nerves, and selections\n\n"
        f"COMMAND is one of: {', '.join(sorted(COMMANDS))}\n"
        "INPUT is the JSON input file.\n\n"
        "A flag takes its value as --flag VALUE or --flag=VALUE, before, between\n"
        "or after COMMAND and INPUT; the last one given counts.\n"
        + "".join(f"  {left:<22}{right}\n" for left, right in flags)
    )


def main(argv=None):
    args = parse_argv(sys.argv[1:] if argv is None else argv)
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
