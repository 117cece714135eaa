"""The 0/1/2 exit-code contract on hostile copies of every shipped input.

Each example mutates one ``data/`` file a few times (deleted keys, type
swaps, strings for lists, huge, tiny and non-finite numbers, float
literals) and runs every command on it in both modes, in process.  An
exception escaping ``main`` or an exit code other than 0, 1 or 2 fails.
Exponents stop near 1e400, so that a tree without ``Mode.parse``'s exponent
bound fails here rather than hangs; ``test_cli``'s hostile-input table holds
the ``1e999999999`` literals.
"""

import contextlib
import io
import json
import pathlib

from hypothesis import given, settings, strategies as st

from poukit.cli import COMMANDS, main

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
DOCS = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}

NUMBERS = [1e200, -1e300, 1e308, "1e200", 10**400, "-1e400", "1e-400", 1e-300,
           float("nan"), float("inf"), 0, -1, 2, 0.3, "0.1", "1/3", "-0"]
OTHERS = [None, True, False, "", "a", "U0", "discrete", "polytope", [], {},
          ["0"], ["a", 5], [1e200, "0"], {"a": "1"}]


def _slots(doc):
    """``(container, key)`` of every value below the root, in document
    order; the slots of scalars come three times, so mutations favour
    them."""
    out = []
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out.extend(_slots(value) or [(doc, key)] * 2)
    return out


def mutate(doc, rng):
    """Delete, replace, stringify or wrap in a list one value of ``doc``."""
    slots = _slots(doc)
    if not slots:
        return
    container, key = rng.choice(slots)
    old = container[key]
    op = rng.choice(["replace"] * 3 + ["delete", "stringify", "wrap"])
    if op == "delete":
        del container[key]
    elif op == "replace":
        container[key] = rng.choice(NUMBERS * 3 + OTHERS)
    elif op == "stringify":
        container[key] = old if isinstance(old, str) else json.dumps(old)[:8]
    else:
        container[key] = list(old.values()) if isinstance(old, dict) else [old]


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=True))
def test_every_command_exits_0_1_or_2(tmp_path_factory, rng):
    name = rng.choice(sorted(DOCS))
    doc = json.loads(json.dumps(DOCS[name]))
    for _ in range(rng.randint(1, 2)):
        mutate(doc, rng)
    path = tmp_path_factory.mktemp("hostile") / name
    path.write_text(json.dumps(doc))
    for command in sorted(COMMANDS):
        for mode in ("exact", "float"):
            code = run([command, str(path), "--mode", mode])
            assert code in (0, 1, 2), (command, mode, code)
