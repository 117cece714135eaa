"""Every property test is derandomized, so each run draws the same examples.
Two rules, read from the syntax trees of the test files: a ``settings(...)``
decorator sets ``derandomize=True``, and a ``@given`` test carries such a
decorator or ``@derandomized(...)``.  The same examples are drawn only under
the same hypothesis release, so the ``test`` extra pins the versions the CI
workflow installs."""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent


def decorator_calls():
    """``(where, calls)`` for each function or class in the test files that
    has a decorator with arguments, ``calls`` those decorators."""
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            calls = [d for d in getattr(node, "decorator_list", ()) if isinstance(d, ast.Call)]
            if calls:
                yield f"{path.relative_to(TESTS)}:{node.lineno}: {node.name}", calls


def name(call):
    """``settings`` for both ``settings(...)`` and ``hypothesis.settings(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def derandomizes(call):
    return name(call) == "derandomized" or name(call) == "settings" and any(
        k.arg == "derandomize" and getattr(k.value, "value", None) is True
        for k in call.keywords)


def test_every_settings_decorator_derandomizes():
    bad = [where for where, calls in decorator_calls()
           for call in calls if name(call) == "settings" and not derandomizes(call)]
    assert bad == []


def test_every_given_test_is_derandomized():
    bad = [where for where, calls in decorator_calls()
           if "given" in map(name, calls) and not any(map(derandomizes, calls))]
    assert bad == []


def test_the_test_extra_pins_what_ci_installs():
    extra = re.search(r"^test = (\[.*?\])$", (ROOT / "pyproject.toml").read_text(), re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = [line.split() for line in re.findall(r"pip install (.*)", workflow)]
    ci = next(pins for pins in installs if any(p.startswith("pytest") for p in pins))
    assert sorted(ast.literal_eval(extra[1])) == sorted(ci)
    assert all("==" in pin for pin in ci)
