"""Every public name earns its place.

Each name in a module's `__all__` must be named outside the tests: on a
line of src/moca/ that is neither its definition nor its `__all__` entry,
or in a file under scripts/ or perfbench/.  The package `__init__` only
re-exports, so its lines do not count.  A name that only tests use stays
only with a reason in TEST_ONLY: a planned caller with its ROADMAP item, a
test oracle, or a name an acceptance criterion checks.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moca"
TEST_ONLY = {
    "mat_zero": "test oracle: the zero matrix of the flattening and linear-rule tests",
    "action_law_suite": "acceptance criterion 4 runs it",
    "lca_min_memory": "acceptance criterion 5 checks it",
    "lca_dependence_scan": "acceptance criterion 5 checks it",
    "unflatten": "planned caller: ROADMAP item 7's `finiteness invert`",
    "lca_injective_surjective": "planned caller: ROADMAP item 9's oracle",
    "monoid_directly_finite": "planned callers: ROADMAP items 12 and 13",
}
ALL_BLOCK = re.compile(r"^__all__ = \[.*?^\]", re.M | re.S)


def _public():
    """(module, name) for every name in a module's `__all__`."""
    for path in sorted(SRC.glob("*.py")):
        module = "moca" if path.stem == "__init__" else f"moca.{path.stem}"
        for name in getattr(importlib.import_module(module), "__all__", ()):
            yield module, name


def _named_outside_tests(name):
    word = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"(?:def|class)\s+{name}\b|{name}\s*=")
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for line in ALL_BLOCK.sub("", path.read_text(encoding="utf-8")).splitlines():
            if word.search(line) and not definition.match(line):
                return True
    return any(word.search(path.read_text(encoding="utf-8"))
               for folder in ("scripts", "perfbench")
               for path in (ROOT / folder).glob("*.py"))


def test_every_public_name_has_a_caller_or_a_reason():
    orphans = [f"{module}.{name}" for module, name in _public()
               if name not in TEST_ONLY and not _named_outside_tests(name)]
    assert orphans == []


def test_every_reason_is_still_needed():
    public = {name for _, name in _public()}
    assert [name for name in TEST_ONLY
            if name not in public or _named_outside_tests(name)] == []
