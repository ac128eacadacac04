"""Every public name earns its place.

A public name is an entry of a module's `__all__` or a method, without a
leading underscore, of a class defined in src/moca/.  Each must be read by
code outside the tests, in a file of src/moca/ (not the package `__init__`,
which only re-exports), scripts/ or perfbench/.  An `__all__` name is read
by an `ast.Name` or an `ast.Attribute` of that name; a method by an
`ast.Attribute`.  Only code counts, so the files are read with `ast`:
definitions, assignments, `__all__` strings, docstrings, comments and the
literal text of f-strings are not reads, while a name inside an f-string's
braces is.  A name that only tests use stays only with a reason in
TEST_ONLY, keyed by name or by `Class.method`: a planned caller with its
ROADMAP item, a test oracle, or a name an acceptance criterion checks.
"""

import ast
import pathlib

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
    "Pattern.shift": "test oracle: replay_oracle in test_linear_ca reads sites through it",
    "AlgElem.coeff": "the Scalar exit of an element that the algebra docstring names",
    "BudgetExceeded.required": "exception payload that the budget tests read",
}


def _reads(source):
    """(names, attributes) that the code of `source` reads."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def _code_reads():
    """_reads over every file outside the tests that may hold a caller."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [p for folder in ("scripts", "perfbench") for p in (ROOT / folder).glob("*.py")]
    names, attributes = set(), set()
    for path in paths:
        n, a = _reads(path.read_text(encoding="utf-8"))
        names |= n
        attributes |= a
    return names, attributes


def _public():
    """(label, TEST_ONLY key, whether a Name read counts) for each public
    name: the `__all__` entries, then the public methods of each class."""
    for path in sorted(SRC.glob("*.py")):
        module = "moca" if path.stem == "__init__" else f"moca.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    yield f"{module}.{name}", name, True
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        key = f"{node.name}.{item.name}"
                        yield f"{module}.{key}", key, False


def _is_read(key, as_name, names, attributes):
    name = key.rpartition(".")[2]
    return name in attributes or (as_name and name in names)


def test_every_public_name_has_a_caller_or_a_reason():
    names, attributes = _code_reads()
    orphans = [label for label, key, as_name in _public()
               if key not in TEST_ONLY and not _is_read(key, as_name, names, attributes)]
    assert orphans == []


def test_every_reason_is_still_needed():
    names, attributes = _code_reads()
    public = {key: as_name for _, key, as_name in _public()}
    assert [key for key in TEST_ONLY
            if key not in public or _is_read(key, public[key], names, attributes)] == []


FIXTURE = '''
"""in_docstring is named here."""
# in_comment is named here
__all__ = ["in_all"]
PROSE = "in_string"
assigned = 1


class Defined:
    def method(self, n):
        return f"in_fstring_text {braced_name} {obj.braced_attr}"
'''


def test_only_code_is_a_read():
    names, attributes = _reads(FIXTURE)
    assert names == {"braced_name", "obj"}
    assert attributes == {"braced_attr"}
