import ast
from pathlib import Path

import levylab

# No caller in src yet: the pairing contradiction is still to be wired into `all`.
UNCALLED_ALLOWED = {"contradiction_report"}


def test_every_public_name_resolves():
    assert len(levylab.__all__) == len(set(levylab.__all__))
    missing = [name for name in levylab.__all__ if not hasattr(levylab, name)]
    assert missing == []


def _referenced_names(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _names_used_in_src() -> set[str]:
    """Names each top-level definition of the package references, other than
    its own; re-exports in __init__ aside."""
    used = set()
    for path in Path(levylab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            own = getattr(node, "name", None)
            used.update(name for name in _referenced_names(node) if name != own)
    return used


def test_every_public_name_has_a_caller_in_src():
    # one route per quantity: a public name that nothing in the package uses
    # is a second route or dead code
    public = set(levylab.__all__)
    assert sorted(public - _names_used_in_src() - UNCALLED_ALLOWED) == []


def test_uncalled_allowlist_is_current():
    # an allowed name that left __all__ or gained a caller must leave the list
    assert sorted(UNCALLED_ALLOWED - set(levylab.__all__)) == []
    assert sorted(UNCALLED_ALLOWED & _names_used_in_src()) == []
