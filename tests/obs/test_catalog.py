"""The span/counter/histogram catalog in docs/OBSERVABILITY.md matches the code.

The code side is collected statically: every string literal (f-strings
become ``*`` patterns) passed to an emitter — ``trace_span``, ``span``,
``add_span``, ``add_count``, ``count``, ``observe``, and the transport's
``_fire`` drill helper — anywhere under ``src/repro``. The docs side is
every backticked name in the first column of the catalog tables, with
``<placeholder>`` segments read as ``*``. A name matches when it is equal
to, or matched by the pattern of, a name on the other side.

* Every emitted name must be catalogued.
* Every catalogued name must be emitted — or, for names routed through a
  variable (the scoreboard's counter table), at least appear as a string
  constant in the code.
"""

import ast
import re
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "OBSERVABILITY.md"

EMITTERS = {
    "trace_span", "span", "add_span", "add_count", "count", "observe", "_fire",
}
NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_*]+)+$")


def _literal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "*" for v in node.values
        )
    return None


def _callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _scan_code() -> tuple[dict[str, str], set[str]]:
    """(emitted name -> first site, every metric-shaped string constant)."""
    emitted: dict[str, str] = {}
    constants: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if NAME.match(node.value):
                    constants.add(node.value)
            if not (isinstance(node, ast.Call) and _callee(node) in EMITTERS):
                continue
            for arg in node.args:
                name = _literal(arg)
                if name is not None and NAME.match(name):
                    site = f"{path.relative_to(ROOT)}:{node.lineno}"
                    emitted.setdefault(name, site)
    return emitted, constants


def _scan_doc() -> set[str]:
    names = set()
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first_cell):
            names.add(re.sub(r"<[^>]+>", "*", name))
    return names


def _matches(a: str, b: str) -> bool:
    return a == b or fnmatchcase(a, b) or fnmatchcase(b, a)


def test_every_emitted_name_is_catalogued():
    emitted, _ = _scan_code()
    documented = _scan_doc()
    missing = sorted(
        f"{name} ({site})"
        for name, site in emitted.items()
        if not any(_matches(name, d) for d in documented)
    )
    assert not missing, "uncatalogued in docs/OBSERVABILITY.md: " + ", ".join(missing)


def test_every_catalogued_name_exists_in_code():
    emitted, constants = _scan_code()
    known = set(emitted) | constants
    stale = sorted(
        d for d in _scan_doc() if not any(_matches(d, c) for c in known)
    )
    assert not stale, "catalogued but never emitted: " + ", ".join(stale)


def test_scanner_sees_the_pool_round():
    # Guards the scanner itself: a regex that silently matched nothing
    # would pass both directions vacuously.
    emitted, _ = _scan_code()
    for name in ("pool.wait", "pool.dispatch", "pool.worker", "fault.injected",
                 "native.fallback.*", "reexec.*.items"):
        assert name in emitted, name
