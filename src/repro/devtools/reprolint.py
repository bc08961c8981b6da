"""``reprolint`` — an AST-based determinism-invariant static analyzer.

The analyzer enforces the repository's reproducibility contracts over
``src/repro`` (see DESIGN.md for the full catalogue):

``D1`` (``unseeded-rng``)
    No ``random.*`` module-level global-state calls, no unseeded
    ``random.Random()`` / ``np.random.default_rng()``, and no
    ``np.random.*`` legacy global state (``seed``/``rand``/``RandomState``
    ...) anywhere outside ``sim/rng.py``.  All randomness must flow from
    the named, seeded streams of :class:`repro.sim.rng.RngFactory`.

``D2`` (``wall-clock``)
    No nondeterminism sources — ``time.time``, ``datetime.now``,
    ``os.urandom``, ``uuid.uuid4``, environment reads — inside the
    deterministic core (``core/``, ``mobility/``, ``wireless/``,
    ``surveillance/``, ``sim/``).  The stores and the CLI are outside that
    scope and may read clocks for provenance.

``D3`` (``unsorted-iteration``)
    No iteration-order hazards: ``for``/comprehensions over a bare ``set``
    (literal, constructor, or set-algebra expression over ``dict.keys()``),
    and no ``os.listdir`` / ``glob.glob`` / ``Path.iterdir`` style
    filesystem enumeration without an immediate ``sorted(...)``.

``D4`` (``float-equality``)
    No ``==`` / ``!=`` against float literals (or ``float(...)`` calls) —
    use :func:`math.isclose`.  Intentional exact-sentinel comparisons
    (e.g. ``loss_probability == 0.0`` selecting the lossless fast path)
    carry an explicit justified suppression.

``D5`` (``raw-write``)
    No raw ``open(..., "w")`` writes in ``experiments/``: results and
    manifests go through the crash-safe atomic-write helpers so a crash
    can never leave a half-written file.

``S1`` (``registry-roundtrip``)
    A semantic check (not AST): every class reachable from the
    builder/profile/config registries must have a *total*
    ``to_dict``/``from_dict`` field round-trip.  Implemented in
    :mod:`repro.devtools.registry_check`.

Suppressions are per line and must carry a justification::

    x == 0.3  # repro-lint: ignore[D4] -- exact sentinel: default means "unset"

A suppression with no justification, naming an unknown rule, or matching
no finding is itself reported (rule ``X1``) — the escape hatch stays
honest.  The comment may sit on the flagged line or on the line
immediately above it.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "Rule",
    "Finding",
    "LintReport",
    "RULES",
    "lint_paths",
    "lint_file",
    "main",
]


# ------------------------------------------------------------------ rule table
@dataclass(frozen=True)
class Rule:
    """One statically checkable invariant."""

    id: str
    name: str
    summary: str


RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule("D1", "unseeded-rng", "all randomness flows from seeded named streams"),
        Rule("D2", "wall-clock", "no nondeterminism sources in the deterministic core"),
        Rule("D3", "unsorted-iteration", "no iteration-order hazards"),
        Rule("D4", "float-equality", "no float == / != (use math.isclose)"),
        Rule("D5", "raw-write", "no non-atomic writes in experiments/"),
        Rule("S1", "registry-roundtrip", "registered configs round-trip totally"),
        Rule("X1", "suppression", "suppression comments are well-formed and used"),
    )
}

_NAME_TO_ID: Dict[str, str] = {rule.name: rule.id for rule in RULES.values()}

#: Directories (relative to the package root) forming the deterministic core
#: — the scope of rule D2.  ``service`` is in scope because the job server
#: decides what runs and what it produces (run ids, event sequences, status
#: documents), all of which must replay bit-for-bit.
_D2_SCOPE = ("core", "mobility", "wireless", "surveillance", "sim", "service")

#: Files inside the D2 scope exempt from rule D2.  ``service/http.py`` is
#: the service's transport layer only: its sole wall-clock use is
#: ``time.monotonic`` keepalive deadlines on idle NDJSON streams (so
#: proxies do not drop quiet connections) — timing that never reaches a
#: run, an event payload, or a stored result.  The deterministic layers
#: beneath it (``service/jobs.py``, ``service/events.py``,
#: ``service/api.py``) stay fully in scope.
_D2_EXEMPT = ("service/http.py",)

#: The one module allowed to own RNG construction (rule D1 exemption).
_D1_EXEMPT = ("sim/rng.py",)

#: ``np.random.*`` attributes that are types/constructors, not legacy global
#: state.  ``default_rng`` is handled separately (it must receive a seed).
_NP_RANDOM_OK = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Fully qualified callables that read wall clocks / ambient entropy (D2).
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getenv",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Attribute accesses (no call needed) that are nondeterminism sources (D2).
_WALL_CLOCK_ATTRS = {"os.environ"}

#: Filesystem enumeration callables whose order is OS-dependent (D3).
_FS_ENUM_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}

#: Method names whose receivers are (by convention) ``pathlib.Path`` objects
#: and enumerate the filesystem in OS-dependent order (D3).
_FS_ENUM_METHODS = {"iterdir", "rglob"}


# ------------------------------------------------------------------- findings
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def rule_name(self) -> str:
        return RULES[self.rule].name

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (stable schema, see ``reprolint-report/1``)."""
        return {
            "rule": self.rule,
            "name": self.rule_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}[{self.rule_name}] {self.message}"


@dataclass
class LintReport:
    """The result of one lint invocation."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready report, schema tag ``reprolint-report/1``."""
        return {
            "format": "reprolint-report/1",
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "findings": [f.as_dict() for f in self.findings],
            "rules": {
                rule.id: {"name": rule.name, "summary": rule.summary}
                for rule in RULES.values()
            },
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        verdict = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"reprolint: {verdict} in {self.files_checked} file(s)"
            f" ({self.suppressed} suppressed)"
        )
        return "\n".join(lines)


# -------------------------------------------------------------- suppressions
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore\[([^\]]*)\]\s*(?:--\s*(\S.*))?"
)


@dataclass
class _Suppression:
    """One ``# repro-lint: ignore[...]`` comment."""

    line: int
    rules: Tuple[str, ...]  # raw tokens as written (ids or names)
    justification: Optional[str]
    used: Set[str] = field(default_factory=set)

    def resolve(self, token: str) -> Optional[str]:
        """The rule id a suppression token names (``D4`` or ``float-equality``)."""
        token = token.strip()
        if token in RULES:
            return token
        return _NAME_TO_ID.get(token)

    def covers(self, rule_id: str) -> bool:
        return any(self.resolve(token) == rule_id for token in self.rules)


def _collect_suppressions(source: str) -> Dict[int, _Suppression]:
    """Suppression comments by physical line number."""
    out: Dict[int, _Suppression] = {}
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse
        return out  # errors are reported by ast.parse with a better message
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        rules = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
        justification = match.group(2)
        out[tok.start[0]] = _Suppression(
            line=tok.start[0],
            rules=rules,
            justification=justification.strip() if justification else None,
        )
    return out


# ------------------------------------------------------------- the AST pass
class _ImportMap:
    """Resolves names/attribute chains to fully qualified dotted names.

    Only imports seen in the module feed the map, so a local variable that
    happens to be called ``random`` never resolves to the stdlib module.
    """

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    def record(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self._names[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                self._names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, e.g. ``np.random.seed`` ->
        ``numpy.random.seed`` — or None when the root isn't an import."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._names.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class _FileScope:
    """Which rules apply to the file being linted."""

    relpath: str  # posix, relative to the package root

    @property
    def d1(self) -> bool:
        return self.relpath not in _D1_EXEMPT

    @property
    def d2(self) -> bool:
        first = self.relpath.split("/", 1)[0]
        return first in _D2_SCOPE and self.relpath not in _D2_EXEMPT

    @property
    def d5(self) -> bool:
        return self.relpath.split("/", 1)[0] == "experiments"


class _Analyzer(ast.NodeVisitor):
    def __init__(self, scope: _FileScope, relpath: str) -> None:
        self.scope = scope
        self.relpath = relpath
        self.imports = _ImportMap()
        self.findings: List[Finding] = []
        #: Call nodes that appear directly inside a ``sorted(...)`` call —
        #: the sanctioned way to consume filesystem enumeration (D3).
        self._sorted_args: Set[int] = set()
        #: Expressions in iteration position (for / comprehension iterables).
        self._iter_nodes: Set[int] = set()

    # -- bookkeeping ------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def prepare(self, tree: ast.AST) -> None:
        """Pre-pass: imports, sorted() wrappers, iteration positions."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.record(node)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    for arg in node.args:
                        self._sorted_args.add(id(arg))
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._iter_nodes.add(id(node.iter))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    self._iter_nodes.add(id(gen.iter))

    # -- expression classification ---------------------------------------
    def _is_set_valued(self, node: ast.AST) -> bool:
        """Whether an expression is (syntactically) a bare unordered set."""
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_valued(node.left) or self._is_set_valued(node.right)
        return False

    def _is_float_operand(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp):
            return self._is_float_operand(node.operand)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "float"
        return False

    # -- visitors ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.imports.resolve(node.func)
        if qual is not None:
            self._check_rng_call(node, qual)
            self._check_wall_clock_call(node, qual)
            self._check_fs_enum(node, qual)
        else:
            self._check_fs_enum(node, None)
        if self.scope.d5:
            self._check_raw_write(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.scope.d2:
            qual = self.imports.resolve(node)
            if qual in _WALL_CLOCK_ATTRS:
                self._flag(
                    "D2",
                    node,
                    f"{qual} read in the deterministic core; thread explicit "
                    "configuration in instead",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._is_float_operand(operand) for operand in operands):
                self._flag(
                    "D4",
                    node,
                    "float == / != comparison; use math.isclose "
                    "(or justify the exact sentinel)",
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, generators: Sequence[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)

    # -- rule bodies ------------------------------------------------------
    def _check_rng_call(self, node: ast.Call, qual: str) -> None:
        if not self.scope.d1:
            return
        if qual == "random.Random":
            if not node.args and not node.keywords:
                self._flag(
                    "D1",
                    node,
                    "unseeded random.Random(); derive the seed from the "
                    "run's RngFactory streams",
                )
            return
        if qual.startswith("random."):
            self._flag(
                "D1",
                node,
                f"{qual}() draws from the process-global stdlib RNG; use a "
                "seeded random.Random or an RngFactory stream",
            )
            return
        if qual == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self._flag(
                    "D1",
                    node,
                    "unseeded np.random.default_rng(); seed it (RngFactory "
                    "owns stream seeding)",
                )
            return
        if qual.startswith("numpy.random."):
            attr = qual.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                self._flag(
                    "D1",
                    node,
                    f"np.random.{attr} uses numpy's legacy global RNG state; "
                    "use np.random.default_rng(seed) / Generator streams",
                )

    def _check_wall_clock_call(self, node: ast.Call, qual: str) -> None:
        if not self.scope.d2:
            return
        if qual in _WALL_CLOCK_CALLS:
            self._flag(
                "D2",
                node,
                f"{qual}() is a nondeterminism source; the deterministic core "
                "must depend only on config and seeds",
            )

    def _check_fs_enum(self, node: ast.Call, qual: Optional[str]) -> None:
        flagged_name: Optional[str] = None
        if qual in _FS_ENUM_CALLS:
            flagged_name = qual
        elif qual is None and isinstance(node.func, ast.Attribute):
            if node.func.attr in _FS_ENUM_METHODS:
                flagged_name = f".{node.func.attr}()"
            elif node.func.attr == "glob" and self.imports.resolve(node.func) is None:
                # A ``.glob(...)`` method call (pathlib); ``glob.glob`` the
                # module function resolves above.
                flagged_name = ".glob()"
        if flagged_name is None:
            return
        if id(node) in self._sorted_args:
            return
        self._flag(
            "D3",
            node,
            f"{flagged_name} enumerates the filesystem in OS-dependent order; "
            "wrap it in sorted(...)",
        )

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._is_set_valued(iter_node):
            self._flag(
                "D3",
                iter_node,
                "iteration over an unordered set expression; iterate "
                "sorted(...) (or the dict itself for insertion order)",
            )

    def _check_raw_write(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"):
            return
        mode: Optional[str] = None
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                mode = arg.value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    mode = kw.value.value
        if mode is None:
            return
        if "w" in mode or "x" in mode:
            self._flag(
                "D5",
                node,
                f"raw open(..., {mode!r}) in experiments/; use the atomic "
                "write helpers (atomic_write_json) so a crash cannot leave "
                "a half-written file",
            )


# -------------------------------------------------------------- file driver
def _apply_suppressions(
    findings: List[Finding],
    suppressions: Mapping[int, _Suppression],
    relpath: str,
) -> Tuple[List[Finding], int]:
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        sup = suppressions.get(finding.line) or suppressions.get(finding.line - 1)
        if sup is not None and sup.covers(finding.rule) and sup.justification:
            for token in sup.rules:
                if sup.resolve(token) == finding.rule:
                    sup.used.add(token)
            suppressed += 1
            continue
        kept.append(finding)
    # Suppression hygiene (X1): unknown rules, missing justification,
    # suppressions that matched nothing.  These cannot themselves be
    # suppressed — the escape hatch stays honest.
    for line in sorted(suppressions):
        sup = suppressions[line]
        if not sup.justification:
            kept.append(
                Finding(
                    rule="X1",
                    path=relpath,
                    line=line,
                    col=1,
                    message="suppression without justification; write "
                    "'# repro-lint: ignore[RULE] -- why this is safe'",
                )
            )
            continue
        for token in sup.rules:
            if sup.resolve(token) is None:
                kept.append(
                    Finding(
                        rule="X1",
                        path=relpath,
                        line=line,
                        col=1,
                        message=f"suppression names unknown rule {token!r}",
                    )
                )
            elif token not in sup.used:
                kept.append(
                    Finding(
                        rule="X1",
                        path=relpath,
                        line=line,
                        col=1,
                        message=f"useless suppression: no {token} finding on "
                        "this line (remove it)",
                    )
                )
    return kept, suppressed


def lint_file(
    path: Path, package_root: Path
) -> Tuple[List[Finding], int]:
    """Lint one file; returns (findings, suppressed-count)."""
    try:
        relpath = path.resolve().relative_to(package_root.resolve()).as_posix()
    except ValueError:
        relpath = path.name
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="X1",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            0,
        )
    analyzer = _Analyzer(_FileScope(relpath), relpath)
    analyzer.prepare(tree)
    analyzer.visit(tree)
    suppressions = _collect_suppressions(source)
    return _apply_suppressions(analyzer.findings, suppressions, relpath)


def _package_root() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    return Path(__file__).resolve().parents[1]


def _iter_python_files(target: Path) -> Iterable[Path]:
    if target.is_file():
        yield target
        return
    yield from sorted(target.rglob("*.py"))


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    *,
    package_root: Optional[Path] = None,
    semantic: bool = True,
) -> LintReport:
    """Lint files/directories and (optionally) run the semantic S1 check.

    ``package_root`` anchors rule scoping (``core/`` vs ``experiments/``
    ...); it defaults to the installed ``repro`` package directory, which is
    also the default lint target when ``paths`` is empty.
    """
    root = (package_root or _package_root()).resolve()
    targets = list(paths) if paths else [root]
    report = LintReport()
    for target in targets:
        for file_path in _iter_python_files(Path(target)):
            findings, suppressed = lint_file(file_path, root)
            report.findings.extend(findings)
            report.suppressed += suppressed
            report.files_checked += 1
    if semantic:
        from .registry_check import check_registries

        report.findings.extend(check_registries())
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


# --------------------------------------------------------------------- CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-count lint`` entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-count lint",
        description="Determinism-invariant static analyzer for the repro package.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--no-semantic", action="store_true",
        help="skip the S1 registry-completeness check (pure AST pass)",
    )
    args = parser.parse_args(argv)
    try:
        report = lint_paths(
            [Path(p) for p in args.paths] or None,
            semantic=not args.no_semantic,
        )
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
