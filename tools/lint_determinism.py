#!/usr/bin/env python
"""AST lint: unordered set/dict iteration feeding canonical-order paths.

The repo's distributed oracles (sketch reconciliation, provenance digests,
spec round-trips) rely on *canonical* encodings: any value that reaches
``stable_hash``/``canonical_encode``/``xor_checksum`` and friends must be
assembled in a deterministic order.  ``canonical_encode`` itself sorts sets
and dicts internally, so *passing* a set to it is fine — the bug pattern is
iterating an unordered set (or materialising it into a sequence) inside a
function that feeds those sinks, where the iteration order leaks into the
result.

Findings:

* ``DET001`` — ``for ... in <set-expression>`` inside a sensitive function.
* ``DET002`` — ``tuple(...)``, ``list(...)`` or ``str.join(...)`` over a
  set expression inside a sensitive function.

A *sensitive function* is one whose body calls any canonical-order sink
(``stable_hash``, ``prefix_hasher``, ``hash_encoded``, ``canonical_encode``,
``stable_text_hash``, ``mix64``, ``xor_checksum``).  A *set expression* is a
syntactic set: a set literal or comprehension, a ``set()``/``frozenset()``
call, set algebra (``&``, ``|``, ``-``, ``^``) over one, or
``.intersection()``/``.union()``/``.difference()``/
``.symmetric_difference()`` calls.  Wrapping the
expression in ``sorted(...)`` clears the finding; a trailing ``# det: ok``
comment suppresses it when the order is provably irrelevant.

Usage::

    python tools/lint_determinism.py src/repro
    python tools/lint_determinism.py src/repro --json

Exit status is 1 when any finding survives, 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

SINKS = frozenset(
    {
        "stable_hash",
        "prefix_hasher",
        "hash_encoded",
        "canonical_encode",
        "stable_text_hash",
        "mix64",
        "xor_checksum",
    }
)
SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
SUPPRESSION = "det: ok"


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    root = annotation
    if isinstance(root, ast.Subscript):  # set[int], Set[str], ...
        root = root.value
    if isinstance(root, ast.Attribute):  # typing.Set, typing.AbstractSet
        return root.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    if isinstance(root, ast.Name):
        return root.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")
    return False


def set_locals(function: ast.AST) -> frozenset:
    """Local names bound to set expressions (simple single-target assigns)."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and is_set_expression(value):
                names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and is_set_expression(node.value)
            ):
                names.add(node.target.id)
    return frozenset(names)


def is_set_expression(node: ast.AST, local_sets: frozenset = frozenset()) -> bool:
    """True for expressions that are syntactically unordered sets.

    ``local_sets`` extends the syntactic check with names the enclosing
    function bound to set expressions, so one level of variable indirection
    (``pending = set(...); for x in pending``) is still caught.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and name in SET_METHODS:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return is_set_expression(node.left, local_sets) or is_set_expression(
            node.right, local_sets
        )
    return False


def _calls_any(node: ast.AST, names: frozenset) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and _call_name(child) in names:
            return True
    return False


def transitive_sinks(trees: List[Tuple[Path, ast.Module]]) -> frozenset:
    """The primitive sinks plus their direct wrappers.

    A function that wraps ``stable_hash`` (``entry_digest``,
    ``content_payload``, ...) is itself order-sensitive, so callers of the
    wrapper get the same scrutiny as callers of the primitive.  Matching is
    by bare function name and deliberately limited to ONE hop: a full
    fixpoint over bare names taints half the repo through common method
    names (``validate``, ``to_dict``) and drowns real findings in noise.
    """
    sinks = set(SINKS)
    primitives = frozenset(SINKS)
    for _path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in sinks and _calls_any(node, primitives):
                sinks.add(node.name)
    return frozenset(sinks)


class Finding:
    def __init__(self, path: Path, line: int, code: str, message: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }


def _sensitive_functions(tree: ast.Module, sinks: frozenset) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_any(
            node, sinks
        ):
            yield node


def _suppressed(lines: List[str], lineno: int) -> bool:
    if 1 <= lineno <= len(lines):
        return SUPPRESSION in lines[lineno - 1]
    return False


#: Consumers whose result does not depend on argument order — iteration
#: inside them is fine (``sorted(v for v in some_set)``).
ORDER_INSENSITIVE = frozenset(
    {"sorted", "set", "frozenset", "sum", "max", "min", "len", "any", "all",
     "xor_checksum", "Counter"}
)


def _order_insensitive_nodes(function: ast.AST) -> set:
    """Every AST node nested under an order-insensitive consumer call."""
    covered: set = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and _call_name(node) in ORDER_INSENSITIVE:
            for argument in node.args:
                for child in ast.walk(argument):
                    covered.add(id(child))
    return covered


def check_function(
    function: ast.AST, path: Path, lines: List[str], findings: List[Finding]
) -> None:
    name = getattr(function, "name", "<lambda>")
    local_sets = set_locals(function)
    covered = _order_insensitive_nodes(function)
    for node in ast.walk(function):
        if id(node) in covered:
            continue
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expression(
            node.iter, local_sets
        ):
            if not _suppressed(lines, node.lineno):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "DET001",
                        f"function {name!r} feeds canonical-order sinks but "
                        "iterates an unordered set here; wrap the iterable in "
                        "sorted(...)",
                    )
                )
        elif isinstance(node, ast.comprehension) and is_set_expression(
            node.iter, local_sets
        ):
            lineno = node.iter.lineno
            if not _suppressed(lines, lineno):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "DET001",
                        f"function {name!r} feeds canonical-order sinks but a "
                        "comprehension iterates an unordered set here; wrap "
                        "the iterable in sorted(...)",
                    )
                )
        elif isinstance(node, ast.Call):
            callee = _call_name(node)
            materialises = (
                isinstance(node.func, ast.Name) and callee in ("tuple", "list")
            ) or (isinstance(node.func, ast.Attribute) and callee == "join")
            if (
                materialises
                and node.args
                and is_set_expression(node.args[0], local_sets)
                and not _suppressed(lines, node.lineno)
            ):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "DET002",
                        f"function {name!r} feeds canonical-order sinks but "
                        f"materialises an unordered set via {callee}(...); "
                        "use sorted(...) instead",
                    )
                )


def parse_files(files: List[Path]) -> Tuple[List[Tuple[Path, ast.Module]], List[Finding]]:
    trees: List[Tuple[Path, ast.Module]] = []
    findings: List[Finding] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            trees.append((path, ast.parse(source, filename=str(path))))
        except SyntaxError as error:
            findings.append(
                Finding(path, error.lineno or 1, "DET000", f"syntax error: {error.msg}")
            )
    return trees, findings


def lint_trees(trees: List[Tuple[Path, ast.Module]]) -> List[Finding]:
    sinks = transitive_sinks(trees)
    findings: List[Finding] = []
    for path, tree in trees:
        lines = path.read_text(encoding="utf-8").splitlines()
        for function in _sensitive_functions(tree, sinks):
            check_function(function, path, lines, findings)
    return findings


def lint_file(path: Path) -> List[Finding]:
    trees, findings = parse_files([path])
    return findings + lint_trees(trees)


def collect_files(paths: List[Path]) -> Tuple[List[Path], List[str]]:
    files: List[Path] = []
    problems: List[str] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            problems.append(f"{path}: no such file or directory")
    return files, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/lint_determinism.py",
        description="Flag unordered set iteration feeding canonical-order paths.",
    )
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    files, problems = collect_files(list(args.paths))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2

    trees, findings = parse_files(files)
    findings.extend(lint_trees(trees))
    findings.sort(key=lambda finding: (str(finding.path), finding.line, finding.code))

    if args.as_json:
        print(
            json.dumps(
                {
                    "findings": [finding.to_dict() for finding in findings],
                    "files": len(files),
                    "ok": not findings,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(files)} file(s) checked: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
