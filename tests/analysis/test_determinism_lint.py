"""The repo-facing determinism AST lint (``tools/lint_determinism.py``)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]
TOOL = REPO_ROOT / "tools" / "lint_determinism.py"

spec = importlib.util.spec_from_file_location("lint_determinism", TOOL)
lint_determinism = importlib.util.module_from_spec(spec)
sys.modules.setdefault("lint_determinism", lint_determinism)
spec.loader.exec_module(lint_determinism)


def findings_for(code: str, tmp_path: Path):
    path = tmp_path / "sample.py"
    path.write_text(code)
    return lint_determinism.lint_file(path)


def test_for_loop_over_set_in_sensitive_function_is_det001(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    total = 0
    for item in set(items):
        total ^= stable_hash(item)
    return total
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET001"]


def test_variable_indirection_is_still_caught(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    pending = {item for item in items}
    out = []
    for item in pending:
        out.append(stable_hash(item))
    return out
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET001"]


def test_materialising_a_set_is_det002(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    return stable_hash(tuple(set(items)))
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET002"]


def test_prefix_hasher_and_hash_encoded_are_sinks(tmp_path: Path) -> None:
    findings = findings_for(
        """
def partners(round_index, peer, online):
    rank = prefix_hasher(("gossip-partner", round_index, peer))
    return [rank(name) for name in set(online)]

def digest(parts):
    return hash_encoded(b"".join(set(parts)))
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET001", "DET002"]


def test_sorted_wrapping_clears_the_finding(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    total = 0
    for item in sorted(set(items)):
        total = stable_hash((total, item))
    return stable_hash(tuple(sorted({i for i in items})))
""",
        tmp_path,
    )
    assert findings == []


def test_generator_inside_sorted_is_order_insensitive(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    s = set(items)
    return stable_hash(tuple(sorted(str(v) for v in s)))
""",
        tmp_path,
    )
    assert findings == []


def test_det_ok_comment_suppresses(tmp_path: Path) -> None:
    findings = findings_for(
        """
def digest(items):
    total = 0
    for item in set(items):  # det: ok
        total ^= stable_hash(item)
    return total
""",
        tmp_path,
    )
    assert findings == []


def test_functions_without_sinks_are_not_checked(tmp_path: Path) -> None:
    findings = findings_for(
        """
def harmless(items):
    return [item for item in set(items)]
""",
        tmp_path,
    )
    assert findings == []


def test_one_hop_wrapper_functions_taint_their_callers(tmp_path: Path) -> None:
    findings = findings_for(
        """
def my_digest(value):
    return stable_hash(value)

def caller(items):
    return [my_digest(item) for item in set(items)]
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET001"]


def test_a_method_handing_out_a_prefix_hasher_taints_its_callers(tmp_path: Path) -> None:
    """The shape of ``LatencyModel.link_hasher`` / ``Network.link_delay``."""
    findings = findings_for(
        """
class Model:
    def link_hasher(self, sender, receiver):
        return prefix_hasher(("latency", self.seed, sender, receiver))

class Net:
    def delays(self, links):
        return [self.model.link_hasher(a, b)(0) for a, b in set(links)]
""",
        tmp_path,
    )
    assert [finding.code for finding in findings] == ["DET001"]


def test_src_repro_is_determinism_clean() -> None:
    """Regression gate: the shipped code has no unordered iteration feeding
    canonical-order sinks (everything is sorted or order-independent)."""
    files, problems = lint_determinism.collect_files([REPO_ROOT / "src" / "repro"])
    assert not problems
    trees, findings = lint_determinism.parse_files(files)
    findings.extend(lint_determinism.lint_trees(trees))
    assert findings == [], "\n".join(finding.render() for finding in findings)
