"""Every way of building a labelled null yields the same, hashed, term.

``SkolemTerm`` computes its hash once, in the constructor, so a term built
around the constructor would carry no hash.  Each construction site — the
parser, plan head projection, ``labelled_null``, an incremental engine run
and the SQLite storage round trip — must hand back terms that are
equal, hash equal and interchangeable as dict keys; pickling rebuilds the
term through the constructor, so an unpickled term carries the hash of the
process that unpickled it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.tuples import labelled_null
from repro.datalog.ast import Fact, SkolemTerm
from repro.datalog.evaluation import Database
from repro.datalog.executor import fire_rule
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_fact, parse_program, parse_rule
from repro.datalog.plan import compile_rule
from repro.storage.sqlite_backend import SQLiteInstance

SOURCE = Path(__file__).resolve().parents[2] / "src"


def _expected() -> SkolemTerm:
    return SkolemTerm("SK_f", (7, "seven"))


def _built_every_way() -> dict[str, object]:
    (parsed,) = parse_fact("T(SK_f(7, 'seven')).").values
    (projected,) = fire_rule(
        compile_rule(parse_rule("T(SK_f(x, y)) :- R(x, y).")),
        Database.from_dict({"R": [(7, "seven")]}),
    )
    with SQLiteInstance(":memory:") as storage:
        storage.create_relation("N", 1)
        storage.insert("N", (_expected(),))
        ((stored,),) = list(storage.scan("N"))
    engine = IncrementalEngine(parse_program("T(SK_f(x, y)) :- R(x, y)."))
    engine.apply_insertions([Fact("R", (7, "seven"))])
    ((derived,),) = engine.database.relation("T")
    return {
        "parser": parsed,
        "plan projection": projected[0],
        "labelled_null": labelled_null("SK_f", 7, "seven"),
        "sqlite storage": stored,
        "incremental engine run": derived,
    }


def test_every_construction_site_builds_an_equal_hashed_term():
    expected = _expected()
    for site, term in _built_every_way().items():
        assert type(term) is SkolemTerm, site
        assert term == expected, site
        assert hash(term) == hash(expected) == hash(("SK_f", (7, "seven"))), site
        assert {expected: site}[term] == site
        assert {term: site}[expected] == site


def test_nested_terms_decode_with_their_hash():
    inner = SkolemTerm("SK_g", ("x",))
    outer = SkolemTerm("SK_f", (inner, 2**70, None, 1.5))
    with SQLiteInstance(":memory:") as storage:
        storage.create_relation("N", 1)
        storage.insert("N", (outer,))
        ((decoded,),) = list(storage.scan("N"))
    assert decoded == outer and hash(decoded) == hash(outer)
    assert hash(decoded.arguments[0]) == hash(inner)


def test_arguments_are_normalised_to_a_tuple_before_hashing():
    term = SkolemTerm("SK_f", [1, 2])
    assert term.arguments == (1, 2) and hash(term) == hash(SkolemTerm("SK_f", (1, 2)))


def test_unpickling_rebuilds_the_hash_in_the_receiving_process():
    term = SkolemTerm("SK_f", ("a string hashes per seed", SkolemTerm("SK_g", ("b",))))
    parent_seed = os.environ.get("PYTHONHASHSEED")
    child_seed = "4243" if parent_seed == "4242" else "4242"
    child = (
        "import pickle, sys\n"
        "from repro.datalog.ast import SkolemTerm\n"
        "term = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = SkolemTerm('SK_f', ('a string hashes per seed', SkolemTerm('SK_g', ('b',))))\n"
        "assert term == fresh and hash(term) == hash(fresh), 'stale hash'\n"
        "assert {fresh: 1}[term] == 1 and {term: 1}[fresh] == 1\n"
        "print(hash(term))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps(term),
        capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": child_seed, "PYTHONPATH": str(SOURCE)},
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    # Strings hash differently under another seed: the child's hash was
    # computed there, not carried over from this process.
    assert int(done.stdout) != hash(term)


def test_copies_are_equal_and_hashed():
    import copy

    term = SkolemTerm("SK_f", (1, "x"))
    for clone in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert clone == term and hash(clone) == hash(term)
