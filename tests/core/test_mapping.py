"""Unit tests for schema mappings."""

import pytest

from repro.core.mapping import (
    Mapping,
    identity_mapping,
    join_mapping,
    split_mapping,
)
from repro.core.schema import PeerSchema
from repro.datalog.parser import parse_atom
from repro.errors import MappingError

SIGMA1 = PeerSchema.build(
    "Sigma1", {"O": ["org", "oid"], "P": ["prot", "pid"], "S": ["oid", "pid", "seq"]}
)
SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]})


class TestMappingConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(MappingError):
            Mapping("m", "A", "B", (), (parse_atom("R(x)"),))

    def test_empty_head_rejected(self):
        with pytest.raises(MappingError):
            Mapping("m", "A", "B", (parse_atom("R(x)"),), ())

    def test_empty_id_rejected(self):
        with pytest.raises(MappingError):
            Mapping("", "A", "B", (parse_atom("R(x)"),), (parse_atom("R(x)"),))

    def test_negated_atoms_rejected(self):
        with pytest.raises(MappingError):
            Mapping("m", "A", "B", (parse_atom("R(x)").negate(),), (parse_atom("R(x)"),))


class TestVariableStructure:
    def test_join_mapping_variables(self):
        mapping = join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        )
        assert mapping.existential_variables() == set()
        assert {v.name for v in mapping.exported_variables()} == {"org", "prot", "seq"}
        assert mapping.source_relations() == {"O", "P", "S"}
        assert mapping.target_relations() == {"OPS"}

    def test_split_mapping_existentials(self):
        mapping = split_mapping(
            "M_CA", "Crete", "Alaska",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            "OPS(org, prot, seq)",
        )
        assert {v.name for v in mapping.existential_variables()} == {"oid", "pid"}

    def test_identity_detection(self):
        mappings = identity_mapping("M_AB", "Alaska", "Beijing", SIGMA1.relations)
        assert len(mappings) == 3
        assert all(mapping.is_identity for mapping in mappings)

    def test_join_is_not_identity(self):
        mapping = join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        )
        assert not mapping.is_identity


class TestValidation:
    def test_validate_against_schemas(self):
        mapping = join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        )
        mapping.validate_against(SIGMA1, SIGMA2)

    def test_unknown_body_relation(self):
        mapping = join_mapping("M", "A", "C", "OPS(x, y, z)", ["Missing(x, y, z)"])
        with pytest.raises(MappingError):
            mapping.validate_against(SIGMA1, SIGMA2)

    def test_unknown_head_relation(self):
        mapping = join_mapping("M", "A", "C", "Missing(x, y)", ["O(x, y)"])
        with pytest.raises(MappingError):
            mapping.validate_against(SIGMA1, SIGMA2)

    def test_wrong_body_arity(self):
        mapping = join_mapping("M", "A", "C", "OPS(x, y, z)", ["O(x, y, z)"])
        with pytest.raises(MappingError):
            mapping.validate_against(SIGMA1, SIGMA2)

    def test_wrong_head_arity(self):
        mapping = join_mapping("M", "A", "C", "OPS(x, y)", ["O(x, y)"])
        with pytest.raises(MappingError):
            mapping.validate_against(SIGMA1, SIGMA2)


class TestConstructors:

    def test_identity_mapping_with_arities(self):
        mappings = identity_mapping("M", "A", "B", ["R"], arities={"R": 2})
        assert mappings[0].body[0].arity == 2

    def test_identity_mapping_missing_arity(self):
        with pytest.raises(MappingError):
            identity_mapping("M", "A", "B", ["R"])

    def test_str_rendering(self):
        mapping = join_mapping("M", "A", "C", "OPS(x, y, z)", ["O(x, y)", "S(y, z)"])
        assert "M" in str(mapping)
        assert "A" in str(mapping)
