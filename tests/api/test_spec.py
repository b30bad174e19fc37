"""The declarative network-spec language: parsing, validation, round-trips."""

import pytest

from repro import CDSS, SpecError
from repro.api.spec import parse_network_spec
from repro.core.mapping import mapping_from_tgd, mapping_to_tgd
from repro.errors import MappingError
from repro.workloads.bioinformatics import FIGURE2_SPEC

TWO_PEER_SPEC = """
network two-peer
peer Source schema S
  relation R(a, b) key(a)
peer Target schema T
  relation R(a, b) key(a)
  trust Source 2
  trust * 0
mapping [M_ST] @Target.R(x, y) :- @Source.R(x, y).
"""


class TestTextParsing:
    def test_parses_peers_relations_trust_and_mappings(self):
        spec = parse_network_spec(TWO_PEER_SPEC)
        assert spec.name == "two-peer"
        assert set(spec.peers) == {"Source", "Target"}
        source = spec.peers["Source"]
        assert source.schema_name == "S"
        assert source.relations == {"R": ["a", "b"]}
        assert source.keys == {"R": ["a"]}
        target = spec.peers["Target"]
        assert target.trust == {"Source": 2, "*": 0}
        assert len(spec.mappings) == 1
        mapping = spec.mappings[0]
        assert mapping.mapping_id == "M_ST"
        assert mapping.source_peer == "Source"
        assert mapping.target_peer == "Target"

    def test_multiline_mapping_and_comments(self):
        spec = parse_network_spec(
            """
            # comment line
            peer A
              relation O(org, oid) key(org)
              relation P(prot, pid) key(prot)
              relation S(oid, pid, seq)
            peer C
              relation OPS(org, prot, seq)  % trailing comment style
            mapping [M_AC] @C.OPS(org, prot, seq) :-
                @A.O(org, oid), @A.P(prot, pid),
                @A.S(oid, pid, seq).
            """
        )
        assert len(spec.mappings) == 1
        assert len(spec.mappings[0].body) == 3

    def test_figure2_spec_parses(self):
        spec = parse_network_spec(FIGURE2_SPEC)
        assert set(spec.peers) == {"Alaska", "Beijing", "Crete", "Dresden"}
        assert len(spec.mappings) == 10
        split = next(m for m in spec.mappings if m.mapping_id == "M_CA")
        assert len(split.heads) == 3
        assert split.existential_variables()  # oid/pid become labelled nulls

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("peer A\n  relation R(a)\ngarbage here", "unrecognised"),
            ("peer A\n  relation R(a)\npeer A\n  relation R(a)", "declared twice"),
            ("relation R(a)", "outside a peer section"),
            ("peer A\n  trust B two", "malformed trust"),
            ("peer A\n  relation R(a)\nmapping [M] @B.R(x) :- @A.R(x).", "unknown"),
            ("peer A\n  relation R(a)\nmapping [M] @A.R(x) :- @A.R(x)", "missing its closing period"),
            # Statements dispatch on their first word, not on a prefix.
            ("storefront", "unrecognised"),
            ("syncx 1", "unrecognised"),
            ("peers B", "unrecognised"),
            ("sync gossip fanuot 2\npeer A\n  relation R(a)", "unknown sync knob"),
            ("store distributed shards 4 shards 8", "given twice"),
        ],
    )
    def test_malformed_specs_raise_spec_errors(self, text, fragment):
        with pytest.raises(SpecError, match=fragment) as caught:
            parse_network_spec(text)
        # Whatever leaves the text parser has a diagnostic code and a place.
        assert caught.value.code is not None and caught.value.span is not None

    def test_unknown_trust_peer_rejected(self):
        with pytest.raises(SpecError, match="unknown peer 'Ghost'"):
            parse_network_spec(
                "peer A\n  relation R(a)\n  trust Ghost 2"
            )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(MappingError, match="arity"):
            parse_network_spec(
                """
                peer A
                  relation R(a, b)
                peer B
                  relation R(a, b)
                mapping [M] @B.R(x) :- @A.R(x, y).
                """
            )


class TestDictSpecs:
    def test_dict_spec_builds(self):
        cdss = CDSS.from_spec(
            {
                "name": "dicty",
                "peers": {
                    "Source": {"relations": {"R": ["a", "b"]}, "keys": {"R": ["a"]}},
                    "Target": {"relations": {"R": ["a", "b"]}, "trust": {"Source": 2, "*": 0}},
                },
                "mappings": ["[M_ST] @Target.R(x, y) :- @Source.R(x, y)."],
            }
        )
        assert cdss.name == "dicty"
        assert cdss.catalog.peer_names() == ["Source", "Target"]
        assert cdss.peer("Target").trust.peer_priorities == {"Source": 2}
        assert cdss.peer("Target").trust.default_priority == 0

    def test_dict_spec_needs_peers(self):
        with pytest.raises(SpecError, match="peers"):
            parse_network_spec({"mappings": []})

    @pytest.mark.parametrize(
        "section", [{"store": {"kind": "distributed", "shards": "x"}},
                    {"sync": {"mode": "gossip", "fanout": "x"}},
                    {"store": "distributed"}, {"execution": ["sql", "python"]}],
    )
    def test_malformed_section_entries_are_coded_spec_errors(self, section):
        with pytest.raises(SpecError) as caught:
            CDSS.from_spec({"peers": {"P": {"relations": {"R": ["a"]}}}, **section})
        assert caught.value.code == "CDSS014"

    def test_unsupported_source_type(self):
        with pytest.raises(SpecError, match="cannot parse"):
            parse_network_spec(42)


class TestRoundTrip:
    def test_text_to_cdss_to_text(self):
        cdss = CDSS.from_spec(TWO_PEER_SPEC)
        recovered = cdss.to_spec()
        rebuilt = CDSS.from_spec(recovered.to_text())
        assert rebuilt.to_spec().to_dict() == recovered.to_dict()

    def test_figure2_round_trip_preserves_everything(self):
        cdss = CDSS.from_spec(FIGURE2_SPEC)
        spec = cdss.to_spec()
        rebuilt = CDSS.from_spec(spec)
        assert rebuilt.catalog.peer_names() == cdss.catalog.peer_names()
        assert {m.mapping_id for m in rebuilt.catalog.mappings()} == {
            m.mapping_id for m in cdss.catalog.mappings()
        }
        for name in cdss.catalog.peer_names():
            original, copy = cdss.peer(name), rebuilt.peer(name)
            assert copy.schema == original.schema
            assert copy.trust.peer_priorities == original.trust.peer_priorities
            assert copy.trust.default_priority == original.trust.default_priority
        # The mapping structure itself survives, atom for atom.
        for mapping in cdss.catalog.mappings():
            assert rebuilt.catalog.mapping(mapping.mapping_id) == mapping

    def test_trust_conditions_are_not_serializable(self):
        from repro.core.trust import TrustCondition

        cdss = CDSS.from_spec(TWO_PEER_SPEC)
        cdss.peer("Target").trust.add_condition(
            TrustCondition(priority=5, predicate=lambda row: True)
        )
        with pytest.raises(SpecError, match="trust conditions"):
            cdss.to_spec()


class TestTgdHelpers:
    def test_mapping_tgd_round_trip(self):
        mapping = mapping_from_tgd(
            "[M_CA] @Alaska.O(org, oid), @Alaska.P(prot, pid) :- @Crete.OPS(org, prot, seq)."
        )
        assert mapping.source_peer == "Crete"
        assert mapping.target_peer == "Alaska"
        assert mapping_from_tgd(mapping_to_tgd(mapping)) == mapping

    def test_tgd_requires_label_or_explicit_id(self):
        with pytest.raises(MappingError, match="label"):
            mapping_from_tgd("@B.R(x) :- @A.R(x).")

    def test_tgd_requires_qualified_atoms(self):
        with pytest.raises(MappingError, match="peer-qualified"):
            mapping_from_tgd("[M] R(x) :- @A.R(x).")

    def test_tgd_single_peer_per_side(self):
        with pytest.raises(MappingError, match="exactly one"):
            mapping_from_tgd("[M] @B.R(x) :- @A.R(x), @C.S(x).")

    def test_tgd_constants_survive_round_trip(self):
        mapping = mapping_from_tgd(
            "[M] @B.R(x, 'hello world', 3, true, null) :- @A.R(x)."
        )
        assert mapping_from_tgd(mapping_to_tgd(mapping)) == mapping

    def test_comment_markers_inside_string_constants_survive(self):
        # '#' and '%' inside quoted constants are content, not comments.
        cdss = CDSS.from_spec(
            "peer A\n  relation R(a, b)\npeer B\n  relation R(a, b)\n"
            "mapping [M] @B.R(x, '#tag %50') :- @A.R(x, '#tag %50')."
        )
        rebuilt = CDSS.from_spec(cdss.to_spec().to_text())
        assert rebuilt.catalog.mapping("M") == cdss.catalog.mapping("M")


class TestStoreSection:
    DISTRIBUTED_SPEC = TWO_PEER_SPEC.replace(
        "network two-peer",
        "network two-peer\nstore distributed shards 4 replication 2 write_quorum 2",
    )

    def test_parses_store_declaration(self):
        spec = parse_network_spec(self.DISTRIBUTED_SPEC)
        # Unset knobs (read_quorum, segment_size) defer to the config.
        assert spec.sections["store"].values == {
            "kind": "distributed", "shards": 4, "replication": 2, "write_quorum": 2
        }

    def test_store_round_trips_through_text_and_dict(self):
        spec = parse_network_spec(self.DISTRIBUTED_SPEC)
        assert "store distributed shards 4 replication 2 write_quorum 2" in spec.to_text()
        reparsed = parse_network_spec(spec.to_text())
        assert reparsed.to_dict() == spec.to_dict()
        assert parse_network_spec(spec.to_dict()).to_dict() == spec.to_dict()

    def test_dict_spec_accepts_store_entry(self):
        spec = parse_network_spec(
            {
                "peers": {"P": {"relations": {"R": ["a"]}}},
                "store": {"kind": "distributed", "shards": 2},
            }
        )
        assert spec.sections["store"].values == {"kind": "distributed", "shards": 2}

    def test_from_spec_builds_a_distributed_store(self):
        from repro.p2p.distributed import DistributedUpdateStore

        cdss = CDSS.from_spec(self.DISTRIBUTED_SPEC)
        assert isinstance(cdss.store, DistributedUpdateStore)
        assert cdss.store.shard_count == 4
        assert cdss.store.write_quorum == 2

    def test_to_spec_recovers_store_section(self):
        cdss = CDSS.from_spec(self.DISTRIBUTED_SPEC)
        # Exactly what is off its default: 4 shards x 2 replicas is the default.
        assert cdss.to_spec().sections["store"].values == {
            "kind": "distributed", "write_quorum": 2
        }
        # A centralized system has no store line at all.
        assert "store" not in CDSS.from_spec(TWO_PEER_SPEC).to_spec().sections

    def test_store_validation(self):
        for lines in (
            "store clustered",
            "store distributed replication 2 read_quorum 3",
            "store distributed shards 4\nstore centralized",
        ):
            with pytest.raises(SpecError):
                parse_network_spec(
                    TWO_PEER_SPEC.replace("network two-peer", f"network two-peer\n{lines}")
                )

    def test_store_must_precede_peer_sections(self):
        with pytest.raises(SpecError):
            parse_network_spec(TWO_PEER_SPEC + "\nstore distributed\n")

    def test_quorum_without_replication_defers_to_config(self):
        """A quorum knob without a replication knob is not judged against the
        default factor at parse time; the merged StoreConfig decides."""
        from repro.config import ConfigurationError, StoreConfig, SystemConfig

        text = TWO_PEER_SPEC.replace(
            "network two-peer",
            "network two-peer\nstore distributed write_quorum 3",
        )
        spec = parse_network_spec(text)  # parses fine
        cdss = CDSS.from_spec(
            spec, config=SystemConfig(store=StoreConfig(replication_factor=4))
        )
        assert cdss.store.write_quorum == 3
        assert cdss.store.replication_factor == 4
        with pytest.raises(ConfigurationError):
            CDSS.from_spec(spec)  # default factor 2 cannot satisfy quorum 3
