"""One case per row of the option table (:data:`repro.config.OPTIONS`),
driven through every spelling derived from it: spec text and dict, builder
method, ``to_spec()``, config construction, the simulator's command line."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import CDSS, NetworkBuilder, SpecError
from repro.analysis import analyze_network_spec
from repro.api.spec import SectionSpec, parse_network_spec
from repro.config import OPTIONS, SECTIONS, SyncConfig, SystemConfig, configure
from repro.errors import ConfigurationError
from repro.simulate import build_parser
from repro.workloads.simulation import MODE_OPTIONS

PEER = "peer P\n  relation R(a, b) key(a)\n"
PEERS = {"P": {"relations": {"R": ["a", "b"]}, "keys": {"R": ["a"]}}}
SPEC_ROWS = [option for option in OPTIONS if option.section]


def values_for(option):
    """A valid value (off the row's default, unless the row has one word
    only), and one outside its domain."""
    if option.choices:
        others = [word for word in option.choices if word != option.default]
        return (others or [option.default])[0], "bogus"
    return (option.default or option.floor) + 1, option.floor - 1


def section_line(option, value):
    """The spec line setting ``option`` and the same as a builder call."""
    head = SECTIONS[option.section][0]
    if option.head:
        return f"{option.section} {value}", (value,), {}
    word = option.under or head.default
    return f"{option.section} {word} {option.knob} {value}", (word,), {option.knob: value}


def section_entry(option, value):
    """The dict-spec entry setting ``option``: a mapping, or the bare word
    of a section whose head is its only row."""
    head, *knobs = SECTIONS[option.section]
    if option.head:
        return {option.knob: value} if knobs else value
    return {head.knob: option.under or head.default, option.knob: value}


@pytest.mark.parametrize("option", SPEC_ROWS, ids=lambda option: f"{option.section}-{option.knob}")
class TestSpecRow:
    def test_every_spelling_sets_the_config_field(self, option):
        value, _ = values_for(option)
        line, args, knobs = section_line(option, value)
        text = f"network n\n{line}\n{PEER}"
        cdss = CDSS.from_spec(text)
        assert option.get(cdss.config) == value
        assert cdss.config == configure(
            SystemConfig(), parse_network_spec(text).sections[option.section].pinned()
        )
        # The recovered spec, the dict form and the builder call say the
        # same; a rendered spec spells only what differs from the defaults.
        if value != option.default:
            assert line in cdss.to_spec().to_text()
        assert CDSS.from_spec(cdss.to_spec().to_text()).config == cdss.config
        assert CDSS.from_spec(parse_network_spec(text).to_dict()).config == cdss.config
        builder = NetworkBuilder("n").peer("P").relation("R", "a", "b", key=["a"])
        assert getattr(builder, option.section)(*args, **knobs).build().config == cdss.config

    def test_a_value_outside_the_domain_is_rejected(self, option):
        _, bad = values_for(option)
        line, args, knobs = section_line(option, bad)
        with pytest.raises(SpecError) as caught:
            parse_network_spec(f"network n\n{line}\n{PEER}")
        assert caught.value.code == "CDSS014"
        assert (caught.value.span.line, caught.value.span.column) == (2, 1)
        with pytest.raises(SpecError) as caught:
            getattr(NetworkBuilder("n"), option.section)(*args, **knobs)
        assert caught.value.code == "CDSS014"
        with pytest.raises(ConfigurationError, match=option.field):
            configure(SystemConfig(), [(option, bad)])

    def test_the_dict_form_rejects_it_too(self, option):
        value, bad = values_for(option)
        line, _, _ = section_line(option, value)
        good = {"name": "n", option.section: section_entry(option, value), "peers": PEERS}
        assert CDSS.from_spec(good).config == CDSS.from_spec(f"network n\n{line}\n{PEER}").config
        with pytest.raises(SpecError) as caught:
            parse_network_spec({**good, option.section: section_entry(option, bad)})
        assert caught.value.code == "CDSS014"

    def test_the_analyzer_reports_it_at_its_line_without_raising(self, option):
        _, bad = values_for(option)
        line, _, _ = section_line(option, bad)
        text = f"network n\n{line}\n{PEER}"
        (diagnostic,) = analyze_network_spec(text).by_code("CDSS014")
        assert diagnostic.span is not None and diagnostic.span.line == 2
        with pytest.raises(SpecError) as caught:
            parse_network_spec(text)
        assert diagnostic.message in str(caught.value)


@pytest.mark.parametrize("flag", MODE_OPTIONS)
def test_simulator_flag_is_generated_from_the_row(flag):
    option = MODE_OPTIONS[flag]
    value, bad = values_for(option)
    assert getattr(build_parser().parse_args([f"--{flag}", value]), flag) == value
    assert getattr(build_parser().parse_args([]), flag) == option.default
    with pytest.raises(SystemExit):
        build_parser().parse_args([f"--{flag}", bad])


@pytest.mark.parametrize(
    "knob, value",
    [("runtime", "async"), ("workers", 8), ("capacity", 64), ("growth", 2), ("attempts", 1)],
)
@pytest.mark.parametrize("mode", ["cursor", "gossip"])
def test_the_deleted_scheduler_knobs_fail_closed(mode, knob, value):
    """The sync scheduler and sketch-sizing options are gone; a spec or
    builder call that still names one is a coded spec error, never a
    silent default."""
    with pytest.raises(SpecError, match=f"unknown sync knob '{knob}'") as caught:
        parse_network_spec(f"network n\nsync {mode} {knob} {value}\n{PEER}")
    assert caught.value.code == "CDSS014"
    assert (caught.value.span.line, caught.value.span.column) == (2, 1)
    data = {"sync": {"mode": mode, knob: value}, "peers": {"P": {"relations": {"R": ["a", "b"]}}}}
    with pytest.raises(SpecError, match=f"unknown sync knob '{knob}'") as caught:
        parse_network_spec(data)
    assert caught.value.code == "CDSS014"
    with pytest.raises(SpecError, match=f"unknown sync knob '{knob}'") as caught:
        NetworkBuilder("n").sync(mode, **{knob: value})
    assert caught.value.code == "CDSS014"
    with pytest.raises(TypeError):
        SyncConfig(**{knob: value})


@pytest.mark.parametrize("word", ["python", "sql"])
def test_the_deleted_execution_section_fails_closed(word):
    """There is one executor: an ``execution`` line is an unknown statement."""
    with pytest.raises(SpecError) as caught:
        parse_network_spec(f"network n\nexecution {word}\n{PEER}")
    assert caught.value.code == "CDSS014"
    assert caught.value.span.line == 2
    assert not hasattr(NetworkBuilder, "execution")


@pytest.mark.parametrize("key", ["execution", "peer"])
def test_a_dict_spec_with_an_unknown_entry_fails_closed(key):
    """A dict spec's unknown top-level key is the dict form of an unknown
    statement: rejected, not ignored (``peer`` is the misspelt ``peers``)."""
    with pytest.raises(SpecError, match=f"unrecognised spec entry '{key}'") as caught:
        parse_network_spec({"name": "n", key: "sql", "peers": PEERS})
    assert caught.value.code == "CDSS014"


def wrong_values(option):
    """Values of the wrong type or outside the domain of ``option``."""
    if option.choices:
        return (option.choices[0].upper(), 1, True, None)
    if option.floor is not None:
        unset = () if option.default is None else (None,)
        return (True, str(option.floor), float(option.floor), option.floor - 1, *unset)
    return ("no", 0, 1, None)


@pytest.mark.parametrize("option", OPTIONS, ids=lambda option: f"{option.group}-{option.field}")
def test_building_a_group_checks_every_row(option):
    """Constructing a config group directly, not only through ``configure``,
    checks each field against its row and names the field it rejects."""
    group = type(getattr(SystemConfig(), option.group))
    assert getattr(group(**{option.field: option.default}), option.field) == option.default
    for bad in wrong_values(option):
        with pytest.raises(ConfigurationError, match=f"^{option.field} "):
            group(**{option.field: bad})


@pytest.mark.parametrize(
    "option",
    [option for option in OPTIONS if not option.choices and option.floor is None],
    ids=lambda option: f"{option.group}-{option.field}",
)
def test_a_flag_needs_a_boolean(option):
    """Flags take ``True``/``False`` only: a truthy ``"no"`` or an ``int``
    would otherwise pass and switch the flag the wrong way or silently."""
    for bad in ("no", 0, 1, None):
        with pytest.raises(ConfigurationError, match=re.escape(f"needs a boolean, got {bad!r}")):
            configure(SystemConfig(), [(option, bad)])
    for good in (True, False):
        assert option.get(configure(SystemConfig(), [(option, good)])) is good


def test_cursor_still_rejects_gossip_knobs():
    for bad in ({"fanout": 2}, {"sketch": "iblt"}):
        with pytest.raises(SpecError):
            SectionSpec("sync", {"mode": "cursor", **bad}).validate()


def test_the_deleted_bloom_sketch_fails_closed():
    """``iblt`` is the one sketch word; ``bloom`` is out of the domain."""
    with pytest.raises(SpecError, match="'iblt'") as caught:
        parse_network_spec(f"network n\nsync gossip sketch bloom\n{PEER}")
    assert caught.value.code == "CDSS014"
    with pytest.raises(ConfigurationError, match="^sketch must be 'iblt', got 'bloom'$"):
        SyncConfig(sketch="bloom")


@pytest.mark.parametrize(
    "group, name",
    [
        ("ExchangeConfig", "max_iterations"),
        ("ReconciliationConfig", "default_priority"),
        ("ReconciliationConfig", "defer_on_ties"),
        ("StoreConfig", "require_online_to_publish"),
        ("StoreConfig", "require_online_to_reconcile"),
        ("SyncConfig", "sketch_capacity"),
        ("SyncConfig", "sketch_growth"),
        ("SyncConfig", "sketch_attempts"),
    ],
)
def test_the_deleted_config_fields_fail_closed(group, name):
    """A deleted field is neither a row nor a keyword of its group: code
    that still passes it gets a ``TypeError``, not a value nobody reads."""
    assert name not in {option.field for option in OPTIONS}
    cls = getattr(repro.config, group, None)
    if cls is not None:
        with pytest.raises(TypeError):
            cls(**{name: 1})


def test_the_reconciliation_group_is_gone():
    """Unmatched updates follow ``TrustPolicy.default_priority`` and ties
    always defer, so no reconciliation config group is left to pass."""
    assert not hasattr(repro, "ReconciliationConfig")
    assert not hasattr(repro.config, "ReconciliationConfig")
    assert "reconciliation" not in {option.group for option in OPTIONS}
    with pytest.raises(TypeError):
        SystemConfig(reconciliation=None)


def _config_reads() -> set[str]:
    """Attributes that ``src/repro`` loads off a config object outside the
    table itself: ``<...>.<group>.<field>`` or ``<...config>.<field>``."""
    package = Path(repro.__file__).parent
    groups = {option.group for option in OPTIONS}
    reads = set()
    for path in package.rglob("*.py"):
        if path == package / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            receiver = node.value
            name = (
                receiver.attr if isinstance(receiver, ast.Attribute)
                else receiver.id if isinstance(receiver, ast.Name) else ""
            )
            if name in groups or "config" in name:
                reads.add(node.attr)
    return reads


CONFIG_READS = _config_reads()


@pytest.mark.parametrize("option", OPTIONS, ids=lambda option: f"{option.group}-{option.field}")
def test_every_row_is_read_by_the_system(option):
    """A row earns its place by changing what the system does: some module
    other than the table reads its field off a config object.  A row that
    only the spec, builder and validation machinery see is dead."""
    assert option.field in CONFIG_READS, (
        f"{option.group}.{option.field} is declared but nothing in src/repro reads it"
    )


def test_every_config_field_is_a_row_and_config_only_ones_are_known():
    """A new field must say whether a spec can set it: it is either in a
    section or added to this list on purpose."""
    assert len(OPTIONS) == 11
    assert {f"{option.group}.{option.field}" for option in OPTIONS if not option.section} == {
        "exchange.track_provenance",
    }
    assert list(SECTIONS) == ["store", "sync", "observe"]
    assert list(MODE_OPTIONS) == ["store", "sync"]


def options_table() -> str:
    """The README's "System options" table, rendered from the rows."""
    lines = ["| section | knob | config field | values | default |", "|---|---|---|---|---|"]
    for option in OPTIONS:
        if option.choices:
            values = (" < " if option.levels else ", ").join(option.choices)
        elif option.floor is not None:
            values = f"integer ≥ {option.floor}"
        else:
            values = "true, false"
        if option.at_most:
            values += f", ≤ `{option.at_most}`"
        if option.under:
            values += f" (only under `{option.section} {option.under}`)"
        knob = f"`<{option.knob}>`" if option.head else f"`{option.knob}`" if option.knob else "—"
        default = "unset" if option.default is None else str(option.default).lower()
        lines.append(
            f"| {option.section or '— (config only)'} | {knob} "
            f"| `{option.group}.{option.field}` | {values} | {default} |"
        )
    return "\n".join(lines)


def test_readme_option_table_is_the_rendered_rows():
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    block = re.search(r"<!-- options:begin -->\n(.*?)\n<!-- options:end -->", readme, re.S)
    assert block is not None and block.group(1) == options_table(), (
        "README 'System options' is stale; paste this between the markers:\n" + options_table()
    )
