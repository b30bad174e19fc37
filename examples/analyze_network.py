"""Static analysis: lint a network spec before anything runs.

The analyzer inspects a network description — chase termination (weak
acyclicity of the skolemized mapping graph), rule safety, trust-policy
lints and topology — and reports findings with
stable ``CDSS0xx`` codes and source positions, exactly like a compiler.

This example first analyzes a deliberately problematic network (a mapping
pair whose labelled nulls feed their own creation — the chase would never
terminate — plus shadowed trust and an isolated peer), shows how
``build(strict=True)`` refuses it, then verifies the Figure 2 bioinformatics
network is clean.

Run with:  python examples/analyze_network.py
"""

from __future__ import annotations

from repro.analysis import analyze_network_spec
from repro.api.builder import build_network
from repro.errors import SpecError
from repro.workloads.bioinformatics import FIGURE2_SPEC

#: A network with real problems: M_ping invents a labelled null at B.R[0]
#: that M_pong copies straight back into the position M_ping reads — the
#: chase diverges.  Cadiz trusts itself (a no-op row) and Elba is mapped
#: to no one.
BROKEN_SPEC = """
network broken-demo
peer Ankara
  relation R(x, y)
peer Bern
  relation R(x, y)
peer Cadiz
  relation S(x)
  trust Cadiz 3
peer Elba
  relation S(x)
mapping [M_ping] @Bern.R(e, x) :- @Ankara.R(x, y).
mapping [M_pong] @Ankara.R(x, y) :- @Bern.R(x, y).
mapping [M_bc] @Cadiz.S(x) :- @Bern.R(x, y).
"""


def main() -> None:
    # 1. Analyze without building: every finding, with code and position.
    report = analyze_network_spec(BROKEN_SPEC, source_name="broken-demo.spec")
    print("-- diagnostics for the broken network --")
    print(report.render())

    # 2. A strict build refuses networks with error-severity findings.
    try:
        build_network(BROKEN_SPEC, strict=True)
    except SpecError as error:
        first_line = str(error).splitlines()[0]
        print("\nstrict build rejected the network:")
        print(f"  {first_line}  (code {error.code})")

    # 3. The lenient path still builds — and cdss.analyze() re-runs the
    #    analyzer against the live system at any time.
    cdss = build_network(BROKEN_SPEC)
    live = cdss.analyze()
    assert not live.ok
    print(f"\nlive system analysis: {len(live.errors())} error(s), "
          f"{len(live.warnings())} warning(s)")

    # 4. The shipped Figure 2 network is analyzer-clean.
    clean = analyze_network_spec(FIGURE2_SPEC, source_name="FIGURE2_SPEC")
    assert clean.ok and len(clean) == 0
    print("\nFigure 2 bioinformatics network: no findings")


if __name__ == "__main__":
    main()
