"""The four CLI spec grammars under arbitrary text.

``--faults``, ``--updates``, ``--tenants`` and ``--slo`` are parsed at
argument time, so each parser must either return a value or raise its
grammar's typed error — never another exception, never a hang — and a
malformed value of each flag must exit 2 with a usage line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.tenants import MAX_TENANTS, parse_tenant_spec
from repro.dynamic.updates import UpdateSpecError, parse_update_spec
from repro.obs.slo import parse_slo_spec
from repro.resilience.faults import FaultSpecError, parse_fault_spec

#: (parser, its typed error, words of its grammar).
GRAMMARS = {
    "faults": (
        parse_fault_spec,
        FaultSpecError,
        ["crash", "straggler", "drop", "corrupt", "rank", "iter", "phase",
         "factor", "count", "retries", "p", "L2L", "*"],
    ),
    "updates": (
        parse_update_spec,
        UpdateSpecError,
        ["insert", "delete", "mixed", "batches", "size", "frac"],
    ),
    "tenants": (
        parse_tenant_spec,
        ValueError,
        ["gold", "silver", "bronze", "t0", "search"],
    ),
    "slo": (
        parse_slo_spec,
        ValueError,
        ["total", "queue", "traversal", "nan", "inf", "1e308"],
    ),
}

NUMBERS = st.one_of(
    st.integers(-10**5, 10**5).map(str), st.floats(-1e3, 1e3).map(str)
)


def spec_text(words):
    """Grammar words, separators and numbers strung together, or plain
    arbitrary text."""
    token = st.one_of(
        st.sampled_from(words + [":", ";", ",", "=", "-", " "]),
        NUMBERS,
        st.text(max_size=3),
    )
    return st.one_of(st.lists(token, max_size=12).map("".join), st.text())


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parses_or_raises_typed_error(grammar, data):
    parse, error, words = GRAMMARS[grammar]
    text = data.draw(spec_text(words))
    try:
        parse(text)
    except error:
        pass


def test_tenant_count_is_bounded():
    assert len(parse_tenant_spec(str(MAX_TENANTS))) == MAX_TENANTS
    with pytest.raises(ValueError, match=str(MAX_TENANTS)):
        parse_tenant_spec(str(MAX_TENANTS + 1))
    with pytest.raises(ValueError, match=str(MAX_TENANTS)):
        parse_tenant_spec(",".join(f"t{i}" for i in range(MAX_TENANTS + 1)))


@pytest.mark.parametrize(
    "argv",
    [
        ["bfs", "--faults", "explode:rank=1"],
        ["mutate", "--updates", "grow:batches=2"],
        ["serve", "--tenants", str(MAX_TENANTS + 1)],
        ["serve", "--slo", "total:fast:0.9"],
    ],
    ids=["faults", "updates", "tenants", "slo"],
)
def test_malformed_flag_exits_two_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[1] in err
