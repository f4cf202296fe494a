"""The protocol pairs (`protocols.py`), decided and replayed in both modes.

Every pair with `proc` as P and `sem(b)`, `serve` or `pend(b)` as V holds
in both modes, by net-uncoverable after a whole Karp–Miller tree: a
counterexample's control state is live, so the control search alone
does not settle it.  The tree sizes are pinned, prefix mode first.
`even` fails in general mode, where the falsifier finds a violation, and
is refused in prefix mode, since its language is not prefix closed.
"""

import pytest

from shufflecheck.decision import InvalidQuery, decide_sp, replay_certificate
from protocols import even, pend, proc, sem, serve

# (V, Karp–Miller nodes in prefix mode, in general mode)
HOLDS = [
    pytest.param(sem(1), 121, 98, id="sem(1)"),
    pytest.param(sem(2), 226, 149, id="sem(2)"),
    pytest.param(sem(3), 380, 209, id="sem(3)"),
    pytest.param(serve(), 230, 187, id="serve"),
    pytest.param(pend(1), 230, 187, id="pend(1)"),
    pytest.param(pend(2), 618, 314, id="pend(2)"),
    pytest.param(pend(3), 1293, 494, id="pend(3)"),
]


@pytest.mark.parametrize("V, prefix_nodes, general_nodes", HOLDS)
def test_protocol_pair_holds_by_karp_miller(V, prefix_nodes, general_nodes):
    P = proc()
    for mode, nodes in (("prefix", prefix_nodes), ("general", general_nodes)):
        v = decide_sp(P, V, mode)
        assert (v.outcome, v.route) == ("holds", "net-uncoverable"), mode
        assert v.stats == {"km_nodes": nodes, "km_capped": False}, mode
        assert replay_certificate(P, V, v), mode


def test_even_exits_fail_in_general_mode_only():
    P, V = proc(), even()
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("fails", "falsifier")
    assert replay_certificate(P, V, v)
    with pytest.raises(InvalidQuery):
        decide_sp(P, V, "prefix")
