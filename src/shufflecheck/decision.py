"""Top-level decision pipeline and certificate handling.

The pipeline layers a bounded falsifier, the two fragment-finiteness
routes, and the deletion-net analysis.  Every verdict carries a
certificate that can be re-validated independently of the run that
produced it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .automata import (
    Dfa,
    accepts,
    grave,
    is_prefix_closed,
    normalize,
    parse_letter,
    render_word,
)
from .engine import (
    BudgetExceeded,
    ZERO,
    engine_for,
    parse_transition,
    shuffle_member,
    sp_falsify,
    validate_in_shuffle,
)
from .petri import decide_alf_pre_finite, decide_alf_zero_finite, decide_sp_via_net
from .representation import check_closure_prefix, check_closure_zero

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

PREFIX = "prefix"
GENERAL = "general"


class InvalidQuery(Exception):
    pass


class MalformedCertificate(Exception):
    pass


@dataclass(frozen=True)
class Budgets:
    falsifier_maxlen: int = 6
    km_node_cap: int = 200_000
    forward_cap: int = 500_000

    @staticmethod
    def profile(name: str) -> "Budgets":
        if name == "ci":
            return Budgets(falsifier_maxlen=4, km_node_cap=50_000, forward_cap=100_000)
        if name == "default":
            return Budgets()
        if name == "deep":
            return Budgets(
                falsifier_maxlen=8, km_node_cap=1_000_000, forward_cap=2_000_000
            )
        raise InvalidQuery(f"unknown budget profile {name!r}")


# Budgets that no stage read; older reports still list them.
RETIRED_BUDGETS = ("oracle_maxlen", "oracle_card_cap", "frontier_cap")


@dataclass(frozen=True)
class Verdict:
    outcome: str  # holds | fails | unknown
    mode: str  # prefix | general
    route: str
    certificate: dict = field(default_factory=dict)
    budgets: Budgets = field(default_factory=Budgets)
    stats: dict = field(default_factory=dict)


def _check_query(P: Dfa, V: Dfa, mode: str):
    if mode not in (PREFIX, GENERAL):
        raise InvalidQuery(f"unknown mode {mode!r}")
    if set(P.alphabet) != set(V.alphabet):
        raise InvalidQuery("component and constraint alphabets differ")
    if mode == PREFIX and not is_prefix_closed(V):
        raise InvalidQuery("prefix mode needs a prefix-closed constraint language")


def _word_cert(w, u, e, positions) -> dict:
    return {
        "word": tuple(w),
        "factor": tuple(u),
        "component": tuple(e),
        "positions": tuple(positions),
    }


def _column_cert(columns) -> dict:
    from .representation import decode_witness

    d = decode_witness(columns)
    return _word_cert(d["word"], d["remainder"], d["component"], d["positions"])


def _delta_cert(delta) -> dict:
    return {"delta": tuple(sorted(t.tagged_str() for t in delta))}


# Each stage maps (component language, V, budgets, notes) to None when it
# cannot settle the pair, or to (outcome, route, certificate, stats).  A
# stage that passes may write to notes, which join the verdict's stats.
# Stages call the layer functions through this module's globals when they
# run.

def _falsifier(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    try:
        cex = sp_falsify(comp, V, budgets.falsifier_maxlen)
    except BudgetExceeded:
        # inconclusive; the exact stages still decide, and the report says
        # that the falsifier bound was not searched
        notes["falsifier"] = "overflow"
        return None
    if cex is None:
        return None
    stats = {"falsifier_maxlen": budgets.falsifier_maxlen}
    return FAILS, "falsifier", _word_cert(*cex), stats


def _settle_fragment(route: str, comp: Dfa, V: Dfa, alf, check_closure):
    """Holds or Fails from a finite fragment and its exact closure check."""
    if alf.status != "finite":
        return None
    out = check_closure(comp, V, alf.delta, coverage_established=True)
    if out.holds:
        return HOLDS, route, _delta_cert(alf.delta), dict(alf.stats)
    return FAILS, route, _column_cert(out.witness), dict(alf.stats)


def _prefix_fragment(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    alf = decide_alf_pre_finite(comp, V, budgets.km_node_cap, budgets.forward_cap)
    return _settle_fragment("prefix-fragment", comp, V, alf, check_closure_prefix)


def _zero_fragment(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    alf = decide_alf_zero_finite(comp, V, budgets.km_node_cap, budgets.forward_cap)
    return _settle_fragment("zero-fragment", comp, V, alf, check_closure_zero)


def _net(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    """The last stage: always settles, with Unknown when a cap stops it."""
    net = decide_sp_via_net(comp, V, budgets.km_node_cap, budgets.forward_cap)
    cert = {}
    if net.status == FAILS:
        w = net.witness
        cert = _word_cert(w["word"], w["remainder"], w["component"], w["positions"])
    return net.status, net.route, cert, dict(net.stats)


STAGES = {
    PREFIX: (_falsifier, _prefix_fragment, _zero_fragment, _net),
    GENERAL: (_falsifier, _zero_fragment, _net),
}

# The fragment routes that the stages of each mode can settle a pair by.
FRAGMENT_ROUTES = {
    PREFIX: ("prefix-fragment", "zero-fragment"),
    GENERAL: ("zero-fragment",),
}


def decide_sp(
    P: Dfa, V: Dfa, mode: str = PREFIX, budgets: Optional[Budgets] = None
) -> Verdict:
    """Decide closure of (P, V) under one-component deletion.

    Prefix mode asks about interleavings of component prefixes inside a
    prefix-closed V; general mode about interleavings of complete
    components.  The stages of STAGES[mode] run in order and the first
    one that settles the pair gives the verdict.  Exact wherever a
    finiteness or boundedness argument lands; otherwise the budgets bound
    the residual search and the verdict degrades to unknown rather than
    guessing.
    """
    if budgets is None:
        budgets = Budgets()
    P = normalize(P)
    V = normalize(V)
    _check_query(P, V, mode)
    comp = grave(P) if mode == PREFIX else P
    notes: dict = {}
    for stage in STAGES[mode]:
        found = stage(comp, V, budgets, notes)
        if found is not None:
            break
    outcome, route, cert, stats = found
    return Verdict(outcome, mode, route, cert, budgets, {**notes, **stats})


# ---------------------------------------------------------------------------
# certificate replay

def _delete_positions(w: tuple, positions: tuple) -> tuple:
    taken = set(positions)
    return tuple(a for i, a in enumerate(w) if i not in taken)


def _prefix_delta_closed(comp: Dfa, V: Dfa, delta: frozenset) -> bool:
    """Is delta closed in the product of comp's counter system with V?

    The walk starts at (0, V's initial state) and follows only steps in
    delta.  At every state (f, r) it reaches, each step of the counter
    system from f on a letter that V reads at r must be in delta.  That
    is the coverage the prefix route's closure search assumes.  Unlike
    `build_product`, the walk never leaves delta, so it ends on any
    certificate, even one whose product is infinite.
    """
    eng = engine_for(comp)
    start = (ZERO, V.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        f, r = queue.popleft()
        for a in comp.alphabet:
            s = V.delta.get((r, a))
            if s is None:
                continue
            for t in eng.successors(f, a):
                if t not in delta:
                    return False
                nxt = (t.target, s)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True


def replay_certificate(P: Dfa, V: Dfa, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    A failing certificate is checked word by word.  A holding fragment
    certificate must name a fragment route of its mode and list only
    valid steps; a prefix-fragment one must also be closed in the
    product with V (`_prefix_delta_closed`), and then the exact closure
    search runs over the recorded fragment.  A zero-fragment one is not
    yet checked for coverage.  Net-based holds re-run the net analysis.
    """
    P = normalize(P)
    V = normalize(V)
    comp = grave(P) if verdict.mode == PREFIX else P
    if verdict.outcome == FAILS:
        c = verdict.certificate
        try:
            w = tuple(c["word"])
            u = tuple(c["factor"])
            e = tuple(c["component"])
            positions = tuple(c["positions"])
        except KeyError as exc:
            raise MalformedCertificate(f"missing field {exc}") from exc
        if not e or len(positions) != len(e):
            return False
        if len(positions) != len(set(positions)):
            return False
        if any(i < 0 or i >= len(w) for i in positions):
            return False
        if tuple(w[i] for i in sorted(positions)) != e:
            return False
        if _delete_positions(w, positions) != u:
            return False
        if not accepts(comp, e):
            return False
        if not shuffle_member(comp, w) or not shuffle_member(comp, u):
            return False
        return accepts(V, w) and not accepts(V, u)
    if verdict.outcome == HOLDS:
        if "delta" in verdict.certificate:
            if verdict.route not in FRAGMENT_ROUTES.get(verdict.mode, ()):
                return False
            delta = frozenset(
                parse_transition(line) for line in verdict.certificate["delta"]
            )
            if not all(validate_in_shuffle(comp, t) for t in delta):
                return False
            if verdict.route == "prefix-fragment":
                if not _prefix_delta_closed(comp, V, delta):
                    return False
                return check_closure_prefix(
                    comp, V, delta, coverage_established=True
                ).holds
            return check_closure_zero(
                comp, V, delta, coverage_established=True
            ).holds
        rerun = decide_sp_via_net(
            comp, V, verdict.budgets.km_node_cap, verdict.budgets.forward_cap
        )
        return rerun.status == HOLDS
    return True  # unknown makes no claim


# ---------------------------------------------------------------------------
# report format

def serialize_verdict(v: Verdict) -> str:
    lines = [f"VERDICT: {v.outcome}", f"MODE: {v.mode}", f"ROUTE: {v.route}"]
    lines.append("CERTIFICATE:")
    c = v.certificate
    for key in ("word", "factor", "component"):
        if key in c:
            lines.append(f"{key}: " + " ".join(str(a) for a in c[key]))
    if "positions" in c:
        lines.append("positions: " + " ".join(str(i) for i in c["positions"]))
    for line in c.get("delta", ()):
        lines.append(f"delta: {line}")
    lines.append("BUDGETS:")
    for f in fields(Budgets):
        lines.append(f"{f.name}: {getattr(v.budgets, f.name)}")
    if v.stats:
        lines.append("STATS:")
        for k in sorted(v.stats):
            lines.append(f"{k}: {v.stats[k]}")
    return "\n".join(lines) + "\n"


def parse_verdict(text: str) -> Verdict:
    outcome = mode = route = None
    cert: dict = {}
    budget_fields: dict = {}
    stats: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in ("CERTIFICATE:", "BUDGETS:", "STATS:"):
            section = line[:-1]
            continue
        if ":" not in line:
            raise MalformedCertificate(f"bad report line {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "VERDICT":
            outcome = value
        elif key == "MODE":
            mode = value
        elif key == "ROUTE":
            route = value
        elif section == "CERTIFICATE":
            if key in ("word", "factor", "component"):
                cert[key] = tuple(parse_letter(t) for t in value.split())
            elif key == "positions":
                cert[key] = tuple(int(t) for t in value.split())
            elif key == "delta":
                cert.setdefault("delta", ())
                cert["delta"] = cert["delta"] + (value,)
            else:
                raise MalformedCertificate(f"unknown certificate field {key!r}")
        elif section == "BUDGETS":
            if key in RETIRED_BUDGETS:
                continue
            try:
                budget_fields[key] = int(value)
            except ValueError as exc:
                raise MalformedCertificate(f"bad budget value {line!r}") from exc
        elif section == "STATS":
            stats[key] = value
        else:
            raise MalformedCertificate(f"line {line!r} outside any section")
    if outcome not in (HOLDS, FAILS, UNKNOWN):
        raise MalformedCertificate(f"bad or missing verdict {outcome!r}")
    if mode not in (PREFIX, GENERAL):
        raise MalformedCertificate(f"bad or missing mode {mode!r}")
    if route is None:
        raise MalformedCertificate("missing route")
    try:
        budgets = replace(Budgets(), **budget_fields)
    except TypeError as exc:
        raise MalformedCertificate(f"bad budget field: {exc}") from exc
    return Verdict(outcome, mode, route, cert, budgets, stats)
