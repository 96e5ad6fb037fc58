"""verify, the comparator: the one module whose code reads both routes.

verify holds the move closure, one bitset row per element, XORs each
containment row with its closure row as it arrives, and reads the
difference on every ordered pair, or keeps it if nonzero for
sample_count seeded random pairs; about 200 spot pairs check the
per-pair tests, and every element the length against the exact
coordinate-subspace oracle.  Both routes read one enumeration and one
walk, so neither can see a fault of either: the enumeration is checked
against a principle of its own, and a move key that is no element of
R_n is set aside by the walk.  verify runs _PHASES in order through
campaign._run, so it raises only on a bad argument; build_hasse runs the
first two, enumerate and walk, then its diagram.
"""

from collections import namedtuple
from types import SimpleNamespace

from .campaign import (
    _ENUMERATE, _FAILURE_LISTS, _MISMATCH_LIMIT, MAX_N, _campaign, _check_size, _note, _paused_gc, _run,
)
from .containment import _containment, deodhar_leq, deodhar_leq_gamma
# The benchmark's tracer reads export_json, hasse_from_json and interval here.
from .diagram import HasseDiagram, export_json, hasse_from_json, interval
from .length import length
from .moves import _closure, _walked, ppr_leq
from .oracle import oracle_length

__all__ = ["VerificationReport", "build_hasse", "verify"]

# verify 6 --sampled K at the cap, in process: 0.4-0.65 s and 45 MB when
# the relations agree, since nothing is drawn; the cap bounds a run where
# they differ, which draws and reads every pair: 1.8-3.2 s and 66 MB when
# every pair differs (0.6-0.75 s and 18 MB at n = 5).
SAMPLED_MAX_K = 1_000_000
_SPOT_CHECK_PAIRS = 200


@_paused_gc
def build_hasse(n: int) -> HasseDiagram:
    """Diagram of all of R_n, for an int n in 1..MAX_N; anything else,
    a bool included, raises ValueError.  A defective enumeration or walk,
    or anything raised after the size check, raises DefectError, named
    as verify's report would list it."""
    _check_size("hasse", n, MAX_N)
    c = _campaign(n)
    _run(c, (*_PHASES[:2], ("diagram", _diagram, ())), "hasse")
    return c.diagram


def _diagram(c: SimpleNamespace) -> None:
    c.diagram = HasseDiagram(c.n, tuple((i, e, length(e)) for i, e in enumerate(c.elements)),
                             tuple((i, j) for i, above in enumerate(c.covers) for j in above))


class VerificationReport(namedtuple("VerificationReport", (
    "n", "mode", "seed", "pairs_checked",
    *(name for row in _FAILURE_LISTS for name in row[:2] if name),
    "relation_size", "phases", "elapsed",
))):
    """Outcome of one cross-checking campaign over R_n.

    The fields are n, mode, seed, pairs_checked, then each row's list and
    count field, if any, in the phase order of _FAILURE_LISTS, then
    relation_size, phases and elapsed, so a new row gives both its fields.
    Every field is required, and every entry of a failure list is a
    JSON-ready list, so to_dict is the fields as they are plus passed;
    to_text renders the same lists in the table's order; passed reads it.
    mismatches holds [x, y, containment verdict, move-closure verdict]
    for the first 1 000 pairs where the containment rows, then the
    spot-checked per-pair containment tests deodhar_leq and
    deodhar_leq_gamma, differ from the closure, each in pair order (so
    the two verdicts of an entry are opposite); mismatch_count counts all
    such disagreements.  In a sampled campaign the containment rows'
    disagreements come in draw order instead, and a pair drawn twice is
    counted and listed twice.
    search_mismatches holds [x, y, move-closure verdict, per-pair search
    verdict] wherever the two ways of evaluating move reachability
    differ; cover_mismatches holds [x, predicate covers, brute-force
    covers] and oracle_mismatches [x, formula length, oracle length] for
    the first 1 000 failing elements, each counted by its _count field.
    move_failures holds [x, key] for the first 1 000 move or cover keys
    of the kernel that are no element of R_n, in element order, and
    enumeration_failures [what, found, expected] for the first 1 000
    failures of the enumeration's check: its count, then each element
    that does not come after its predecessor.  phase_errors holds
    [phase, exception type, message] for each phase that raised; the
    phases that need its output were skipped.
    All elements are reported in canonical text form.  seed is None for
    an exhaustive campaign.  pairs_checked is 0 unless the containment
    phase ran through, which lists nothing otherwise; relation_size, the
    pairs of the move closure, reflexive ones included, is 0 unless the
    closure phase ran.  phases splits elapsed into the seconds of each
    phase of _PHASES, in order (enumerate, walk, closure, containment,
    spot_checks, oracle), a skipped one too; the argument checks are not timed.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not any(getattr(self, field) for field, *_ in _FAILURE_LISTS)

    def to_dict(self) -> dict:
        return {**self._asdict(), "passed": self.passed}

    def to_text(self) -> str:
        """The lines that rookorder verify prints, without the last newline."""
        seed = [f"seed: {self.seed}"] if self.mode == "sampled" else []
        lines = [f"n: {self.n}", f"mode: {self.mode}", *seed,
                 f"pairs_checked: {self.pairs_checked}", f"relation_size: {self.relation_size}"]
        for field, count_field, label, entry in _FAILURE_LISTS:
            listed = getattr(self, field)
            count = len(listed) if count_field is None else getattr(self, count_field)
            more = f" (first {len(listed)} listed)" if len(listed) < count else ""
            lines.append(f"{label}: {count}{more}")
            for values in listed:
                lines.append("  " + entry.format(*(str(v).lower() if type(v) is bool else v for v in values)))
        return "\n".join([
            *lines, "phases_s: " + " ".join(f"{k}={v:.3f}" for k, v in self.phases.items()),
            f"elapsed_s: {self.elapsed:.3f}", f"result: {'PASS' if self.passed else 'FAIL'}",
        ])


@_paused_gc
def verify(n: int, sample_count: int | None = None, seed: int = 0) -> VerificationReport:
    """Run the cross-checking campaign over R_n, for n in 1..MAX_N.

    The move closure is built whole, one bitset row per element, and each
    containment row of the threshold lemma (x <= y exactly when every
    prefix threshold count #{i <= k : x_i >= a} of x is at most that of y)
    is XORed with its closure row as it is built.  With sample_count None
    the campaign counts and walks the bits of each difference and drops it,
    so it checks every ordered pair and holds no difference.  Otherwise it
    keeps the nonzero differences and reads them on the first sample_count
    draws of a generator seeded with seed, each one index t into the
    count * count ordered pairs read as (i, j) = divmod(t, count), with
    replacement: a pair drawn twice is checked, and a mismatch on it
    counted and listed, twice.  It draws, in stream order, only when some
    difference is nonzero.  In both campaigns the three per-pair tests that
    rookorder cmp prints, deodhar_leq, deodhar_leq_gamma and the move
    search ppr_leq, are spot-checked against the closure on every stride-th
    ordered pair, stride = max(1, count * count // 200): about 200 pairs,
    or all of fewer than 400.  Both the covers (in the pass that builds the
    closure) and the oracle are audited on every element.  The enumeration
    is checked before any of it, and a move key that is no element is
    listed; the campaign runs on in both cases, and past a phase that
    raises (_PHASES).

    n must be an int in 1..MAX_N, sample_count None or an int in
    1..SAMPLED_MAX_K, and seed an int; anything else, a bool included,
    raises ValueError before any element is enumerated, n's refusal first.
    """
    _check_size("verify", n, MAX_N)
    if sample_count is not None:
        _check_size("verify", sample_count, SAMPLED_MAX_K, "--sampled K")
    if type(seed) is not int:
        raise ValueError("seed must be an integer")

    c = _campaign(n, sample_count=sample_count, seed=seed, mismatch_count=0, pairs_checked=0, relation_size=0)
    phases = _run(c, _PHASES)
    lists = {}
    for field, count_field, *_ in _FAILURE_LISTS:
        listed = lists[field] = getattr(c, field)
        if count_field:  # a list cut as it is collected keeps its own count
            lists[field], lists[count_field] = listed[:_MISMATCH_LIMIT], getattr(c, count_field, len(listed))
    exhaustive = sample_count is None
    return VerificationReport(
        n, "exhaustive" if exhaustive else "sampled", None if exhaustive else seed, c.pairs_checked,
        **lists, relation_size=c.relation_size, phases=phases, elapsed=sum(phases.values()))


def _spot_checks(c: SimpleNamespace) -> None:
    # Committed at the end; found starts as the listed entries, so the cap counts them.
    elements, closure, count = c.elements, c.closure, len(c.elements)
    found, total, searched = c.mismatches[:], 0, []
    for t in range(0, count * count, max(1, count * count // _SPOT_CHECK_PAIRS)):
        i, j = divmod(t, count)
        x, y = elements[i], elements[j]
        p = bool(closure[i] >> j & 1)
        for test in (deodhar_leq, deodhar_leq_gamma):
            if test(x, y) != p:
                total += 1
                _note(c, found, i, j)
        s = ppr_leq(x, y)
        if s != p:
            searched.append([str(x), str(y), p, s])
    c.mismatches = found
    c.mismatch_count += total
    c.search_mismatches += searched


def _oracle(c: SimpleNamespace) -> None:
    c.oracle_mismatches = [[str(x), ln, computed] for x in c.elements
                           if (ln := length(x)) != (computed := oracle_length(x))]


# The phases of verify, in the order they run and are timed: name, function of
# the campaign's state (containment reads the pairs too), and the phases it needs.
_PHASES = (
    _ENUMERATE,
    ("walk", _walked, ("enumerate",)),
    ("closure", _closure, ("walk",)),
    ("containment", _containment, ("closure",)),
    ("spot_checks", _spot_checks, ("closure",)),
    ("oracle", _oracle, ("enumerate",)),
)
