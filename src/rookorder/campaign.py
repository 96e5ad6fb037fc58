"""The state, failure table and step runner of the whole-monoid operations.

build_hasse, hasse_from_json and verify, the operations over a whole
monoid, run steps over one state through one runner, _run, which times
each step, skips one unless every step it needs ran through, and lists
what a step raises in phase_errors.  All three start from one checked
enumeration, _ENUMERATE, the only caller of enumerate_elements among
them.  build_hasse and hasse_from_json name their command, and _run
refuses the first nonempty failure list after a step with DefectError.
The three share one size bound, n in 1..MAX_N; _check_size is the one
rule for it, for cli's capped sizes and for verify's K.  They run with
the cyclic garbage collector paused (_paused_gc): at R_6 they allocate
hundreds of thousands of tuples, lists and records, none of them in a
reference cycle, so every collection during them would scan the live
data and free nothing.  Each route's phase lives in its route's module
and fills the state here; this module imports only elements.
"""

import gc
import time
from functools import wraps
from math import comb, factorial
from types import SimpleNamespace

from .elements import enumerate_elements

__all__ = ["DefectError"]

# The largest R_n that build_hasse, hasse_from_json and verify accept.
# R_6 has 13 327 elements and 87 415 covers; its exhaustive campaign checks
# 177.6M ordered pairs and holds one 24 MB relation, 45 MB peak even if all differ.
MAX_N = 6
# Exhaustive R_6 can disagree on up to 177.6M pairs.  A failure list with a
# count field in _FAILURE_LISTS (enumeration and move failures, cover,
# order and oracle mismatches) lists its first this many; the count holds all.
_MISMATCH_LIMIT = 1000
# The failure lists of a VerificationReport, in the order their phases
# run, so a root cause comes first: field, count field (None for a list
# never cut), text label and entry text, whose booleans print as true
# and false.  A report passes when every list is empty.
_FAILURE_LISTS = (
    ("enumeration_failures", "enumeration_failure_count", "enumeration_failures", "{}: {}, expected {}"),
    ("move_failures", "move_failure_count", "move_failures", "element {}: move key {} is no element"),
    ("cover_mismatches", "cover_mismatch_count", "cover_mismatches", "element {}: predicate={} brute={}"),
    ("mismatches", "mismatch_count", "order_mismatches", "pair {} vs {}: containment={} moves={}"),
    ("search_mismatches", None, "search_mismatches", "pair {} vs {}: closure={} search={}"),
    ("oracle_mismatches", "oracle_mismatch_count", "oracle_mismatches", "element {}: formula={} oracle={}"),
    ("phase_errors", None, "phase_errors", "{}: {}: {}"),
)


class DefectError(Exception):
    """build_hasse or hasse_from_json found a defect, refused by _run.
    Not a ValueError, which means a bad argument: cli exits 2 on it, not 1."""


def _check_size(command: str, value: int, cap: int, name: str = "n") -> None:
    """Refuse a value that is not an int (a bool is not one) in 1..cap,
    under the name of the argument it bounds: n, or verify's --sampled K."""
    if type(value) is not int or not 1 <= value <= cap:
        raise ValueError(f"{command} supports {name} in 1..{cap}")


def _paused_gc(operation):
    """operation, run with the cyclic garbage collector paused when it is
    enabled at the call, and left alone when it is not.  On every exit,
    return or raise, the collector is enabled again and collects its
    youngest generation, whose count the operation has run far past:
    left pending, that collection would run at the caller's next
    allocation instead."""

    @wraps(operation)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return operation(*args, **kwargs)
        gc.disable()
        try:
            return operation(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return paused


def _campaign(n: int, **state) -> SimpleNamespace:
    """A fresh state over R_n: state, and every failure list empty."""
    return SimpleNamespace(n=n, **state, **{field: [] for field, *_ in _FAILURE_LISTS})


def _run(c: SimpleNamespace, steps, command: str | None = None) -> dict[str, float]:
    """Run steps (name, function of c, the names of the steps it needs)
    in order over the state c; return each one's seconds, a skipped one's
    too.  A step runs only when every step it needs ran through, and any
    Exception it raises is listed in c.phase_errors as [name, type name,
    message].  With a command, the first nonempty failure list after a
    step raises DefectError in the text report's words, on one line."""
    ran, seconds = set(), {}
    mark = time.perf_counter()
    for name, step, needs in steps:
        if ran.issuperset(needs):
            try:
                step(c)
            except Exception as exc:
                c.phase_errors.append([name, type(exc).__name__, str(exc)])
            else:
                ran.add(name)
        now = time.perf_counter()
        seconds[name], mark = now - mark, now
        if command:
            for field, count_field, label, entry in _FAILURE_LISTS:
                if listed := getattr(c, field):
                    count = len(listed) if count_field is None else getattr(c, count_field, len(listed))
                    first = entry.format(*listed[0])
                    raise DefectError(f"{command} found {label}: {count}; the first is {first}")
    return seconds


def _enumerate(c: SimpleNamespace) -> None:
    """The elements of R_n, checked against a principle of their own:
    there must be sum_k C(n, k)^2 k! of them (k occupied rows and columns
    and a bijection between them), strictly ascending in lexicographic
    order, so none repeats.  Failures are [what, found, expected].  That
    each is an element of R_n is OneLine's to check: a tuple outside R_n
    raises while the list is made, and _run lists it in phase_errors."""
    n = c.n
    c.elements = elements = list(enumerate_elements(n))
    due = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    c.enumeration_failures = [] if len(elements) == due else [["element count", len(elements), due]]
    c.enumeration_failures += [
        [f"element {k}", str(y), f"after {x}"]
        for k, (x, y) in enumerate(zip(elements, elements[1:]), 1) if not x.entries < y.entries
    ]


# The first phase of verify, and the first step of build_hasse and of
# hasse_from_json too.
_ENUMERATE = ("enumerate", _enumerate, ())


def _note(c: SimpleNamespace, mismatches: list, i: int, j: int) -> None:
    if len(mismatches) < _MISMATCH_LIMIT:
        p = bool(c.closure[i] >> j & 1)
        mismatches.append([str(c.elements[i]), str(c.elements[j]), not p, p])
