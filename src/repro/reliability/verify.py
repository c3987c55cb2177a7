"""Design verification: prove a produced machine against the reference.

Production builds the machine with the direct history construction
(:mod:`repro.core.direct`).  It must be steady-state equivalent (on every
input of length >= N) to the final machine of the paper's regex -> NFA ->
DFA -> Hopcroft -> start-state reduction chain run on the same cover
(:func:`repro.core.pipeline.reference_chain`), and the cover must agree
with the pattern sets it was minimized from.  ``verify_design`` runs both
checks and raises a :class:`DesignError` carrying a shortest
distinguishing input when they fail.

Production paths use it through ``DesignConfig(verify=True)`` and the
CLI's ``--verify``; design-cache hits get the cheaper integrity check of
``repro.core.pipeline._design_hit_ok`` (:func:`cover_issues` plus an exact
rebuild of the production machine).  The reference is memoized on the
result but never pickled, so it is always rebuilt from the cover.
"""

from __future__ import annotations

from typing import List

from repro.automata.equivalence import equivalent_from, find_distinguishing_string
from repro.logic.cube import cover_contains
from repro.reliability.errors import DesignError


def cover_issues(result) -> List[str]:
    """Every disagreement between a :class:`DesignResult`'s cover and its
    order and pattern sets, as human readable strings."""
    issues: List[str] = []
    order = result.config.order
    cover = list(result.cover)

    for cube in cover:
        if cube.width != order:
            issues.append(
                f"cover cube {cube} has width {cube.width}, expected {order}"
            )
    if issues:
        return issues  # the checks below need well-formed cubes

    # Cover vs pattern sets: minimization may only move don't-cares.
    patterns = result.patterns
    for history in sorted(patterns.predict_one):
        if not cover_contains(cover, history):
            issues.append(
                f"predict-1 history {history:0{order}b} not covered"
            )
    for history in sorted(patterns.predict_zero):
        if cover_contains(cover, history):
            issues.append(
                f"predict-0 history {history:0{order}b} wrongly covered"
            )
    return issues


def design_issues(result) -> List[str]:
    """Every verification failure of a :class:`DesignResult`, as human
    readable strings; empty when the design is provably good."""
    issues = cover_issues(result)
    order = result.config.order
    if any(cube.width != order for cube in result.cover):
        return issues  # the reference chain needs well-formed cubes

    # Machine vs the paper's chain: steady-state equivalence, horizon = order.
    reference = result.reference().final
    if not equivalent_from(result.machine, reference, horizon=order):
        witness = find_distinguishing_string(result.machine, reference)
        issues.append(
            "machine disagrees with the reference chain"
            + (f" (witness input: {witness!r})" if witness is not None else "")
        )
    return issues


def verify_design(result) -> None:
    """Raise :class:`DesignError` unless ``result`` provably implements
    its own cover."""
    issues = design_issues(result)
    if issues:
        raise DesignError(
            "design verification failed: " + "; ".join(issues),
            stage="verify",
            order=result.config.order,
            bias_threshold=result.config.bias_threshold,
            states=result.machine.num_states,
        )


def design_ok(result) -> bool:
    """Boolean form of :func:`verify_design`."""
    try:
        return not design_issues(result)
    except Exception:  # malformed artifact: anything goes when poisoned
        return False
