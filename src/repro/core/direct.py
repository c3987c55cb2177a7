"""Direct history-automaton construction: the production design path.

The cover's predict-1 language is suffix-determined: for any input of
length >= N, membership depends only on the last N bits.  A machine for such
a language can be written down directly -- one state per length-N history,
transitions by shifting, output = cover evaluated on the history -- and
Hopcroft-minimizing that machine gives, by Myhill-Nerode, the *canonical*
minimal steady-state predictor.

The paper reaches the same machine through a regular expression, an NFA, a
DFA and start-state reduction.  :class:`~repro.core.pipeline.FSMDesigner`
builds every predictor here instead and keeps the paper's chain
(:func:`~repro.core.pipeline.reference_chain`) as the independent reference
it is verified against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.automata.hopcroft import hopcroft_minimize
from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.logic.cube import Cube, cover_contains


def direct_history_machine(
    cover: Sequence[Cube],
    order: int,
    start_history: str = "",
    minimize: bool = True,
) -> MooreMachine:
    """Build the 2^N-state shift-register machine for ``cover`` and
    optionally Hopcroft-minimize it.

    ``start_history`` selects the start state (default: all zeros).  State
    integers encode the history with bit 0 = newest outcome, matching
    :mod:`repro.core.markov`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    for cube in cover:
        if cube.width != order:
            raise ValueError(
                f"cube width {cube.width} does not match order {order}"
            )
    if not start_history:
        start_history = "0" * order
    if len(start_history) != order:
        raise ValueError("start_history length must equal order")

    n_states = 1 << order
    mask = n_states - 1
    cubes = list(cover)
    outputs: List[int] = []
    rows: List[Tuple[int, int]] = []
    for history in range(n_states):
        outputs.append(1 if cover_contains(cubes, history) else 0)
        rows.append((((history << 1) | 0) & mask, ((history << 1) | 1) & mask))
    machine = MooreMachine(
        alphabet=BINARY_ALPHABET,
        start=int(start_history, 2),
        outputs=tuple(outputs),
        transitions=tuple(rows),
    )
    if minimize:
        machine = hopcroft_minimize(machine)
    return machine
