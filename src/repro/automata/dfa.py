"""Deterministic finite automata and subset construction.

"Once the non-deterministic FSM is completed it is converted to a
deterministic state machine using subset construction" (Section 4.6).  The
DFAs here are *complete*: every state has a transition on every alphabet
symbol (non-accepting dead state added where needed), which is what lets the
later Moore-machine view emit a prediction from every state on every input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.automata.nfa import EPSILON, NFA


@dataclass
class DFA:
    """A complete DFA with dense integer states.

    ``transitions[state][symbol_index]`` is the successor; symbol indices
    follow the order of ``alphabet``.
    """

    alphabet: Tuple[str, ...]
    start: int
    accepts: FrozenSet[int]
    transitions: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.transitions)
        width = len(self.alphabet)
        for state, row in enumerate(self.transitions):
            if len(row) != width:
                raise ValueError(f"state {state} row has {len(row)} entries")
            for nxt in row:
                if not 0 <= nxt < n:
                    raise ValueError(f"state {state} transitions to {nxt} (n={n})")
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")
        for a in self.accepts:
            if not 0 <= a < n:
                raise ValueError(f"accept state {a} out of range")

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.alphabet}")

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][self.symbol_index(symbol)]

    def run(self, text: str, start: Optional[int] = None) -> int:
        """Final state after consuming ``text`` from ``start`` (default:
        the DFA's start state)."""
        state = self.start if start is None else start
        for symbol in text:
            state = self.step(state, symbol)
        return state

    def accepts_string(self, text: str) -> bool:
        return self.run(text) in self.accepts

    def reachable_states(self, roots: Optional[Iterable[int]] = None) -> Set[int]:
        """States reachable from ``roots`` (default: the start state)."""
        frontier: List[int] = list(roots) if roots is not None else [self.start]
        seen: Set[int] = set(frontier)
        while frontier:
            state = frontier.pop()
            for nxt in self.transitions[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def _epsilon_closures(eps_succ: List[List[int]]) -> List[int]:
    """Per-state epsilon closure as an int bitmask (bit ``s`` = state ``s``).

    Fixpoint of ``closure[s] = {s} | closure[t]`` over epsilon edges
    ``s -> t``, swept in reverse state order.  Thompson numbering points
    most epsilon edges forward, so a sweep settles everything but the
    backward edges that alternations and stars add, and the fixpoint is
    reached after about one sweep per nesting level.
    """
    closures = [1 << s for s in range(len(eps_succ))]
    changed = True
    while changed:
        changed = False
        for s in range(len(eps_succ) - 1, -1, -1):
            closure = closures[s]
            for t in eps_succ[s]:
                closure |= closures[t]
            if closure != closures[s]:
                closures[s] = closure
                changed = True
    return closures


def subset_construct(nfa: NFA) -> DFA:
    """Determinize ``nfa`` with the classic subset construction.

    The result is complete over the NFA's alphabet: the empty subset acts as
    the (non-accepting) dead state when it arises.

    Subsets are int bitmasks rather than frozensets, epsilon closures are
    precomputed per NFA state, and the per-symbol move-and-close step is an
    OR over nibble lookup tables -- the construction visits subsets in the
    same FIFO order as the textbook version, so state numbering (and the
    resulting DFA) is identical, just orders of magnitude cheaper on the
    dense subsets the paper's chain produces.
    """
    n = nfa.num_states
    eps_succ: List[List[int]] = [[] for _ in range(n)]
    sym_succ: Dict[str, List[List[int]]] = {
        symbol: [[] for _ in range(n)] for symbol in nfa.alphabet
    }
    for (state, symbol), dsts in nfa.transitions.items():
        if symbol == EPSILON:
            eps_succ[state] = sorted(dsts)
        elif symbol in sym_succ:
            sym_succ[symbol][state] = sorted(dsts)

    closures = _epsilon_closures(eps_succ)

    # step1[si][s] = epsilon-closed one-symbol image of {s}.
    step1: List[List[int]] = []
    for symbol in nfa.alphabet:
        column: List[int] = []
        for dsts in sym_succ[symbol]:
            acc = 0
            for t in dsts:
                acc |= closures[t]
            column.append(acc)
        step1.append(column)

    # Nibble tables: table[c][v] = OR of step1 over the states of nibble
    # ``c`` selected by the nibble-local bit pattern ``v`` (a few MB even
    # for multi-thousand-state NFAs; byte tables measured no faster).
    # Padding nibbles past ``n`` stay all-zero.
    nbytes = (n + 7) // 8
    tables: List[List[List[int]]] = []
    for column in step1:
        sym_tables: List[List[int]] = []
        for c in range(2 * nbytes):
            tab = [0] * 16
            for v in range(1, 16):
                lsb = v & -v
                state = 4 * c + lsb.bit_length() - 1
                prev = tab[v ^ lsb]
                tab[v] = prev | column[state] if state < n else prev
            sym_tables.append(tab)
        tables.append(sym_tables)

    start_mask = closures[nfa.start]
    index: Dict[int, int] = {start_mask: 0}
    order: List[int] = [start_mask]
    rows: List[List[int]] = []
    worklist: deque = deque([start_mask])
    num_symbols = len(nfa.alphabet)
    while worklist:
        subset = worklist.popleft()
        row: List[int] = []
        sbytes = subset.to_bytes(nbytes, "little")
        for si in range(num_symbols):
            sym_tables = tables[si]
            nxt = 0
            for c, piece in enumerate(sbytes):
                if piece:
                    lo = piece & 15
                    if lo:
                        nxt |= sym_tables[2 * c][lo]
                    hi = piece >> 4
                    if hi:
                        nxt |= sym_tables[2 * c + 1][hi]
            slot = index.get(nxt)
            if slot is None:
                slot = len(order)
                index[nxt] = slot
                order.append(nxt)
                worklist.append(nxt)
            row.append(slot)
        rows.append(row)
    accept_mask = sum(1 << a for a in nfa.accepts)
    accepts = frozenset(
        i for i, subset in enumerate(order) if subset & accept_mask
    )
    return DFA(
        alphabet=nfa.alphabet,
        start=0,
        accepts=accepts,
        transitions=tuple(tuple(r) for r in rows),
    )
