"""The end-to-end FSM-predictor design flow (Section 4).

``FSMDesigner`` builds every predictor in one construction:

    trace -> MarkovModel -> PatternSets -> SOP cover (logic minimization)
          -> 2^N-state history machine -> Hopcroft minimization
          -> final MooreMachine

The cover defines a suffix-determined language, so by Myhill-Nerode the
Hopcroft-minimized shift-register machine (:mod:`repro.core.direct`) *is*
the minimal steady-state predictor.  The paper's own chain

    cover -> regular expression -> NFA (Thompson) -> DFA (subset
          construction) -> Hopcroft minimization -> start-state reduction

lives on as :func:`reference_chain`: the independent reference that
:mod:`repro.reliability.verify` and the conformance runner check the
production machine against, and the source of the per-stage state counts
(``DesignResult.nfa_states`` etc.), which it computes only when read.

The worked example of Sections 4.2-4.7 (trace ``t``, N=2, final 3-state
machine) is reproduced verbatim in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.automata import regex as rx
from repro.automata.dfa import DFA, subset_construct
from repro.automata.hopcroft import hopcroft_minimize
from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.automata.nfa import NFA, thompson_construct
from repro.automata.startup import startup_state_count, steady_state_reduce
from repro.core import cancel
from repro.core.direct import direct_history_machine
from repro.core.markov import MarkovModel
from repro.core.patterns import PatternSets, define_patterns
from repro.core.regex_build import history_language_regex
from repro.logic.cube import Cube
from repro.logic.espresso import minimize as logic_minimize
from repro.obs.tracing import trace_span
from repro.reliability import faults
from repro.reliability.errors import DesignError, TraceError
from repro.reliability.faults import InjectedFault


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of the design flow.

    ``order``
        History length N (the paper uses 2-10; 9 for the custom branch
        predictors).
    ``bias_threshold``
        Minimum ``P[1|h]`` for the predict-1 set; 0.5 for plain branch
        prediction, swept upward for confidence estimation.
    ``dont_care_fraction``
        Share of the least-seen histories moved to the don't-care set
        (the paper recommends 0.01).
    ``canonical_history``
        The history that selects the start state; defaults to all zeros.
    ``verify``
        Prove every freshly designed machine against the paper's
        reference chain (:mod:`repro.reliability.verify`) before
        returning it, cache hits included.  Without it, cache hits still
        get the cheaper integrity check of ``_design_hit_ok``.
    """

    order: int = 4
    bias_threshold: float = 0.5
    dont_care_fraction: float = 0.0
    canonical_history: Optional[str] = None
    verify: bool = False

    def __post_init__(self) -> None:
        # Boundary validation with structured errors (DesignError is a
        # ValueError, so pre-hierarchy callers keep working).
        if not isinstance(self.order, int) or self.order < 1:
            raise DesignError(
                "order must be an integer >= 1",
                stage="config",
                order=self.order,
            )
        for name in ("bias_threshold", "dont_care_fraction"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise DesignError(
                    f"{name} must be a real number",
                    stage="config",
                    **{name: value},
                ) from None
            if math.isnan(value) or math.isinf(value):
                raise DesignError(
                    f"{name} must be finite, not {value!r}",
                    stage="config",
                    **{name: value},
                )
        if not 0.0 <= self.bias_threshold <= 1.0:
            raise DesignError(
                "bias_threshold must be in [0, 1]",
                stage="config",
                bias_threshold=self.bias_threshold,
            )
        if not 0.0 <= self.dont_care_fraction < 1.0:
            raise DesignError(
                "dont_care_fraction must be in [0, 1)",
                stage="config",
                dont_care_fraction=self.dont_care_fraction,
            )
        if self.canonical_history is not None:
            if len(self.canonical_history) != self.order:
                raise DesignError(
                    "canonical_history length must equal order",
                    stage="config",
                    canonical_history=self.canonical_history,
                    order=self.order,
                )
            if set(self.canonical_history) - {"0", "1"}:
                raise DesignError(
                    "canonical_history must be a 0/1 string",
                    stage="config",
                    canonical_history=self.canonical_history,
                )

    def cache_fields(self) -> tuple:
        """The semantic knobs, for cache keys.  ``verify`` is excluded:
        it changes what is *checked*, never what is produced, and must
        not split the key space."""
        return (
            self.order,
            self.bias_threshold,
            self.dont_care_fraction,
            self.canonical_history,
        )


@dataclass(frozen=True)
class ReferenceChain:
    """Every artifact of the paper's chain for one cover (Sections
    4.5-4.7).  ``nfa`` and ``dfa`` are ``None`` for the empty cover, whose
    machine is written down directly, and in the copy a
    :class:`DesignResult` memoizes, which keeps only their sizes."""

    regex: rx.Regex
    nfa: Optional[NFA]
    dfa: Optional[DFA]
    nfa_states: int
    dfa_states: int
    minimized: MooreMachine
    final: MooreMachine
    startup_removed: int


def reference_chain(
    cover: Sequence[Cube],
    order: int,
    canonical_history: Optional[str] = None,
) -> ReferenceChain:
    """The paper's construction: regex -> Thompson NFA -> subset DFA ->
    Hopcroft -> start-state reduction (re-minimized when states go).

    Shares no construction code with the production path beyond Hopcroft,
    so its ``final`` machine is the reference production is checked
    against.  Every stage is called through this module's bindings, after
    a cancellation checkpoint (served requests read the counts).
    """
    cancel.checkpoint("regex")
    with trace_span("design.regex", product_terms=len(cover)):
        regex = history_language_regex(cover)
    if isinstance(regex, rx.EmptySet):
        # Never predict 1: the one-state always-0 machine.
        machine = MooreMachine(BINARY_ALPHABET, 0, (0,), ((0, 0),))
        return ReferenceChain(regex, None, None, 0, 1, machine, machine, 0)
    cancel.checkpoint("compile")
    with trace_span("design.nfa") as span:
        nfa = thompson_construct(regex, alphabet=BINARY_ALPHABET)
        span.set(states=nfa.num_states)
    with trace_span("design.dfa", nfa_states=nfa.num_states) as span:
        dfa = subset_construct(nfa)
        span.set(states=dfa.num_states)
    with trace_span("design.minimize", dfa_states=dfa.num_states) as span:
        minimized = hopcroft_minimize(MooreMachine.from_dfa(dfa))
        span.set(states=minimized.num_states)
    final = minimized
    removed = 0
    if minimized.num_states > 1:
        cancel.checkpoint("startup_reduce")
        with trace_span(
            "design.startup", order=order, states_in=minimized.num_states
        ) as span:
            removed = startup_state_count(minimized, order)
            # Run the reduction even when no states get removed: it also
            # moves the start to the canonical-history state, so the
            # predictor powers up as if it had seen that history.
            final = steady_state_reduce(
                minimized, order, canonical_history=canonical_history
            )
            if removed:
                # Reduction can expose new merges; re-minimize.
                final = hopcroft_minimize(final)
            span.set(removed=removed, states_out=final.num_states)
    return ReferenceChain(
        regex, nfa, dfa, nfa.num_states, dfa.num_states, minimized, final, removed
    )


def production_machine(
    cover: Sequence[Cube],
    order: int,
    canonical_history: Optional[str] = None,
) -> MooreMachine:
    """The 2^N-state history machine of ``cover``, started at the canonical
    history and Hopcroft-minimized through this module's binding: exactly
    the reference chain's final machine."""
    return hopcroft_minimize(
        direct_history_machine(
            cover, order, start_history=canonical_history or "", minimize=False
        )
    )


@dataclass
class DesignResult:
    """Every artifact of one run of the design flow.

    ``regex`` and the per-stage state counts belong to the paper's chain,
    which production does not run: they come from one memoized
    :func:`reference_chain` run, made the first time any of them (or
    verification) is asked for.  The memo is never pickled, so a cached
    result always rebuilds its reference from the cover.
    """

    config: DesignConfig
    model: MarkovModel
    patterns: PatternSets
    cover: List[Cube]
    machine: MooreMachine
    _reference: Optional[ReferenceChain] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_reference"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # A payload that smuggles a memo in must not vouch for itself.
        self.__dict__.update(state)
        self._reference = None

    def reference(self) -> ReferenceChain:
        """The reference chain for this result's cover (memoized without
        its NFA and DFA: sweeps hold many results, and a large design's
        automata weigh megabytes)."""
        if self._reference is None:
            chain = reference_chain(
                self.cover, self.config.order, self.config.canonical_history
            )
            self._reference = replace(chain, nfa=None, dfa=None)
        return self._reference

    @property
    def regex(self) -> rx.Regex:
        return self.reference().regex

    @property
    def nfa_states(self) -> int:
        return self.reference().nfa_states

    @property
    def dfa_states(self) -> int:
        return self.reference().dfa_states

    @property
    def minimized_states(self) -> int:
        """States after Hopcroft, before start-state reduction."""
        return self.reference().minimized.num_states

    @property
    def startup_states_removed(self) -> int:
        return self.reference().startup_removed

    @property
    def num_states(self) -> int:
        """State count of the final predictor."""
        return self.machine.num_states

    def cover_strings(self) -> List[str]:
        """The minimized patterns in the paper's ``{0,1,x}`` notation."""
        return [str(c).replace("-", "x") for c in self.cover]

    def summary(self) -> str:
        return (
            f"order={self.config.order} "
            f"cover={'|'.join(self.cover_strings()) or '(empty)'} "
            f"nfa={self.nfa_states} dfa={self.dfa_states} "
            f"minimized={self.minimized_states} "
            f"startup_removed={self.startup_states_removed} "
            f"final={self.num_states}"
        )


class FSMDesigner:
    """Runs the automated design flow for one configuration."""

    def __init__(self, config: DesignConfig):
        self.config = config

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def design_from_trace(self, trace: Sequence[int]) -> DesignResult:
        """Full flow starting from a raw 0/1 trace.

        Memoized on disk: the flow is a pure function of (trace, config),
        so the result is cached under the trace digest, the config, and the
        design-flow version salt (see :mod:`repro.perf.cache`).

        Degenerate traces have defined behaviour (see DESIGN.md): an empty
        trace, or one too short to observe a single history->outcome
        transition (``len(trace) <= order``), raises :class:`TraceError`;
        a constant all-0/all-1 trace designs the one-state constant
        predictor.
        """
        self._validate_trace(trace)
        try:
            trace_bytes = bytes(bytearray(trace))
        except (TypeError, ValueError):
            trace_bytes = None  # exotic elements: skip caching, still design
        if trace_bytes is None:
            model = MarkovModel.from_trace(trace, self.config.order)
            return self.design_from_model(model)

        def compute() -> DesignResult:
            cancel.checkpoint("markov")
            with trace_span(
                "design.markov",
                trace_len=len(trace),
                order=self.config.order,
            ) as span:
                model = MarkovModel.from_trace(trace, self.config.order)
                span.set(histories=len(model.totals))
            return self._design_from_model(model)

        return self._cached_flow("trace", (trace_bytes,), compute)

    def design_from_model(self, model: MarkovModel) -> DesignResult:
        """Full flow starting from a pre-built Markov model (the branch
        flow builds per-branch models during one profiling pass).

        Cached like :meth:`design_from_trace`, keyed by the model's sorted
        count tables instead of a raw trace.
        """
        return self._cached_flow(
            "model",
            (
                model.order,
                tuple(sorted(model.totals.items())),
                tuple(sorted(model.ones.items())),
            ),
            lambda: self._design_from_model(model),
        )

    def _cached_flow(self, source: str, key_parts: tuple, compute) -> DesignResult:
        """One disk-memoized run of the flow under a ``design.flow`` span,
        keyed by ``key_parts``, the config's semantic fields and the
        design-flow version salt; verified afterwards when the config
        asks for it."""
        from repro.perf.cache import DESIGN_FLOW_VERSION, cached, digest_of

        key = digest_of(
            f"design-from-{source}",
            *key_parts,
            self.config.cache_fields(),
            DESIGN_FLOW_VERSION,
        )
        with trace_span(
            "design.flow",
            source=source,
            order=self.config.order,
            bias_threshold=self.config.bias_threshold,
        ) as span:
            result = cached("designs", key, compute, validate=_design_hit_ok)
            span.set(final_states=result.num_states)
        if self.config.verify:
            from repro.reliability.verify import verify_design

            cancel.checkpoint("verify")
            verify_design(result)
        return result

    def _validate_trace(self, trace: Sequence[int]) -> None:
        try:
            length = len(trace)
        except TypeError:
            raise TraceError(
                "trace must be a sequence of 0/1 outcomes",
                stage="profile",
                trace_type=type(trace).__name__,
            ) from None
        if length == 0:
            raise TraceError("empty trace", stage="profile", order=self.config.order)
        if length <= self.config.order:
            raise TraceError(
                f"trace of length {length} observes no history->outcome "
                f"transition at order {self.config.order}; provide at "
                "least order+1 outcomes",
                stage="profile",
                trace_length=length,
                order=self.config.order,
            )

    def _design_from_model(self, model: MarkovModel) -> DesignResult:
        self._stage("define_patterns")
        if model.order != self.config.order:
            model = model.truncated(self.config.order)
        with trace_span(
            "design.patterns",
            order=self.config.order,
            histories=len(model.totals),
        ) as span:
            patterns = define_patterns(
                model,
                bias_threshold=self.config.bias_threshold,
                dont_care_fraction=self.config.dont_care_fraction,
            )
            span.set(
                predict_one=len(patterns.predict_one),
                predict_zero=len(patterns.predict_zero),
            )
        return self.design_from_patterns(model, patterns)

    def design_from_patterns(
        self, model: MarkovModel, patterns: PatternSets
    ) -> DesignResult:
        """Remaining flow once the three history sets are fixed."""
        self._stage("logic_minimize")
        with trace_span(
            "design.cover",
            order=self.config.order,
            on_set=len(patterns.predict_one),
            off_set=len(patterns.predict_zero),
        ) as span:
            cover = logic_minimize(patterns.to_truth_table())
            span.set(product_terms=len(cover))
        self._stage("direct")
        with trace_span(
            "design.direct", order=self.config.order, product_terms=len(cover)
        ) as span:
            machine = production_machine(
                cover, self.config.order, self.config.canonical_history
            )
            span.set(states=machine.num_states)
        return DesignResult(
            config=self.config,
            model=model,
            patterns=patterns,
            cover=cover,
            machine=machine,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stage(self, name: str) -> None:
        """Stage boundary: the cooperative cancellation checkpoint (a
        served request whose deadline has passed stops *between* stages,
        see :mod:`repro.core.cancel`) and host of the ``stage_fail``
        fault point.  An injected stage failure surfaces as a structured
        :class:`DesignError` naming the stage -- the contract every sweep
        relies on (fail loudly, never return a wrong machine)."""
        cancel.checkpoint(name)
        try:
            faults.fire("stage_fail")
        except InjectedFault as exc:
            raise DesignError(
                f"stage {name!r} failed",
                stage=name,
                order=self.config.order,
                bias_threshold=self.config.bias_threshold,
            ) from exc


def _design_hit_ok(value) -> bool:
    """Cache-hit integrity check: a loaded ``DesignResult``'s cover must
    agree with its pattern sets and its machine must equal the production
    build of that cover, so a loadable entry with a wrong machine (bit-rot,
    version skew, tampering) is quarantined and recomputed rather than
    poisoning every figure that reads it.  Cheaper than ``verify_design``:
    a hit never runs the reference chain."""
    from repro.reliability.verify import cover_issues

    try:
        return (
            isinstance(value, DesignResult)
            and not cover_issues(value)
            and value.machine
            == production_machine(
                value.cover, value.config.order, value.config.canonical_history
            )
        )
    except Exception:  # malformed artifact: anything goes when poisoned
        return False


def design_predictor(
    trace: Sequence[int],
    order: int = 4,
    bias_threshold: float = 0.5,
    dont_care_fraction: float = 0.0,
    verify: bool = False,
) -> DesignResult:
    """One-call convenience wrapper: trace in, designed predictor out."""
    config = DesignConfig(
        order=order,
        bias_threshold=bias_threshold,
        dont_care_fraction=dont_care_fraction,
        verify=verify,
    )
    return FSMDesigner(config).design_from_trace(trace)
