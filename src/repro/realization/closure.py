"""Transitive closure of realization facts (the rules of Sec. 3.4).

Realization relations compose: if B realizes A in sense ``r1`` and C
realizes B in sense ``r2``, then C realizes A in the weaker of the two
senses.  Contrapositives give the negative rules the paper illustrates
in Fig. 2:

* *push the tail forward*: if B realizes A strictly more strongly than
  C can realize A, then C cannot realize B at that stronger level —
  ``lo(A→B) > hi(A→C)  ⟹  hi(B→C) ≤ hi(A→C)``;
* *pull the head backward*: if C realizes A strictly more strongly than
  C can realize B, then A cannot realize B at that level —
  ``lo(A→C) > hi(B→C)  ⟹  hi(B→A) ≤ hi(B→C)``.

Running the three rules to fixpoint over the foundational facts of
:mod:`repro.realization.facts` regenerates the content of Figures 3
and 4.  ``(A → B)`` here always reads "B realizes A".
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from ..models.taxonomy import ALL_MODELS, CommunicationModel
from .facts import Fact, foundational_facts
from .relations import Bounds, Level

__all__ = ["RealizationMatrix", "derive_matrix"]


class RealizationMatrix:
    """Bounds on "B realizes A" for every ordered model pair."""

    def __init__(self, models: Iterable[CommunicationModel] = ALL_MODELS) -> None:
        self.models = tuple(models)
        self._bounds: dict = {
            (a, b): Bounds() for a in self.models for b in self.models
        }
        # Provenance: why each bound currently holds, for `explain`.
        self._lo_reason: dict = {}
        self._hi_reason: dict = {}

    # ------------------------------------------------------------------
    def get(self, realized: CommunicationModel, realizer: CommunicationModel) -> Bounds:
        """Current bounds on "``realizer`` realizes ``realized``"."""
        return self._bounds[(realized, realizer)]

    def set(self, realized, realizer, bounds: Bounds, reason=None) -> bool:
        """Tighten an entry; returns True if anything changed."""
        key = (realized, realizer)
        old = self._bounds[key]
        try:
            tightened = old.tighten(bounds)
        except ValueError as exc:
            raise ValueError(
                f"contradiction at ({realized} realized by {realizer}): {exc}"
            ) from exc
        if tightened != old:
            self._bounds[key] = tightened
            if reason is not None:
                if tightened.lo > old.lo:
                    self._lo_reason[key] = reason
                if tightened.hi < old.hi:
                    self._hi_reason[key] = reason
            return True
        return False

    def absorb_facts(self, facts: Iterable[Fact]) -> None:
        for fact in facts:
            self.set(
                fact.realized,
                fact.realizer,
                fact.bounds,
                reason=("fact", fact.source),
            )

    # ------------------------------------------------------------------
    def close(self, max_rounds: int = 64) -> int:
        """Run the three rules to fixpoint; returns the round count.

        The rules run over flat ``lo``/``hi`` level lists indexed
        ``a * n + b``: keyed by model pairs, the 24³ loop would hash
        frozen model dataclasses about a million times per fixpoint.
        The visiting order and the values each rule reads (``ab`` once
        per ``(a, b)``, ``bc`` once per ``c``, everything else current)
        fix which rule tightens an entry first, and so its provenance;
        ``tests/realization/test_closure.py`` pins the result.
        """
        models = self.models
        n = len(models)
        keys = [(a, b) for a in models for b in models]
        lo = [int(self._bounds[key].lo) for key in keys]
        hi = [int(self._bounds[key].hi) for key in keys]
        lo_reason, hi_reason = self._lo_reason, self._hi_reason
        for round_number in range(1, max_rounds + 1):
            changed = False
            for a in range(n):
                row_a = a * n
                for b in range(n):
                    row_b = b * n
                    ab_lo = lo[row_a + b]
                    ba = row_b + a
                    for c in range(n):
                        ac = row_a + c
                        bc = row_b + c
                        bc_lo, bc_hi = lo[bc], hi[bc]
                        # Positive composition: C realizes A through B.
                        composed = ab_lo if ab_lo < bc_lo else bc_lo
                        if composed > lo[ac]:
                            if composed > hi[ac]:
                                self._contradict(
                                    keys, lo, hi, ac, Bounds.at_least(Level(composed))
                                )
                            lo[ac] = composed
                            lo_reason[keys[ac]] = ("compose", models[b])
                            changed = True
                        # Negative "push tail": B's strong realization of A
                        # caps anything that realizes B poorly w.r.t. A.
                        ac_hi = hi[ac]
                        if ab_lo > ac_hi and ac_hi < bc_hi:
                            if lo[bc] > ac_hi:
                                self._contradict(
                                    keys, lo, hi, bc, Bounds.at_most(Level(ac_hi))
                                )
                            hi[bc] = ac_hi
                            hi_reason[keys[bc]] = ("push", models[a])
                            changed = True
                        # Negative "pull head": C realizes A strongly but
                        # cannot realize B; then A cannot realize B either.
                        if lo[ac] > bc_hi and bc_hi < hi[ba]:
                            if lo[ba] > bc_hi:
                                self._contradict(
                                    keys, lo, hi, ba, Bounds.at_most(Level(bc_hi))
                                )
                            hi[ba] = bc_hi
                            hi_reason[keys[ba]] = ("pull", models[c])
                            changed = True
            if not changed:
                self._store(keys, lo, hi)
                return round_number
        self._store(keys, lo, hi)
        raise RuntimeError("closure did not stabilize (should be impossible)")

    def _store(self, keys: list, lo: list, hi: list) -> None:
        """Write the flat ``lo``/``hi`` lists of :meth:`close` back."""
        bounds = self._bounds
        for key, low, high in zip(keys, lo, hi):
            old = bounds[key]
            if old.lo != low or old.hi != high:
                bounds[key] = Bounds(Level(low), Level(high))

    def _contradict(self, keys, lo, hi, index: int, bounds: Bounds) -> None:
        """Store the closure's state, then let :meth:`set` raise the
        contradiction between entry ``index`` and ``bounds``."""
        self._store(keys, lo, hi)
        self.set(*keys[index], bounds)
        raise AssertionError(f"{bounds} does not contradict {keys[index]}")

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A copy of the full matrix keyed by (realized, realizer)."""
        return dict(self._bounds)

    def row(self, realized: CommunicationModel) -> dict:
        """realizer → bounds for a fixed realized model (a paper row)."""
        return {b: self._bounds[(realized, b)] for b in self.models}

    def column(self, realizer: CommunicationModel) -> dict:
        """realized → bounds for a fixed realizer (a paper column)."""
        return {a: self._bounds[(a, realizer)] for a in self.models}

    def universal_realizers(self, level: Level = Level.OSCILLATION) -> tuple:
        """Models realizing *every* model at ≥ ``level``.

        With the default level this computes the paper's headline list:
        the models that capture all oscillations of the whole taxonomy
        (R1O, RMO, R1S, RMS, RES, R1F, RMF and the unreliable column).
        """
        return tuple(
            b
            for b in self.models
            if all(
                self._bounds[(a, b)].lo >= level for a in self.models if a is not b
            )
        )

    def explain(
        self,
        realized: CommunicationModel,
        realizer: CommunicationModel,
        max_depth: int = 8,
    ) -> list:
        """A human-readable derivation of the entry's bounds.

        Walks the provenance recorded while closing the matrix: each
        lower bound traces back through composition steps to
        foundational facts, each upper bound through the negative
        "push"/"pull" rules of Sec. 3.4.  Returns a list of indented
        lines.
        """
        lines: list = []
        bounds = self.get(realized, realizer)
        lines.append(
            f"{realizer} realizes {realized}: {bounds.render() or 'unknown'}"
        )
        self._explain_side(realized, realizer, "lo", lines, set(), 1, max_depth)
        self._explain_side(realized, realizer, "hi", lines, set(), 1, max_depth)
        return lines

    def _explain_side(self, a, b, side, lines, seen, depth, max_depth) -> None:
        key = (a, b)
        if depth > max_depth or (key, side) in seen:
            return
        seen.add((key, side))
        reasons = self._lo_reason if side == "lo" else self._hi_reason
        reason = reasons.get(key)
        indent = "  " * depth
        bounds = self._bounds[key]
        value = bounds.lo if side == "lo" else bounds.hi
        if reason is None:
            if side == "lo" and a is b:
                lines.append(f"{indent}lo={value.short}: identity")
            elif (side == "lo" and value > Level.NONE) or (
                side == "hi" and value < Level.EXACT
            ):
                lines.append(f"{indent}{side}={value.short}: (given)")
            return
        kind, via = reason
        if kind == "fact":
            lines.append(f"{indent}{side}={value.short}: {via}")
            return
        if kind == "compose":
            lines.append(
                f"{indent}lo={value.short}: compose {via} realizes {a}, "
                f"{b} realizes {via}"
            )
            self._explain_side(a, via, "lo", lines, seen, depth + 1, max_depth)
            self._explain_side(via, b, "lo", lines, seen, depth + 1, max_depth)
            return
        if kind == "push":
            lines.append(
                f"{indent}hi={value.short}: push rule via {via}: "
                f"lo({via}→{a}) > hi({via}→{b})"
            )
            self._explain_side(via, a, "lo", lines, seen, depth + 1, max_depth)
            self._explain_side(via, b, "hi", lines, seen, depth + 1, max_depth)
            return
        # pull
        lines.append(
            f"{indent}hi={value.short}: pull rule via {via}: "
            f"lo({b}→{via}) > hi({a}→{via})"
        )
        self._explain_side(b, via, "lo", lines, seen, depth + 1, max_depth)
        self._explain_side(a, via, "hi", lines, seen, depth + 1, max_depth)

    def non_preservers(self) -> tuple:
        """Models provably missing some other model's oscillations."""
        return tuple(
            b
            for b in self.models
            if any(
                self._bounds[(a, b)].hi == Level.NONE
                for a in self.models
                if a is not b
            )
        )


def derive_matrix(facts: "Iterable[Fact] | None" = None) -> RealizationMatrix:
    """Build the closed matrix from (by default) the foundational facts."""
    matrix = RealizationMatrix()
    matrix.absorb_facts(foundational_facts() if facts is None else facts)
    matrix.close()
    return matrix


@cache
def _shared_matrix() -> RealizationMatrix:
    """The closed matrix of the foundational facts, derived once per
    process for the CLI, the experiments and the artifact writer.

    Every caller shares the same object, so it is read-only by
    convention; :func:`derive_matrix` returns a fresh one to extend.
    """
    return derive_matrix()
