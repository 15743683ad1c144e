"""Differential tests: the packed engine against the reference engine.

``engine="packed"`` (``repro.engine.packed``, the default) re-implements
the reference bounded search (``repro.engine.explorer``, the oracle of
Def. 2.1–2.3) over single-integer state words and quotients the search
by the instance's automorphism group.  These tests pin its external
contract against the reference engine:

* on instances with a **trivial** automorphism group the quotient is
  the identity, so every field — verdict, completeness, state/prune
  counts, and the witness itself — is **bit-identical** to reference;
* on **symmetric** instances ``oscillates`` is identical, ``complete``
  is monotone (the quotient graph is never larger, so bounded coverage
  never shrinks), and witnesses — reconstructed by orbit-unwinding —
  still replay as model-legal periodic oscillations;
* the optional numpy/scipy vector path and the pure-stdlib path
  (``REPRO_NO_NUMPY=1``) produce identical results;
* the orbit canonicalizer is idempotent and invariant under the group
  action (the state-level face of label-invariance).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core import instances as gadgets
from repro.core.canonical import automorphisms
from repro.core.generators import random_instance
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer, can_oscillate
from repro.engine.packed import PackedExplorer
from repro.engine.state import NetworkState
from repro.models.constraints import is_legal_entry
from repro.models.taxonomy import ALL_MODELS, model

model_indexes = st.integers(min_value=0, max_value=len(ALL_MODELS) - 1)
seeds = st.integers(min_value=0, max_value=10_000)
SLOW = dict(max_examples=25, deadline=None)

SINGLE_NODE_MODELS = [m for m in ALL_MODELS if m.concurrency.name == "ONE"]

SYMMETRIC = (gadgets.disagree, gadgets.bad_gadget, gadgets.good_gadget)

#: fig6 models whose searches are truncated at any bound; against the
#: reference engine they dominate the all-model sweep, so they run at
#: a 5 000-state budget (truncation and overflow paths still covered).
FIG6_TRUNCATED = frozenset({"UEO", "UES", "UEF", "UEA"})


def result_tuple(result):
    return (
        result.model_name,
        result.instance_name,
        result.oscillates,
        result.complete,
        result.states_explored,
        result.truncated_states,
        result.states_pruned,
    )


def explore(instance, m, engine, reduction="ample", queue_bound=2,
            max_states=20_000):
    return Explorer(
        instance,
        m,
        queue_bound=queue_bound,
        max_states=max_states,
        engine=engine,
        reduction=reduction,
    ).explore()


def assert_bit_identical(instance, m, reduction="ample", queue_bound=2,
                         max_states=20_000):
    reference = explore(instance, m, "reference", reduction, queue_bound,
                        max_states)
    packed = explore(instance, m, "packed", reduction, queue_bound,
                     max_states)
    assert result_tuple(packed) == result_tuple(reference), m.name
    assert packed.witness == reference.witness, m.name
    return packed


def assert_monotone_results(packed, reference, name):
    assert packed.oscillates == reference.oscillates, name
    # The quotient graph is never larger than the concrete graph, so
    # the packed search can only certify more, never less — the same
    # monotonicity the ample reduction is pinned to.
    assert packed.complete >= reference.complete, name
    if reference.complete and packed.complete:
        assert packed.states_explored <= reference.states_explored, name


def assert_monotone_contract(instance, m, reduction="ample", queue_bound=2,
                             max_states=20_000):
    reference = explore(instance, m, "reference", reduction, queue_bound,
                        max_states)
    packed = explore(instance, m, "packed", reduction, queue_bound,
                     max_states)
    assert_monotone_results(packed, reference, m.name)
    return packed


def assert_engines_agree(instance, m, **bounds):
    """Bit-identity on trivial-group instances, the contract otherwise."""
    if len(automorphisms(instance)) == 1:
        return assert_bit_identical(instance, m, **bounds)
    return assert_monotone_contract(instance, m, **bounds)


class TestTrivialGroupBitIdentity:
    """fig6/fig7 have identity-only groups: packed must equal reference
    in every observable, including the oscillation witness."""

    @pytest.mark.parametrize("m", SINGLE_NODE_MODELS, ids=lambda m: m.name)
    def test_fig6_all_models(self, fig6, m):
        assert len(automorphisms(fig6)) == 1
        max_states = 5_000 if m.name in FIG6_TRUNCATED else 20_000
        assert_bit_identical(fig6, m, max_states=max_states)

    @pytest.mark.parametrize("name", ("R1O", "REO", "RMS", "REA", "UEA"))
    def test_fig7_representative_models(self, fig7, name):
        assert len(automorphisms(fig7)) == 1
        assert_bit_identical(fig7, model(name))

    @pytest.mark.parametrize("reduction", ("ample", "none"))
    def test_fig6_without_and_with_reduction(self, fig6, reduction):
        assert_bit_identical(fig6, model("R1O"), reduction=reduction)
        assert_bit_identical(fig6, model("UMS"), reduction=reduction)

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_asymmetric_instances(self, seed, model_index):
        m = ALL_MODELS[model_index]
        if m.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        if len(automorphisms(instance)) != 1:
            return  # symmetric draws are covered by the contract tests
        assert_bit_identical(instance, m, max_states=5_000)


class TestSymmetricContract:
    @pytest.mark.parametrize("m", SINGLE_NODE_MODELS, ids=lambda m: m.name)
    def test_disagree_all_models(self, disagree, m):
        assert_monotone_contract(disagree, m, queue_bound=3)

    @pytest.mark.parametrize(
        "factory", SYMMETRIC, ids=lambda f: f.__name__
    )
    def test_gadgets_representative_models(self, factory):
        instance = factory()
        for name in ("R1O", "REO", "RMS", "REA", "U1S", "UEA"):
            assert_monotone_contract(instance, model(name))

    @pytest.mark.parametrize(
        "factory", SYMMETRIC, ids=lambda f: f.__name__
    )
    def test_gadgets_without_reduction(self, factory):
        instance = factory()
        for name in ("R1O", "UEA"):
            assert_monotone_contract(instance, model(name),
                                     reduction="none")

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_instances_any_group(self, seed, model_index):
        m = ALL_MODELS[model_index]
        if m.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        assert_monotone_contract(instance, m, max_states=5_000)


class TestPackedWitnesses:
    @pytest.mark.parametrize(
        "factory,name",
        [
            (gadgets.disagree, "R1O"),
            (gadgets.disagree, "RMS"),
            (gadgets.bad_gadget, "REA"),
            (gadgets.bad_gadget, "R1O"),
            (gadgets.fig6_gadget, "R1O"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_witness_replays_and_cycles(self, factory, name):
        instance = factory()
        explorer = Explorer(
            instance, model(name), queue_bound=3, reduction="ample",
            engine="packed",
        )
        result = explorer.explore()
        assert result.oscillates and result.witness is not None
        execution = Execution(instance)
        for entry in result.witness.prefix:
            assert is_legal_entry(model(name), instance, entry)
            execution.step(entry)
        cycle_start = explorer.canonicalize(execution.state)
        assignments = set()
        for entry in result.witness.cycle:
            assert is_legal_entry(model(name), instance, entry)
            execution.step(entry)
            assignments.add(execution.state.assignment_key)
        assert explorer.canonicalize(execution.state) == cycle_start
        assert len(assignments) >= 2


class TestStdlibPath:
    """REPRO_NO_NUMPY=1 switches off the vector SCC/fairness passes;
    every observable must be unchanged."""

    @pytest.mark.parametrize(
        "factory", (gadgets.disagree, gadgets.fig6_gadget),
        ids=lambda f: f.__name__,
    )
    def test_stdlib_matches_vectorized(self, factory, monkeypatch):
        instance = factory()
        for name in ("R1O", "RMS", "UEA"):
            monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
            vec = explore(instance, model(name), "packed")
            monkeypatch.setenv("REPRO_NO_NUMPY", "1")
            std = explore(instance, model(name), "packed")
            assert result_tuple(std) == result_tuple(vec)
            assert std.witness == vec.witness

    def test_stdlib_explorer_has_no_vector_libs(self, disagree, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        packed = PackedExplorer(disagree, model("R1O"))
        assert packed._np is None and packed._sp is None


class TestOrbitCanonicalizer:
    """Idempotence and group-invariance of ``_orbit_min`` — the
    state-level counterpart of the instance-level label-invariance
    pinned in tests/core/test_canonical.py."""

    @staticmethod
    def _sample_words(instance, name, limit=60):
        packed = PackedExplorer(instance, model(name), queue_bound=2)
        reference = Explorer(instance, model(name), queue_bound=2,
                             engine="reference")
        init = reference.canonicalize(NetworkState.initial(instance))
        seen = {init}
        frontier = [init]
        while frontier and len(seen) < limit:
            nxt = []
            for state in frontier:
                for _entry, succ in reference.successors(state):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            frontier = nxt
        codec = packed.codec
        return packed, [
            packed._encode(codec.pack_state(state)) for state in seen
        ]

    @pytest.mark.parametrize(
        "factory,name",
        [(gadgets.disagree, "R1O"), (gadgets.bad_gadget, "UEA")],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_idempotent_and_group_invariant(self, factory, name):
        instance = factory()
        packed, words = self._sample_words(instance, name)
        assert packed._gsize == len(automorphisms(instance)) > 1
        for word in words:
            rep, tau = packed._orbit_min(word)
            # The stored τ actually maps the raw word onto its rep.
            assert packed._image(word, tau) == rep
            # Idempotence: a representative is its own representative.
            assert packed._orbit_min(rep) == (rep, 0)
            # Invariance: every relabeled image of the state (the
            # whole orbit) canonicalizes to the same representative.
            for g in range(packed._gsize):
                assert packed._orbit_min(packed._image(word, g))[0] == rep

    @settings(**SLOW)
    @given(seeds)
    def test_random_symmetric_states(self, seed):
        instance = random_instance(seed % 40, n_nodes=3)
        packed, words = self._sample_words(instance, "R1O", limit=25)
        trivial = packed._gsize == 1
        for word in words[:10]:
            rep, tau = packed._orbit_min(word)
            if trivial:
                # No symmetry: every state is its own orbit, and the
                # permutation tables are never built.
                assert (rep, tau) == (word, 0)
            else:
                assert packed._image(word, tau) == rep
            assert packed._orbit_min(rep) == (rep, 0)


class TestAccountingAndSelection:
    def test_orbit_merging_shrinks_disagree(self, disagree):
        reference = explore(disagree, model("R1O"), "reference",
                            queue_bound=3)
        packed = explore(disagree, model("R1O"), "packed", queue_bound=3)
        assert packed.states_explored < reference.states_explored

    def test_unknown_engine_rejected(self, disagree):
        with pytest.raises(ValueError, match="unknown engine"):
            Explorer(disagree, model("R1O"), engine="vectorized")

    def test_packed_engine_attribute(self, disagree):
        explorer = Explorer(disagree, model("R1O"), engine="packed")
        assert explorer.engine == "packed"


class TestExplorerEquivalence:
    """Packed against reference on the gadgets and bounds the explorer
    has always been pinned at, through ``Explorer`` and
    ``can_oscillate`` (DISAGREE's all-model sweep and the unknown-engine
    check live in the classes above)."""

    def test_fig6_truncated_and_complete_searches(self, fig6):
        # Includes truncated searches, checkpoint-triggered early exits,
        # and the max_states overflow path.
        for name in ("R1O", "REO", "RMS", "REA", "UMS"):
            assert_engines_agree(
                fig6, model(name), queue_bound=2, max_states=5_000
            )

    def test_fig7_verdicts(self, fig7):
        for name in ("R1O", "REA", "U1S"):
            assert_engines_agree(
                fig7, model(name), queue_bound=2, max_states=5_000
            )

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_instances_identical_results(self, seed, model_index):
        m = ALL_MODELS[model_index]
        if m.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        assert_engines_agree(instance, m, queue_bound=2, max_states=3_000)

    def test_can_oscillate_engine_parameter(self, disagree):
        for name in ("R1O", "REA", "UMS", "UEA"):
            packed = can_oscillate(
                disagree, model(name), config=RunConfig(queue_bound=3, engine="packed")
            )
            reference = can_oscillate(
                disagree,
                model(name),
                config=RunConfig(queue_bound=3, engine="reference"),
            )
            assert_monotone_results(packed, reference, name)

    def test_packed_explorer_rejects_multi_node_models(self, disagree):
        from repro.models.dimensions import NodeConcurrency

        multi = model("R1A").with_concurrency(NodeConcurrency.UNRESTRICTED)
        with pytest.raises(ValueError):
            PackedExplorer(disagree, multi)
