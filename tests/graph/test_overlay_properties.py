"""Property tests of the overlay algebra.

Random edit sequences — skill and edge adds/removes (with pairs that
cancel out), ``branch()`` and one-pass SHAP coalition builds
(:func:`~repro.explain.features.masked_inputs`) — run against an overlay
whose ``flips()`` is read after every step, so a stale cached delta
would show.  The same sequence is replayed one call at a time on a
second overlay, and every branch left behind is checked never to see the
edits made after it was taken.

``commit()`` gets the same treatment: the committed base must equal a
``copy()`` edited one call at a time and, since both go through
``apply_delta``, a network built from scratch (``from_parts``) over a
plain Python-set model of the same edits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import toy_network
from repro.explain.features import (
    EdgeFeature,
    QueryTermFeature,
    SkillAssignmentFeature,
    _masked_inputs_stepwise,
    masked_inputs,
)
from repro.graph import CollaborationNetwork, NetworkOverlay

N_PEOPLE = 8
SKILLS = ("alpha", "beta", "gamma", "delta")
QUERY = frozenset({"alpha", "beta"})

NET = toy_network(n_people=N_PEOPLE, seed=5)

person = st.integers(min_value=0, max_value=N_PEOPLE - 1)
pair = st.tuples(person, person).filter(lambda uv: uv[0] != uv[1])
skill = st.sampled_from(SKILLS + tuple(sorted(NET.skill_universe()))[:4])

skill_edit = st.tuples(
    st.sampled_from(["add_skill", "remove_skill", "cancel_skill"]), person, skill
)
edge_edit = st.tuples(st.sampled_from(["add_edge", "remove_edge", "cancel_edge"]), pair)
edit = st.one_of(
    skill_edit,
    edge_edit,
    st.tuples(st.just("branch"), st.booleans()),
    st.tuples(st.just("coalition"), st.lists(st.booleans(), min_size=1, max_size=16)),
)


def _recomputed(overlay):
    """flips() rebuilt from the live flip dicts."""
    return frozenset(
        {("s", p, s, added) for (p, s), added in overlay.skill_flips().items()}
        | {("e", u, v, added) for (u, v), added in overlay.edge_flips().items()}
    )


def _held_features(overlay, bits):
    """A coalition's feature list over ``overlay``'s current view: a
    seeded pick of held skills and present edges, one per mask bit."""
    features = [
        SkillAssignmentFeature(p, s)
        for p in range(N_PEOPLE)
        for s in sorted(overlay.skills(p))
    ] + [EdgeFeature(u, v) for u, v in sorted(overlay.edges())]
    rng = np.random.default_rng(len(bits))
    order = rng.permutation(len(features))[: len(bits)]
    return [features[i] for i in order]


def _apply(overlay, step):
    """One skill or edge edit, one call at a time (on an overlay or a
    network — both expose the same edit calls)."""
    kind = step[0]
    if kind == "add_skill":
        overlay.add_skill(step[1], step[2])
    elif kind == "remove_skill":
        overlay.remove_skill(step[1], step[2])
    elif kind == "cancel_skill":
        if overlay.add_skill(step[1], step[2]):
            overlay.remove_skill(step[1], step[2])
        elif overlay.remove_skill(step[1], step[2]):
            overlay.add_skill(step[1], step[2])
    elif kind in ("add_edge", "remove_edge"):
        getattr(overlay, kind)(*step[1])
    elif kind == "cancel_edge":
        if overlay.add_edge(*step[1]):
            overlay.remove_edge(*step[1])
        elif overlay.remove_edge(*step[1]):
            overlay.add_edge(*step[1])


@given(st.lists(edit, max_size=20))
@settings(max_examples=120, deadline=None)
def test_cached_flips_track_every_edit(steps):
    current = NetworkOverlay(NET)
    replay = NetworkOverlay(NET)
    frozen = []  # (overlay no longer edited, its flips when it stopped)
    for step in steps:
        if step[0] == "branch":
            child, replay_child = current.branch(), replay.branch()
            assert child.flips() == current.flips()
            if step[1]:  # keep editing the parent, freeze the branch
                frozen.append((child, child.flips()))
            else:  # continue on the branch, freeze the parent
                frozen.append((current, current.flips()))
                current, replay = child, replay_child
        elif step[0] == "coalition":
            features = _held_features(current, step[1])
            mask = np.array(step[1][: len(features)], dtype=bool)
            built, _ = masked_inputs(features, mask, QUERY, current)
            stepwise, _ = _masked_inputs_stepwise(features, mask, QUERY, replay)
            assert (built is current) == (stepwise is replay)
            if built is not current:  # removals landed on a new overlay
                frozen.append((current, current.flips()))  # the source stays put
            current, replay = built, stepwise
        else:
            _apply(current, step)
            _apply(replay, step)
        assert current.flips() == _recomputed(current)
        assert current.flips() == replay.flips()
        assert current.n_edges == replay.n_edges
        for p in range(N_PEOPLE):
            assert current.skills(p) == replay.skills(p)
            assert current.neighbors(p) == replay.neighbors(p)
        for overlay, flips in frozen:
            assert overlay.flips() == flips == _recomputed(overlay)


#: Every content read of an overlay; each must check the base version.
_READS = (
    lambda ov: ov.flips(),
    lambda ov: ov.skill_flips(),
    lambda ov: ov.edge_flips(),
    lambda ov: ov.skills(0),
    lambda ov: ov.has_skill(0, "alpha"),
    lambda ov: ov.neighbors(0),
    lambda ov: ov.degree(0),
    lambda ov: ov.has_edge(0, 1),
    lambda ov: list(ov.edges()),
    lambda ov: ov.people_with_skill("alpha"),
    lambda ov: ov.skill_universe(),
    lambda ov: ov.total_skill_assignments(),
    lambda ov: ov.n_edges,
    lambda ov: ov.term_incidence(sorted(QUERY)),
    lambda ov: ov.neighborhood(0, 1),
    lambda ov: ov.materialize(),
)


def _apply_to_model(skills, edges, step):
    """One skill or edge edit on a plain Python-set model: per-person
    skill sets and a set of ``(u, v)`` edges with ``u < v``.  A cancel
    pair leaves the model as it was."""
    kind = step[0]
    if kind == "add_skill":
        skills[step[1]].add(step[2])
    elif kind == "remove_skill":
        skills[step[1]].discard(step[2])
    elif kind == "add_edge":
        edges.add(tuple(sorted(step[1])))
    elif kind == "remove_edge":
        edges.discard(tuple(sorted(step[1])))


@given(st.lists(st.one_of(skill_edit, edge_edit), max_size=20))
@settings(max_examples=120, deadline=None)
def test_commit_equals_one_call_replay(steps):
    """``commit()`` lands the overlay's flips as one sorted
    :class:`BaseDelta` and one version bump (none when the edits
    cancelled out), leaving the base equal to a ``copy()`` edited one
    call at a time and to a from-scratch build of a Python-set model of
    the same edits; a non-empty commit makes every read through this or
    any other overlay over the old version raise."""
    base = NET.copy()
    replay = base.copy()
    skills = [set(base.skills(p)) for p in base.people()]
    edges = set(base.edges())
    overlay, sibling = NetworkOverlay(base), NetworkOverlay(base)
    for step in steps:
        _apply(overlay, step)
        _apply(replay, step)
        _apply_to_model(skills, edges, step)
    flips = overlay.flips()
    version = base.version

    delta = overlay.commit()

    model = CollaborationNetwork.from_parts(
        [base.name(p) for p in base.people()], skills, edges
    )
    assert base.state_digest() == replay.state_digest() == model.state_digest()
    for got, want in (
        (base.adjacency_csr(), model.adjacency_csr()),
        (base.skill_matrix(), model.skill_matrix()),
    ):
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    assert list(delta.skill_flips) == sorted(delta.skill_flips)
    assert list(delta.edge_flips) == sorted(delta.edge_flips)
    assert flips == frozenset(
        [("s", p, s, added) for p, s, added in delta.skill_flips]
        + [("e", u, v, added) for u, v, added in delta.edge_flips]
    )
    assert delta.old_version == version
    if delta.is_empty:
        assert base.version == delta.new_version == version
        for read in _READS:  # a no-op commit consumes nothing
            read(overlay)
            read(sibling)
    else:
        assert base.version == delta.new_version == version + 1
        for read in _READS:
            for stale in (overlay, sibling):
                with pytest.raises(RuntimeError, match="frozen base"):
                    read(stale)


class _Unknown:
    """A feature of no known type."""


feature = st.one_of(
    st.builds(SkillAssignmentFeature, st.integers(-1, N_PEOPLE), skill),
    st.builds(EdgeFeature, st.integers(0, N_PEOPLE), st.integers(0, N_PEOPLE - 1)),
    st.builds(QueryTermFeature, st.sampled_from(["alpha", "beta", "omega"])),
    st.just(_Unknown()),
)


def _outcome(fn, features, mask, network):
    try:
        net, query = fn(features, mask, QUERY, network)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)
    flips = net.flips() if isinstance(net, NetworkOverlay) else None
    return flips, query, net is network


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_invalid_masks_raise_like_stepwise(data):
    """Absent, repeated, out-of-range and unknown masked features raise
    exactly what the one-call-per-feature build raises (first invalid
    feature in order); valid masks build the same overlay."""
    features = data.draw(st.lists(feature, max_size=10))
    if features and data.draw(st.booleans()):
        features.append(features[data.draw(st.integers(0, len(features) - 1))])
    bits = data.draw(st.lists(st.booleans(), min_size=len(features), max_size=len(features)))
    mask = np.array(bits, dtype=bool)
    assert _outcome(masked_inputs, features, mask, NET) == _outcome(
        _masked_inputs_stepwise, features, mask, NET
    )


def test_duplicate_masked_skill_raises():
    p = next(p for p in range(N_PEOPLE) if NET.skills(p))
    s = sorted(NET.skills(p))[0]
    features = [SkillAssignmentFeature(p, s), SkillAssignmentFeature(p, s)]
    with pytest.raises(ValueError, match="masking absent skill"):
        masked_inputs(features, np.zeros(2, dtype=bool), QUERY, NET)
