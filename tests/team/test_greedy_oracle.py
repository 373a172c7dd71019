"""The array-level greedy former against its per-person reference loop.

``reference_form`` below is the greedy as it was written before the
former went array-level: ``network.skills(p) & uncovered`` for every
frontier person, the frontier recomputed from all members each step, and
a tuple-key ``max`` for the cover and the connector.  It lives only here,
as the oracle.  The parity fuzz cannot stand in for it: both of its sides
run the same ``_form_impl``.

The property test draws small random networks (set and compact storage),
tie-heavy score vectors (±0.0 included), queries with terms nobody holds,
``max_size``/``max_connectors``, pinned and auto seeds, and overlays with
skill and edge flips on the base run's frontier people.  Three paths must
give the oracle's ``Team`` and witness set exactly: the plain path, the
delta session's traced base run, and re-formation on the overlay.
"""

from typing import Optional, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CollaborationNetwork, NetworkOverlay
from repro.graph.perturbations import as_query
from repro.search import ExpertSearchSystem
from repro.team import CoverTeamFormer, Team

VOCAB = ("a", "b", "c", "d")
UNHELD = "zz"  # a query term nobody in any drawn network holds


class FixedScoreRanker(ExpertSearchSystem):
    """Returns one canned score vector for every query and network."""

    def __init__(self, score_vector):
        self._scores = np.asarray(score_vector, dtype=np.float64)

    def scores(self, query, network):
        return self._scores


def reference_form(
    former: CoverTeamFormer,
    query,
    network,
    seed_member: Optional[int] = None,
    scores=None,
    witness: Optional[Set[int]] = None,
) -> Team:
    """The per-person greedy loop (the oracle)."""
    query = as_query(query)
    if scores is None:
        scores = former.ranker.scores(query, network)
    scores = np.asarray(scores, dtype=np.float64)
    if seed_member is None:
        seed_member = CoverTeamFormer._seed_choice(scores)
    members = {seed_member}
    build_order = [seed_member]
    uncovered = set(query - network.skills(seed_member))
    connectors_used = 0
    if witness is not None:
        witness.add(seed_member)
    while uncovered and len(members) < former.max_size:
        frontier = set()
        for m in members:
            frontier |= network.neighbors(m)
        frontier -= members
        if witness is not None:
            witness |= frontier
        if not frontier:
            break
        best_person, best_cover, best_key = None, set(), (0, -np.inf, 0)
        for person in frontier:
            cover = network.skills(person) & uncovered
            if not cover:
                continue
            key = (len(cover), float(scores[person]), -person)
            if key > best_key:
                best_person, best_cover, best_key = person, set(cover), key
        if best_person is not None:
            members.add(best_person)
            build_order.append(best_person)
            uncovered -= best_cover
            continue
        if connectors_used >= former.max_connectors:
            break
        connector = max(frontier, key=lambda p: (scores[p], -p))
        members.add(connector)
        build_order.append(connector)
        connectors_used += 1
    covered = set()
    for m in members:
        covered |= network.skills(m) & query
    return Team(
        members=frozenset(members),
        seed=seed_member,
        covered_terms=frozenset(covered),
        uncovered_terms=frozenset(query - covered),
        build_order=tuple(build_order),
    )


def _oracle(former, query, network, seed_member, scores):
    witness: Set[int] = set()
    team = reference_form(former, query, network, seed_member, scores, witness)
    return team, frozenset(witness)


def _traced(former, query, network, seed_member, scores):
    witness: Set[int] = set()
    team = former._form_impl(query, network, seed_member, scores, witness)
    return team, frozenset(witness)


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

tie_score = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(-2.0, 2.0, allow_nan=False, width=16),
)


@st.composite
def networks(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    skills = [
        draw(st.frozensets(st.sampled_from(VOCAB), max_size=3)) for _ in range(n)
    ]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    net = CollaborationNetwork.from_parts(
        [f"p{i}" for i in range(n)], skills, edges
    )
    if draw(st.booleans()):
        net.compact()
    return net


def _flip_skill(overlay, person, skill):
    if not overlay.add_skill(person, skill):
        overlay.remove_skill(person, skill)


def _flip_edge(overlay, u, v):
    if not overlay.add_edge(u, v):
        overlay.remove_edge(u, v)


class TestAgainstReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(net=networks(), data=st.data())
    def test_plain_base_run_and_overlay_reform_match_oracle(self, net, data):
        n = net.n_people
        query = as_query(
            data.draw(st.frozensets(st.sampled_from(VOCAB + (UNHELD,)), max_size=4))
        )
        scores = np.array(data.draw(st.lists(tie_score, min_size=n, max_size=n)))
        seed = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        former = CoverTeamFormer(
            FixedScoreRanker(scores),
            max_size=data.draw(st.integers(1, 6)),
            max_connectors=data.draw(st.integers(0, 3)),
        )

        # 1. the plain path
        ref_team, ref_witness = _oracle(former, query, net, seed, scores)
        assert former.form(query, net, seed_member=seed, scores=scores) == ref_team
        assert _traced(former, query, net, seed, scores) == (ref_team, ref_witness)

        # 2. the delta session's traced base run
        run = former.delta_session(net)._base_run(query, seed)
        assert run.team == ref_team
        assert run.witness == ref_witness

        # 3. re-formation on an overlay whose flips land on the frontier
        frontier = sorted(ref_witness - ref_team.members) or sorted(ref_witness)
        touched = st.sampled_from(frontier + sorted(ref_team.members))
        overlay = NetworkOverlay(net)
        for person, skill in data.draw(
            st.lists(st.tuples(touched, st.sampled_from(VOCAB)), max_size=4)
        ):
            _flip_skill(overlay, person, skill)
        if n > 1:
            for u, v in data.draw(
                st.lists(st.tuples(touched, st.integers(0, n - 1)), max_size=3)
            ):
                if u != v:
                    _flip_edge(overlay, u, v)
        probe_scores = data.draw(
            st.one_of(
                st.just(scores),
                st.lists(tie_score, min_size=n, max_size=n).map(np.array),
            )
        )
        terms = sorted(query)
        assert np.array_equal(
            overlay.term_incidence(terms),
            [[t in overlay.skills(p) for t in terms] for p in range(n)],
        )
        ref_team, ref_witness = _oracle(former, query, overlay, seed, probe_scores)
        assert (
            former.form(query, overlay, seed_member=seed, scores=probe_scores)
            == ref_team
        )
        assert _traced(former, query, overlay, seed, probe_scores) == (
            ref_team,
            ref_witness,
        )


# ---------------------------------------------------------------------------
# edge inputs
# ---------------------------------------------------------------------------


@pytest.fixture
def star():
    """Seed 0 ("x") joined to 1..3, each of which holds "y"."""
    net = CollaborationNetwork()
    net.add_person("seed", {"x"})
    for i in range(1, 4):
        net.add_person(f"c{i}", {"y"})
        net.add_edge(0, i)
    return net


class TestSeedOutOfRange:
    @pytest.mark.parametrize("seed", [-1, -4, 4, 99])
    def test_plain_path_raises_index_error(self, star, seed):
        former = CoverTeamFormer(FixedScoreRanker(np.ones(4)))
        with pytest.raises(IndexError, match="out of range"):
            former.form(["x", "y"], star, seed_member=seed)

    @pytest.mark.parametrize("seed", [-1, 4])
    def test_delta_path_raises_index_error(self, star, seed):
        former = CoverTeamFormer(FixedScoreRanker(np.ones(4)))
        overlay = NetworkOverlay(star)
        overlay.add_skill(2, "noise")
        with pytest.raises(IndexError, match="out of range"):
            former.form(["x", "y"], overlay, seed_member=seed)
        with pytest.raises(IndexError, match="out of range"):
            former._session_for(star).warm(as_query(["x", "y"]), seed)


class TestNanScores:
    """NaN ranks below every other score at equal cover count — the rule
    ``_seed_choice``'s lexsort already applies — whatever the order the
    frontier was built in."""

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_cover_prefers_finite_score(self, nan_first):
        # People 3 and 11 both cover "y".  Their edges to the seed are
        # added in both orders: a tuple-key max over the frontier set
        # picks whichever it meets first when one score is NaN.
        net = CollaborationNetwork()
        for i in range(12):
            net.add_person(f"p{i}", {"y"} if i in (3, 11) else set())
        net.add_skill(0, "x")
        for v in (3, 11) if nan_first else (11, 3):
            net.add_edge(0, v)
        scores = np.zeros(12)
        scores[3] = np.nan
        scores[11] = 0.25
        former = CoverTeamFormer(FixedScoreRanker(scores))
        team = former.form(["x", "y"], net, seed_member=0)
        assert team.build_order == (0, 11)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_connector_prefers_finite_score(self, reverse):
        # Nobody adjacent covers "y": the connector must be the finite-
        # scored neighbour, even against -inf, then its neighbour covers.
        net = CollaborationNetwork()
        for i in range(5):
            net.add_person(f"p{i}", {"y"} if i == 4 else set())
        net.add_skill(0, "x")
        for v in (1, 2, 3)[:: -1 if reverse else 1]:
            net.add_edge(0, v)
        net.add_edge(3, 4)
        scores = np.array([1.0, np.nan, np.nan, -np.inf, 0.0])
        former = CoverTeamFormer(FixedScoreRanker(scores))
        team = former.form(["x", "y"], net, seed_member=0)
        assert team.build_order == (0, 3, 4)
        assert team.covers_query

    def test_nan_cover_still_beats_lower_count(self, star):
        scores = np.array([0.0, np.nan, 0.0, 0.0])
        star.add_skill(1, "z")  # person 1 covers two terms, NaN score
        former = CoverTeamFormer(FixedScoreRanker(scores))
        team = former.form(["x", "y", "z"], star, seed_member=0)
        assert team.build_order == (0, 1)
        assert team.covers_query

    def test_delta_and_plain_paths_agree_under_nan(self, star):
        scores = np.array([0.0, np.nan, 0.5, np.nan])
        former = CoverTeamFormer(FixedScoreRanker(scores))
        overlay = NetworkOverlay(star)
        overlay.remove_skill(2, "y")
        delta = former.form(["x", "y"], overlay, seed_member=0, scores=scores)
        plain = former.form(
            ["x", "y"], overlay.materialize(), seed_member=0, scores=scores
        )
        assert delta == plain
        assert delta.build_order == (0, 1)
