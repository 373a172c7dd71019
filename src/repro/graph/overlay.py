"""Copy-on-write view of a :class:`CollaborationNetwork`.

Counterfactual search probes the ranker with thousands of perturbed
networks, each differing from the base by a handful of skill or edge
flips.  Deep-copying the network for every probe (the seed behaviour of
``apply_perturbations``) makes every probe O(|P| + |E| + Σ|S_i|) before a
single score is computed.  :class:`NetworkOverlay` records the flips
against a *frozen* base network instead:

* reads (``skills``, ``neighbors``, ``has_edge``, ``people_with_skill``,
  …) consult the delta first and fall back to the base,
* writes (``add_skill``, ``remove_edge``, …) touch only the delta, so a
  probe state costs O(Δ) to build,
* :meth:`flips` exposes the delta in canonical form — the probe engine
  uses it both as a memoization key and to apply O(Δ) updates to cached
  feature/adjacency matrices,
* anything exotic (``to_networkx``, ``normalized_adjacency`` for rankers
  without a delta path, …) transparently falls back to a lazily
  materialized full copy, so an overlay is accepted anywhere a
  ``CollaborationNetwork`` is.

The base network must not mutate while overlays over it are alive; every
overlay records the base version at creation and raises if it drifts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

SkillFlip = Tuple[str, int, str, bool]  # ("s", person, skill, added)
EdgeFlip = Tuple[str, int, int, bool]  # ("e", u, v, added)
Flip = Tuple  # union of the two shapes above


def _record_removals(flips: Dict, removed: List) -> None:
    """Record removal flips for ``removed`` keys that each took effect:
    one that undoes an earlier recorded add cancels it, the rest are
    recorded as removals (``False``)."""
    cancelled = flips.keys() & removed
    flips.update(dict.fromkeys(removed, False))
    for key in cancelled:
        del flips[key]


class NetworkOverlay:
    """A perturbed view of a frozen base :class:`CollaborationNetwork`."""

    def __init__(self, base) -> None:
        # Chaining: an overlay over an overlay flattens onto the same base,
        # so delta size stays proportional to the total edit distance.
        if isinstance(base, NetworkOverlay):
            src = base
            base = src.base
            self._skill_flips: Dict[Tuple[int, str], bool] = dict(src._skill_flips)
            self._edge_flips: Dict[Tuple[int, int], bool] = dict(src._edge_flips)
            self._skills_touched: Dict[int, Set[str]] = {
                p: set(s) for p, s in src._skills_touched.items()
            }
            self._adj_touched: Dict[int, Set[int]] = {
                p: set(a) for p, a in src._adj_touched.items()
            }
            self._n_edges = src._n_edges
            # The same delta, so the same frozen flips (see flips()).
            self._flips: Optional[FrozenSet[Flip]] = src._flips
        else:
            self._skill_flips = {}
            self._edge_flips = {}
            self._skills_touched = {}
            self._adj_touched = {}
            self._n_edges = base.n_edges
            self._flips = None
        self._base = base
        self._base_version = base.version
        self._mat = None  # lazily materialized full CollaborationNetwork

    # ------------------------------------------------------------------
    # identity & delta
    # ------------------------------------------------------------------
    @property
    def base(self):
        """The frozen base network this overlay perturbs."""
        return self._base

    @property
    def base_version(self) -> int:
        """The base's version stamp at overlay creation."""
        return self._base_version

    def flips(self) -> FrozenSet[Flip]:
        """The delta in canonical, hashable form (memoization key).

        Frozen once and kept until the next mutation: the probe engine
        asks for it at every memo lookup of the same state."""
        self._check_base()
        if self._flips is None:
            self._flips = frozenset(
                [("s", p, s, added) for (p, s), added in self._skill_flips.items()]
                + [("e", u, v, added) for (u, v), added in self._edge_flips.items()]
            )
        return self._flips

    def skill_flips(self) -> Dict[Tuple[int, str], bool]:
        """(person, skill) -> added?  (live view; do not mutate)."""
        self._check_base()
        return self._skill_flips

    def edge_flips(self) -> Dict[Tuple[int, int], bool]:
        """(u, v) with u < v -> added?  (live view; do not mutate)."""
        self._check_base()
        return self._edge_flips

    @property
    def n_flips(self) -> int:
        return len(self._skill_flips) + len(self._edge_flips)

    def branch(self) -> "NetworkOverlay":
        """An independent overlay with the same delta (for further edits)."""
        return NetworkOverlay(self)

    def materialize(self):
        """A real :class:`CollaborationNetwork` equal to this view.

        Cached until the next overlay mutation; the ``full_rebuild``
        escape hatch of the probe engine and any method without a direct
        overlay implementation go through here.
        """
        self._check_base()
        if self._mat is None:
            net = self._base.copy()
            net.apply_delta(*self._delta())
            self._mat = net
        return self._mat

    def copy(self):
        """An independent deep copy (a real network, matching the base API)."""
        return self.materialize().copy()

    def commit(self):
        """Promote this overlay's flips into the base network in place.

        The base applies every recorded flip atomically and bumps its
        version exactly once; the returned
        :class:`~repro.graph.network.BaseDelta` describes the old→new
        transition in canonical flip form, ready for the engine registry
        to carry memoized answers across.  A flip-free overlay commits as
        a no-op (no version bump, empty delta).

        A non-empty commit *consumes* the overlay: its recorded base
        version is now stale, so any further read or mutation through it
        raises the standard frozen-base :class:`RuntimeError`.  Other
        overlays over the same base are invalidated the same way — the
        commit is a deliberate epoch boundary, not a concurrent edit.
        """
        self._check_base()
        return self._base.apply_delta(*self._delta())

    def _delta(self):
        """The recorded flips as :meth:`CollaborationNetwork.apply_delta`
        arguments."""
        return (
            [(p, s, added) for (p, s), added in self._skill_flips.items()],
            [(u, v, added) for (u, v), added in self._edge_flips.items()],
        )

    def _check_base(self) -> None:
        if self._base.version != self._base_version:
            raise RuntimeError(
                "base network mutated underneath a NetworkOverlay "
                f"(version {self._base_version} -> {self._base.version}); "
                "overlays require a frozen base"
            )

    # ------------------------------------------------------------------
    # mutation (records flips; cancelling edits annihilate)
    # ------------------------------------------------------------------
    def add_skill(self, person: int, skill: str) -> bool:
        self._check_person(person)
        own = self._own_skills(person)
        if skill in own:
            return False
        own.add(skill)
        self._flip_skill(person, skill, True)
        return True

    def remove_skill(self, person: int, skill: str) -> bool:
        self._check_person(person)
        own = self._own_skills(person)
        if skill not in own:
            return False
        own.discard(skill)
        self._flip_skill(person, skill, False)
        return True

    def add_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        if v in self._own_adj(u):
            return False
        self._own_adj(u).add(v)
        self._own_adj(v).add(u)
        self._n_edges += 1
        self._flip_edge(u, v, True)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        if v not in self._own_adj(u):
            return False
        self._own_adj(u).discard(v)
        self._own_adj(v).discard(u)
        self._n_edges -= 1
        self._flip_edge(u, v, False)
        return True

    def add_person(self, name: str, skills: Iterable[str] = ()) -> int:
        raise NotImplementedError(
            "NetworkOverlay cannot grow the node set; mutate the base "
            "network (or materialize() first)"
        )

    def _own_skills(self, person: int) -> Set[str]:
        own = self._skills_touched.get(person)
        if own is None:
            own = set(self._base.skills(person))
            self._skills_touched[person] = own
        return own

    def _own_adj(self, person: int) -> Set[int]:
        own = self._adj_touched.get(person)
        if own is None:
            own = set(self._base.neighbors(person))
            self._adj_touched[person] = own
        return own

    def remove_many(
        self, skills: Dict[int, List[str]], edges: List[Tuple[int, int]]
    ) -> bool:
        """Remove many skill assignments (``person -> skills``) and edges
        in one pass — the bulk form of :meth:`remove_skill` and
        :meth:`remove_edge` that SHAP coalitions are built with.

        True when every removal took effect.  False when one was a no-op
        (an absent or repeated skill or edge); the overlay is then left
        part-edited and should be discarded.  Raises like the one-call
        methods on out-of-range people and self loops."""
        for person, names in skills.items():
            self._check_person(person)
            own = self._own_skills(person)
            held = len(own)
            own.difference_update(names)
            if len(own) != held - len(names):
                return False
        ends: Dict[int, List[int]] = {}
        for u, v in edges:
            if u == v:
                self._check_pair(u, v)  # raises
            ends.setdefault(u, []).append(v)
            ends.setdefault(v, []).append(u)
        for person, others in ends.items():
            self._check_person(person)
            own = self._own_adj(person)
            held = len(own)
            own.difference_update(others)
            if len(own) != held - len(others):
                return False
        self._n_edges -= len(edges)
        self._mat = None
        self._flips = None
        _record_removals(
            self._skill_flips,
            [(person, skill) for person, names in skills.items() for skill in names],
        )
        _record_removals(
            self._edge_flips, [(u, v) if u < v else (v, u) for u, v in edges]
        )
        return True

    def _flip_skill(self, person: int, skill: str, added: bool) -> None:
        self._mat = None
        self._flips = None
        key = (person, skill)
        prior = self._skill_flips.get(key)
        if prior is not None and prior != added:
            del self._skill_flips[key]  # add-then-remove cancels
        else:
            self._skill_flips[key] = added

    def _flip_edge(self, u: int, v: int, added: bool) -> None:
        self._mat = None
        self._flips = None
        key = (min(u, v), max(u, v))
        prior = self._edge_flips.get(key)
        if prior is not None and prior != added:
            del self._edge_flips[key]
        else:
            self._edge_flips[key] = added

    # ------------------------------------------------------------------
    # reads (delta-aware, O(Δ) over the base operation)
    # ------------------------------------------------------------------
    @property
    def n_people(self) -> int:
        return self._base.n_people

    @property
    def n_edges(self) -> int:
        self._check_base()
        return self._n_edges

    def people(self) -> range:
        return range(self._base.n_people)

    def name(self, person: int) -> str:
        return self._base.name(person)

    def find_person(self, name: str) -> int:
        return self._base.find_person(name)

    def skills(self, person: int) -> FrozenSet[str]:
        self._check_base()
        own = self._skills_touched.get(person)
        if own is not None:
            return frozenset(own)
        return self._base.skills(person)

    def has_skill(self, person: int, skill: str) -> bool:
        self._check_base()
        own = self._skills_touched.get(person)
        if own is not None:
            return skill in own
        return self._base.has_skill(person, skill)

    def neighbors(self, person: int) -> FrozenSet[int]:
        self._check_base()
        own = self._adj_touched.get(person)
        if own is not None:
            return frozenset(own)
        return self._base.neighbors(person)

    def degree(self, person: int) -> int:
        self._check_base()
        own = self._adj_touched.get(person)
        if own is not None:
            return len(own)
        return self._base.degree(person)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        self._check_base()
        own = self._adj_touched.get(u)
        if own is not None:
            return v in own
        return self._base.has_edge(u, v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        self._check_base()
        removed = {e for e, added in self._edge_flips.items() if not added}
        for u, v in self._base.edges():
            if (u, v) not in removed:
                yield (u, v)
        for (u, v), added in sorted(self._edge_flips.items()):
            if added:
                yield (u, v)

    def people_with_skill(self, skill: str) -> FrozenSet[int]:
        self._check_base()
        base_set = self._base.people_with_skill(skill)
        add: Set[int] = set()
        rem: Set[int] = set()
        for (p, s), added in self._skill_flips.items():
            if s == skill:
                (add if added else rem).add(p)
        if not add and not rem:
            return base_set
        return frozenset((set(base_set) | add) - rem)

    def term_incidence(self, terms: Sequence[str]):
        """The base's ``(n_people, len(terms))`` term table with this
        overlay's flips of those terms applied, O(Δ) past the base."""
        column = {term: j for j, term in enumerate(terms)}
        holds = self._base.term_incidence(terms)
        for (p, s), added in self.skill_flips().items():
            j = column.get(s)
            if j is not None:
                holds[p, j] = added
        return holds

    def skill_universe(self) -> FrozenSet[str]:
        self._check_base()
        universe = set(self._base.skill_universe())
        maybe_gone: Set[str] = set()
        for (_, s), added in self._skill_flips.items():
            if added:
                universe.add(s)
            else:
                maybe_gone.add(s)
        for s in maybe_gone:
            if s in universe and not self.people_with_skill(s):
                universe.discard(s)
        return frozenset(universe)

    def total_skill_assignments(self) -> int:
        self._check_base()
        delta = sum(1 if added else -1 for added in self._skill_flips.values())
        return self._base.total_skill_assignments() + delta

    def neighborhood(self, person: int, radius: int) -> FrozenSet[int]:
        self._check_person(person)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        seen = {person}
        frontier = [person]
        for _ in range(radius):
            nxt: List[int] = []
            for u in frontier:
                for v in self.neighbors(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        return frozenset(seen)

    def neighborhood_skills(self, person: int, radius: int) -> FrozenSet[str]:
        out: Set[str] = set()
        for p in self.neighborhood(person, radius):
            out.update(self.skills(p))
        return frozenset(out)

    def edges_within(self, nodes: Iterable[int]) -> List[Tuple[int, int]]:
        node_set = set(nodes)
        out: List[Tuple[int, int]] = []
        for u in sorted(node_set):
            for v in self.neighbors(u):
                if u < v and v in node_set:
                    out.append((u, v))
        return out

    def incident_edges(self, person: int) -> List[Tuple[int, int]]:
        self._check_person(person)
        return [
            (min(person, v), max(person, v)) for v in sorted(self.neighbors(person))
        ]

    def validate(self) -> None:
        self.materialize().validate()

    def _check_person(self, person: int) -> None:
        if not (0 <= person < self._base.n_people):
            raise IndexError(
                f"person id {person} out of range [0, {self._base.n_people})"
            )

    def _check_pair(self, u: int, v: int) -> None:
        self._check_person(u)
        self._check_person(v)
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u})")

    # ------------------------------------------------------------------
    # fallback: anything else goes through the materialized copy
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    def __repr__(self) -> str:
        return (
            f"NetworkOverlay(base={self._base!r}, "
            f"skill_flips={len(self._skill_flips)}, "
            f"edge_flips={len(self._edge_flips)})"
        )
