"""Profile-centric document-based expert search baseline [2, 3].

Each individual is represented by the TF-IDF vector of their skill profile
(or, when a corpus is supplied, of the concatenation of their documents);
queries are vectorized in the same space and matched by cosine similarity.
This is the "document-based" family of Table 1 — purely lexical, no graph
signal, which is exactly why the GCN ranker's collaboration factuals are
interesting by contrast.

Overlay probes are delta-scored through
:class:`~repro.search.engine.TfidfDeltaSession` (idf fit once per base
version, per-row profile patches under skill flips);
``full_rebuild = True`` forces the from-scratch matrix build below.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.graph.network import CollaborationNetwork
from repro.graph.overlay import NetworkOverlay
from repro.graph.perturbations import Query, as_query
from repro.search.base import ExpertSearchSystem
from repro.search.engine import TfidfDeltaSession
from repro.text.corpus import ExpertiseCorpus
from repro.text.tfidf import TfidfModel


class DocumentExpertRanker(ExpertSearchSystem):
    """TF-IDF cosine ranker over skill profiles.

    With ``corpus`` provided, idf statistics come from real documents.
    Otherwise they are fit on the skill profiles of the *base* network,
    cached per network version.  The seed refit the model on every call —
    so a skill flip on person A silently shifted the document frequencies
    and thereby every other person's score; probing a perturbed network
    now reuses the idf statistics of the network it perturbs, and only
    re-fits when the base network itself mutates.

    The pinning follows overlay identity, so the parity reference for the
    delta path is ``full_rebuild = True`` *on this ranker* (the overlay
    reaches :meth:`scores` and resolves to its base's model).  Probing a
    materialized copy instead — e.g. through
    ``ProbeEngine(full_rebuild=True)`` — reproduces the seed behaviour,
    per-call refit on the perturbed profiles included.
    """

    def __init__(self, corpus: Optional[ExpertiseCorpus] = None) -> None:
        self._corpus_model: Optional[TfidfModel] = None
        if corpus is not None:
            self._corpus_model = TfidfModel.fit(corpus.token_lists())
        self._profile_model: Optional[TfidfModel] = None
        self._profile_net: Optional[CollaborationNetwork] = None
        self._profile_version: Optional[int] = None

    def _profile_model_for(self, network: CollaborationNetwork) -> TfidfModel:
        """The TF-IDF model for scoring against ``network``: the corpus
        model when one was given, else the profile model of the (base)
        network, fit once per version."""
        if self._corpus_model is not None:
            return self._corpus_model
        base = network.base if isinstance(network, NetworkOverlay) else network
        if (
            self._profile_model is None
            or self._profile_net is not base
            or self._profile_version != base.version
        ):
            profiles = [sorted(base.skills(p)) for p in base.people()]
            self._profile_model = TfidfModel.fit(profiles)
            self._profile_net = base
            self._profile_version = base.version
        return self._profile_model

    def delta_session(self, base: CollaborationNetwork) -> TfidfDeltaSession:
        return TfidfDeltaSession(self, base)

    def memo_survives(self, delta, query: Query) -> bool:
        """The document ranker carries no graph signal at all, so a pure
        edge commit cannot move any score, for any probe flip set."""
        return not delta.skill_flips

    def scores(self, query: Iterable[str], network: CollaborationNetwork) -> np.ndarray:
        query = as_query(query)
        delta = self._try_delta_scores(query, network)
        if delta is not None:
            return delta
        model = self._profile_model_for(network)
        profiles = [sorted(network.skills(p)) for p in network.people()]
        matrix = model.matrix(profiles)  # rows already L2-normalized
        q_vec = model.vector(sorted(query))
        if not np.any(q_vec):
            return np.zeros(network.n_people)
        return np.asarray(matrix @ q_vec).ravel()
