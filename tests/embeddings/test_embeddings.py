"""The PPMI embedding trainer and the similarity oracle.

The trainer is checked on a synthetic two-topic corpus where ground truth
is unambiguous: words of the same topic co-occur, words of different
topics never do, so same-topic similarity must dominate.
"""

import numpy as np
import pytest

from repro.embeddings import SkillEmbedding, train_ppmi_embedding

TOPIC_A = ["graph", "mining", "network", "community"]
TOPIC_B = ["compiler", "parser", "lexer", "grammar"]


@pytest.fixture(scope="module")
def two_topic_docs():
    rng = np.random.default_rng(0)
    docs = []
    for _ in range(300):
        topic = TOPIC_A if rng.random() < 0.5 else TOPIC_B
        docs.append([topic[i] for i in rng.integers(0, len(topic), size=8)])
    return docs


def _topic_separation(embedding: SkillEmbedding) -> float:
    """Mean same-topic similarity minus mean cross-topic similarity."""
    same, cross = [], []
    for a in TOPIC_A:
        for b in TOPIC_A:
            if a < b:
                same.append(embedding.similarity(a, b))
        for b in TOPIC_B:
            cross.append(embedding.similarity(a, b))
    return float(np.mean(same) - np.mean(cross))


class TestPpmiEmbedding:
    def test_separates_topics(self, two_topic_docs):
        emb = train_ppmi_embedding(two_topic_docs, dim=8, min_count=2)
        assert _topic_separation(emb) > 0.5

    def test_deterministic(self, two_topic_docs):
        a = train_ppmi_embedding(two_topic_docs, dim=8, seed=1)
        b = train_ppmi_embedding(two_topic_docs, dim=8, seed=1)
        np.testing.assert_allclose(a.vectors, b.vectors)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            train_ppmi_embedding([], dim=4)

    def test_dim_clamped_to_vocab(self):
        emb = train_ppmi_embedding([["a", "b"], ["a", "b"]], dim=64, min_count=1)
        assert emb.dim <= 2


class TestSkillEmbeddingOracle:
    @pytest.fixture(scope="class")
    def embedding(self, two_topic_docs):
        return train_ppmi_embedding(two_topic_docs, dim=8, min_count=2)

    def test_vectors_unit_norm(self, embedding):
        norms = np.linalg.norm(embedding.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_contains(self, embedding):
        assert "graph" in embedding
        assert "quantum" not in embedding

    def test_vector_unknown_raises(self, embedding):
        with pytest.raises(KeyError):
            embedding.vector("quantum")

    def test_similarity_oov_is_zero(self, embedding):
        assert embedding.similarity("graph", "quantum") == 0.0

    def test_most_similar_prefers_same_topic(self, embedding):
        ranked = embedding.most_similar_to_set(
            ["graph", "mining"], topn=2, exclude=["graph", "mining"]
        )
        assert all(word in TOPIC_A for word, _ in ranked)

    def test_restrict_to_pool(self, embedding):
        ranked = embedding.most_similar_to_set(
            ["graph"], topn=3, restrict_to=TOPIC_B
        )
        assert all(word in TOPIC_B for word, _ in ranked)

    def test_exclude_removes_words(self, embedding):
        ranked = embedding.most_similar_to_set(["graph"], topn=10, exclude=["graph"])
        assert "graph" not in [w for w, _ in ranked]

    def test_centroid_of_oov_terms_is_none(self, embedding):
        assert embedding.centroid(["quantum", "entanglement"]) is None

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            SkillEmbedding({"a": 0, "b": 1}, np.zeros((3, 4)))
