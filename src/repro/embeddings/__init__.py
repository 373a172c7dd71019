"""Word embeddings over the expertise corpus (Pruning Strategy 4).

ExES trains a word-embedding model W on the textual expertise corpus and
uses it to shortlist the ``t`` skills most similar to a query when searching
for skill and query counterfactuals (paper §3.3.1–3.3.2).
:func:`train_ppmi_embedding` builds the :class:`SkillEmbedding`: a positive
PMI co-occurrence matrix factorized with truncated SVD.  The paper trains
Word2Vec [41]; Levy & Goldberg (2014) show that skip-gram with negative
sampling implicitly factorizes this same shifted PMI matrix.
"""

from repro.embeddings.cooccurrence import CooccurrenceCounts, count_cooccurrences
from repro.embeddings.similarity import SkillEmbedding
from repro.embeddings.ppmi import train_ppmi_embedding

__all__ = [
    "CooccurrenceCounts",
    "SkillEmbedding",
    "count_cooccurrences",
    "train_ppmi_embedding",
]
