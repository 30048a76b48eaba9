"""Corpus-level pattern analysis: the intent-based benchmarking toolkit.

Floratou et al. (cited in Section 1 of the paper) call for "a shift
towards intent-based benchmarking frameworks" for NL2SQL.  This module
provides the corpus-side machinery such a framework needs:

* :class:`QueryCorpus` — a named collection of ARC queries (from any
  frontend) with cached canonical forms and fingerprints;
* equivalence classes by exact pattern;
* a pattern-vocabulary histogram over the corpus;
* pairwise intent-similarity matrices and nearest-neighbour lookup —
  the "semantic similarity search and retrieval" use case of Section 1;
* scoring a *candidate* query against a *gold* query the way an
  intent-based NL2SQL benchmark would (exact pattern, shape, graded
  similarity), instead of string or execution match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import canonical_text
from .compare import similarity
from .detectors import detect_patterns
from .fingerprint import fingerprint, pattern_summary


@dataclass
class CorpusEntry:
    name: str
    query: object
    fingerprint: str
    canonical: str
    patterns: frozenset


class QueryCorpus:
    """A corpus of ARC queries with cached pattern metadata."""

    def __init__(self):
        self._entries = {}

    def add(self, name, query):
        if name in self._entries:
            raise ValueError(f"duplicate corpus entry {name!r}")
        entry = CorpusEntry(
            name=name,
            query=query,
            fingerprint=fingerprint(query),
            canonical=canonical_text(query),
            patterns=frozenset(detect_patterns(query)),
        )
        self._entries[name] = entry
        return entry

    def __len__(self):
        return len(self._entries)

    def __contains__(self, name):
        return name in self._entries

    def names(self):
        return sorted(self._entries)

    def entry(self, name):
        return self._entries[name]

    # -- equivalence classes ----------------------------------------------------

    def pattern_classes(self):
        """Groups of names sharing the exact relational pattern."""
        groups = {}
        for entry in self._entries.values():
            groups.setdefault(entry.fingerprint, []).append(entry.name)
        return sorted(sorted(group) for group in groups.values())

    # -- statistics -----------------------------------------------------------------

    def pattern_histogram(self):
        """Occurrences of each named pattern across the corpus."""
        histogram = {}
        for entry in self._entries.values():
            for pattern in entry.patterns:
                histogram[pattern] = histogram.get(pattern, 0) + 1
        return dict(sorted(histogram.items()))

    def feature_table(self):
        """name -> pattern_summary feature dict, for corpus statistics."""
        return {
            name: pattern_summary(entry.query)
            for name, entry in sorted(self._entries.items())
        }

    # -- similarity ---------------------------------------------------------------------

    def similarity_matrix(self, *, anonymize_relations=False):
        """Symmetric name-indexed intent-similarity matrix."""
        names = self.names()
        matrix = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                if a == b:
                    score = 1.0
                else:
                    score = similarity(
                        self._entries[a].query,
                        self._entries[b].query,
                        anonymize_relations=anonymize_relations,
                    )
                matrix[(a, b)] = score
                matrix[(b, a)] = score
        return matrix

    def nearest(self, query, *, k=3, anonymize_relations=False):
        """The k corpus entries most intent-similar to *query*."""
        scored = [
            (
                similarity(
                    query, entry.query, anonymize_relations=anonymize_relations
                ),
                name,
            )
            for name, entry in self._entries.items()
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [(name, score) for score, name in scored[:k]]


@dataclass
class BenchmarkScore:
    """Intent-based grading of a candidate against a gold query."""

    exact_pattern: bool
    same_shape: bool
    intent_similarity: float
    missing_patterns: frozenset = field(default_factory=frozenset)
    spurious_patterns: frozenset = field(default_factory=frozenset)

    @property
    def grade(self):
        """A coarse grade in the spirit of intent-based benchmarking:
        'exact' > 'pattern' (same shape, renamed schema) > 'partial' >
        'miss'."""
        if self.exact_pattern:
            return "exact"
        if self.same_shape:
            return "pattern"
        if self.intent_similarity >= 0.7:
            return "partial"
        return "miss"


def score_candidate(gold, candidate):
    """Grade *candidate* against *gold* at the semantic-structure level.

    This is the evaluation primitive the paper proposes for NL2SQL
    benchmarks (Section 4): compare scopes, joins, and relational
    patterns rather than SQL strings or result sets.
    """
    gold_patterns = frozenset(detect_patterns(gold))
    candidate_patterns = frozenset(detect_patterns(candidate))
    return BenchmarkScore(
        exact_pattern=fingerprint(gold) == fingerprint(candidate),
        same_shape=(
            fingerprint(gold, anonymize_relations=True)
            == fingerprint(candidate, anonymize_relations=True)
        ),
        intent_similarity=similarity(gold, candidate),
        missing_patterns=gold_patterns - candidate_patterns,
        spurious_patterns=candidate_patterns - gold_patterns,
    )
