"""Reference oracle: the original dict-of-dict-of-list LSH index.

A verbatim copy of ``repro.services.hdsearch.lsh`` as it stood before the
index moved to sorted-bucket arrays.  It is used only by the differential
tests, which assert the array-backed index picks the same shape, scores
the same accuracies and returns the same candidates.  Do not optimize it.

Original module docstring follows.

Multi-table, multi-probe Locality-Sensitive Hashing.

Follows the structure of FLANN's LSH index, which the paper extends into
HDSearch's mid-tier: multiple random-hyperplane hash tables whose buckets
store ``{leaf server, point ID list}`` tuples rather than vectors (the
feature vectors themselves live only on the leaves).  Queries collect
candidates from each table's bucket, plus optional Hamming-distance-1
multi-probes to improve recall without more tables.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.sim.rng import seeded_np


class LshIndex:
    """A random-hyperplane LSH index over a shared feature corpus."""

    def __init__(
        self,
        vectors: np.ndarray,
        n_leaves: int,
        n_tables: int = 8,
        hash_bits: int = 12,
        n_probes: int = 2,
        seed: int = 0,
    ):
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if not 1 <= hash_bits <= 30:
            raise ValueError("hash_bits must be in [1, 30]")
        if n_leaves <= 0:
            raise ValueError("n_leaves must be positive")
        self.n_points, self.dims = vectors.shape
        self.n_leaves = n_leaves
        self.n_tables = n_tables
        self.hash_bits = hash_bits
        self.n_probes = n_probes
        rng = seeded_np(seed)
        # One (hash_bits x dims) hyperplane matrix per table.
        self._planes = [
            rng.normal(size=(hash_bits, self.dims)) for _ in range(n_tables)
        ]
        self._bit_weights = 1 << np.arange(hash_bits)
        # Tables map signature -> {leaf: [point ids]} (the paper's
        # {leaf server, point ID list} tuples).
        self.tables: List[Dict[int, Dict[int, List[int]]]] = []
        for table_index in range(n_tables):
            signatures = self._signatures(table_index, vectors)
            table: Dict[int, Dict[int, List[int]]] = {}
            for point_id, signature in enumerate(signatures):
                leaf = point_id % n_leaves
                bucket = table.setdefault(int(signature), {})
                bucket.setdefault(leaf, []).append(point_id)
            self.tables.append(table)

    def _signatures(self, table_index: int, vectors: np.ndarray) -> np.ndarray:
        projections = vectors @ self._planes[table_index].T
        bits = (projections > 0.0).astype(np.int64)
        return bits @ self._bit_weights

    def signature(self, table_index: int, query: np.ndarray) -> int:
        """The query's bucket signature in one table."""
        return int(self._signatures(table_index, query[None, :])[0])

    def _probe_signatures(self, signature: int) -> List[int]:
        """The base bucket plus ``n_probes`` Hamming-1 neighbors."""
        probes = [signature]
        for bit in range(min(self.n_probes, self.hash_bits)):
            probes.append(signature ^ (1 << bit))
        return probes

    def candidates(self, query: np.ndarray) -> Dict[int, List[int]]:
        """Candidate point ids per leaf, deduplicated across tables."""
        per_leaf: Dict[int, set] = {}
        for table_index, table in enumerate(self.tables):
            base = self.signature(table_index, query)
            for probe in self._probe_signatures(base):
                bucket = table.get(probe)
                if not bucket:
                    continue
                for leaf, ids in bucket.items():
                    per_leaf.setdefault(leaf, set()).update(ids)
        return {leaf: sorted(ids) for leaf, ids in sorted(per_leaf.items())}

    def candidate_count(self, query: np.ndarray) -> int:
        """Total candidates a query gathers (the mid-tier's work units)."""
        return sum(len(ids) for ids in self.candidates(query).values())


def _nn_accuracy(
    index: LshIndex,
    vectors: np.ndarray,
    queries: np.ndarray,
    true_nn: np.ndarray,
) -> float:
    """Mean cosine similarity between LSH-reported and true nearest
    neighbors (the paper's accuracy score)."""
    scores = []
    for query, truth in zip(queries, true_nn):
        per_leaf = index.candidates(query)
        ids = [pid for leaf_ids in per_leaf.values() for pid in leaf_ids]
        if not ids:
            scores.append(0.0)
            continue
        candidates = vectors[ids]
        diffs = candidates - query[None, :]
        best = ids[int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))]
        a, b = vectors[best], vectors[truth]
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        scores.append(float(a @ b / denom) if denom else 0.0)
    return float(np.mean(scores))


def tune_lsh(
    vectors: np.ndarray,
    n_leaves: int,
    queries: np.ndarray,
    target_accuracy: float = 0.93,
    seed: int = 0,
) -> LshIndex:
    """Pick LSH parameters the way the paper does (§III-A): the most
    selective configuration (fewest candidates, hence lowest latency) that
    still achieves the target accuracy; falls back to the most accurate.
    """
    n_points = vectors.shape[0]
    # Ground truth once for the tuning query sample.
    true_nn = np.empty(len(queries), dtype=np.int64)
    for i, query in enumerate(queries):
        diffs = vectors - query[None, :]
        true_nn[i] = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))

    max_bits = max(2, int(np.log2(max(n_points / 25.0, 4.0))))
    configs = []
    for bits in range(max_bits, 1, -1):
        for tables in (4, 8, 12):
            for probes in (0, 2, 4):
                # Rough selectivity: candidates ~ tables*(probes+1)*n/2^bits.
                expected = tables * (probes + 1) * n_points / (1 << bits)
                configs.append((expected, bits, tables, probes))
    configs.sort()

    best_fallback = None
    best_fallback_acc = -1.0
    for _expected, bits, tables, probes in configs:
        index = LshIndex(
            vectors,
            n_leaves=n_leaves,
            n_tables=tables,
            hash_bits=bits,
            n_probes=probes,
            seed=seed,
        )
        accuracy = _nn_accuracy(index, vectors, queries, true_nn)
        if accuracy >= target_accuracy:
            return index
        if accuracy > best_fallback_acc:
            best_fallback, best_fallback_acc = index, accuracy
    return best_fallback
