"""The array-backed LSH index against the original dict-based index.

``tests/lsh_oracle.py`` keeps the dict-of-dict-of-list implementation the
array layout replaced.  For the scales the services run at, the tuner must
score every configuration identically and pick the same shape, and the
chosen index must give the same signatures and candidates for every query.
A property test pins ``candidates`` to its brute-force definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import FeatureCorpus
from repro.services.hdsearch import lsh
from repro.suite import SCALES
from tests import lsh_oracle


def _recording(module, monkeypatch):
    """Record (hash_bits, n_tables, n_probes, accuracy) per scored config."""
    scored = []
    original = module._nn_accuracy

    def wrapper(index, vectors, queries, true_nn):
        accuracy = original(index, vectors, queries, true_nn)
        scored.append((index.hash_bits, index.n_tables, index.n_probes, accuracy))
        return accuracy

    monkeypatch.setattr(module, "_nn_accuracy", wrapper)
    return scored


@pytest.mark.parametrize("scale_name", ["unit", "small"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tuned_index_matches_oracle(scale_name, seed, monkeypatch):
    scale = SCALES[scale_name]
    corpus = FeatureCorpus(n_points=scale.hds_points, dims=scale.hds_dims, seed=seed)
    queries = corpus.query_set(scale.n_queries)
    tuning = dict(
        n_leaves=scale.topology.n_leaves,
        queries=queries[:60],
        target_accuracy=0.96,
        seed=seed + 1,
    )
    new_scored = _recording(lsh, monkeypatch)
    old_scored = _recording(lsh_oracle, monkeypatch)
    new = lsh.tune_lsh(corpus.vectors, **tuning)
    old = lsh_oracle.tune_lsh(corpus.vectors, **tuning)

    # Same configs scored in the same order with the same accuracy floats,
    # so the target-clearing pick and the fallback pick both agree.
    assert new_scored == old_scored
    shape = (new.hash_bits, new.n_tables, new.n_probes)
    assert shape == (old.hash_bits, old.n_tables, old.n_probes)
    assert new.tables == old.tables

    for query in queries:
        for table_index in range(new.n_tables):
            assert new.signature(table_index, query) == old.signature(table_index, query)
        new_candidates = new.candidates(query)
        old_candidates = old.candidates(query)
        assert list(new_candidates) == list(old_candidates)
        for leaf, ids in new_candidates.items():
            assert ids.dtype == np.int64
            assert ids.tolist() == old_candidates[leaf]


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(1, 80),
    dims=st.integers(1, 6),
    hash_bits=st.integers(1, 6),
    n_tables=st.integers(1, 4),
    n_probes=st.integers(0, 8),
    n_leaves=st.integers(1, 5),
    data_seed=st.integers(0, 2**16),
)
def test_candidates_match_brute_force(
    n_points, dims, hash_bits, n_tables, n_probes, n_leaves, data_seed
):
    rng = np.random.default_rng(data_seed)
    vectors = rng.normal(size=(n_points, dims))
    index = lsh.LshIndex(vectors, n_leaves=n_leaves, n_tables=n_tables,
                         hash_bits=hash_bits, n_probes=n_probes, seed=data_seed + 1)
    # A fresh random query, and one sitting exactly on a corpus point.
    for query in (rng.normal(size=dims), vectors[int(rng.integers(n_points))]):
        expected = set()
        for table_index in range(n_tables):
            base = index.signature(table_index, query)
            probes = {base} | {base ^ (1 << bit) for bit in range(min(n_probes, hash_bits))}
            point_sigs = index._signatures(table_index, vectors)
            expected.update(int(pid) for pid in np.flatnonzero(np.isin(point_sigs, list(probes))))

        per_leaf = index.candidates(query)
        assert list(per_leaf) == sorted(per_leaf)
        got = set()
        for leaf, ids in per_leaf.items():
            assert len(ids) > 0
            assert all(int(pid) % n_leaves == leaf for pid in ids)
            assert ids.tolist() == sorted(set(ids.tolist()))
            got.update(ids.tolist())
        assert got == expected
        assert index.candidate_count(query) == len(expected)
