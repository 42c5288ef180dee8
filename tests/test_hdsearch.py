"""Tests for HDSearch: LSH index quality plus the full service."""

import numpy as np
import pytest

from repro.data import FeatureCorpus
from repro.services.hdsearch import LshIndex, build_hdsearch
from repro.services.hdsearch.service import HdSearchLeafApp, HdSearchMidTierApp
from repro.services.costmodel import LinearCost
from repro.suite import SCALES, SimCluster
from repro.suite.cluster import run_open_loop


def _corpus(n=800, dims=32, seed=0):
    return FeatureCorpus(n_points=n, dims=dims, seed=seed)


def test_lsh_index_covers_all_points():
    corpus = _corpus()
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=4, hash_bits=8)
    covered = set()
    for table in index.tables:
        for bucket in table.values():
            for leaf, ids in bucket.items():
                covered.update(ids)
                assert all(pid % 4 == leaf for pid in ids)
    assert covered == set(range(corpus.n_points))


def test_lsh_candidates_respect_leaf_sharding():
    corpus = _corpus()
    index = LshIndex(corpus.vectors, n_leaves=3, seed=1)
    per_leaf = index.candidates(corpus.query())
    for leaf, ids in per_leaf.items():
        assert all(pid % 3 == leaf for pid in ids)
        assert list(ids) == sorted(ids)


def test_lsh_recall_near_point_query():
    """An LSH probe for a barely-perturbed corpus point must find it."""
    corpus = _corpus(n=1200, dims=32, seed=2)
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=10, hash_bits=10,
                     n_probes=3, seed=3)
    hits = 0
    trials = 60
    for point in range(trials):
        query = corpus.query(near_point=point, spread=0.02)
        candidates = index.candidates(query)
        all_ids = {pid for ids in candidates.values() for pid in ids}
        if point in all_ids:
            hits += 1
    assert hits / trials > 0.9


def test_lsh_prunes_search_space():
    corpus = _corpus(n=2000, dims=32, seed=4)
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=6, hash_bits=12, seed=5)
    counts = [index.candidate_count(corpus.query()) for _ in range(30)]
    # Candidates must be far fewer than a brute-force scan of 2000 points.
    assert max(counts) < 2000 * 0.8
    assert np.mean(counts) < 2000 * 0.5


def test_lsh_validates_args():
    corpus = _corpus(n=50)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors, n_leaves=0)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors, n_leaves=2, hash_bits=0)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors[0], n_leaves=2)
    # Zero tables used to build an index that returned no candidates, and
    # a negative probe count used to act as zero.
    with pytest.raises(ValueError, match="n_tables"):
        LshIndex(corpus.vectors, n_leaves=2, n_tables=0)
    with pytest.raises(ValueError, match="n_probes"):
        LshIndex(corpus.vectors, n_leaves=2, n_probes=-1)


def test_leaf_app_returns_sorted_topk():
    corpus = _corpus(n=400, dims=16, seed=6)
    leaf = HdSearchLeafApp(corpus.vectors, leaf_index=1, n_leaves=4,
                           cost=LinearCost(10.0, 0.001))
    ids = [pid for pid in range(400) if pid % 4 == 1][:50]
    query = corpus.query()
    result = leaf.handle(("knn", query, ids, 5))
    assert len(result.payload) == 5
    dists = [d for _pid, d in result.payload]
    assert dists == sorted(dists)
    assert all(pid % 4 == 1 for pid, _d in result.payload)
    assert result.compute_us > 10.0


def test_leaf_app_empty_candidates():
    corpus = _corpus(n=100, dims=16)
    leaf = HdSearchLeafApp(corpus.vectors, 0, 4, LinearCost(5.0, 0.01))
    result = leaf.handle(("knn", corpus.query(), [], 5))
    assert result.payload == []
    result = leaf.handle(("knn", corpus.query(), np.empty(0, dtype=np.int64), 5))
    assert result.payload == []


def test_leaf_app_same_result_for_list_and_array_ids():
    corpus = _corpus(n=400, dims=16, seed=9)
    leaf = HdSearchLeafApp(corpus.vectors, leaf_index=2, n_leaves=4,
                           cost=LinearCost(10.0, 0.001))
    ids = [pid for pid in range(400) if pid % 4 == 2][:60]
    query = corpus.query()
    from_list = leaf.handle(("knn", query, ids, 7))
    from_array = leaf.handle(("knn", query, np.array(ids, dtype=np.int64), 7))
    assert from_array.payload == from_list.payload
    assert from_array.compute_us == from_list.compute_us
    assert from_array.size_bytes == from_list.size_bytes
    assert all(type(pid) is int and type(d) is float for pid, d in from_array.payload)


def test_midtier_merge_returns_global_topk():
    corpus = _corpus(n=200, dims=16, seed=7)
    index = LshIndex(corpus.vectors, n_leaves=2, seed=8)
    app = HdSearchMidTierApp(index, k=3, request_cost=LinearCost(5, 0.01),
                             merge_cost=LinearCost(2, 0.01))
    responses = [[(0, 0.5), (2, 0.9)], [(1, 0.1), (3, 0.7)]]
    merged = app.merge(("query", corpus.query()), responses)
    assert [pid for pid, _ in merged.payload] == [1, 0, 3]


def test_end_to_end_hdsearch_accuracy_above_paper_bar():
    """The paper tunes LSH for >=93% accuracy; check end-to-end answers."""
    cluster = SimCluster(seed=11)
    service = build_hdsearch(cluster, SCALES["unit"])
    corpus = service.extras["corpus"]
    accuracy = service.extras["accuracy"]
    app = service.midtier.app

    scores = []
    for _ in range(40):
        query = corpus.query()
        plan = app.fanout(("query", query))
        responses = []
        for leaf_index, payload, _size in plan.subrequests:
            leaf_app = service.leaves[leaf_index].app
            responses.append(leaf_app.handle(payload).payload)
        merged = app.merge(("query", query), responses)
        scores.append(accuracy(query, merged.payload))
    assert np.mean(scores) >= 0.93


def test_hdsearch_service_under_load():
    cluster = SimCluster(seed=1)
    service = build_hdsearch(cluster, SCALES["unit"])
    result = run_open_loop(cluster, service, qps=300.0, duration_us=300_000,
                           warmup_us=100_000)
    assert result.completed > 50
    # Sub-ms median end-to-end, a few-ms worst case (paper Fig. 10 regime).
    assert result.e2e.median < 1_500.0
    assert result.e2e.percentile(99) < 22_000.0
    # futex dominates the mid-tier syscall profile (paper Fig. 11).
    per_query = result.syscalls_per_query()
    assert per_query["futex"] == max(per_query.values())
