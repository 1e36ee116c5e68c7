"""Corpus retrieval workload: recall vs the exact numpy oracle.

The sharded TCAM index must reproduce the exact top-k (per-shard top-k
merged on ``(distance, global row)`` is lossless), and the tolerance
sweep must behave like the physics says: recall grows monotonically
with the tolerance, reaches 1.0 at full width, and spends less energy
per query than the exhaustive exact-match baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.tcam import reference
from repro.workloads.retrieval import (
    CorpusConfig,
    RetrievalIndex,
    exact_topk,
    hamming_distances,
    make_queries,
    recall_at_k,
    run_retrieval,
    synthetic_corpus,
)


def _small_setup(n_entries=300, dims=24, n_queries=6, seed=5):
    config = CorpusConfig(
        n_entries=n_entries, dims=dims, n_clusters=20,
        cluster_spread=3, query_noise=2,
    )
    signatures = synthetic_corpus(config, seed=seed)
    queries, source = make_queries(signatures, n_queries, 2, seed=seed + 1)
    return signatures, queries, source


class TestOracle:
    def test_hamming_distances_match_bruteforce(self):
        signatures, queries, _ = _small_setup(n_entries=40, dims=16)
        dist = hamming_distances(signatures, queries)
        for q in range(queries.shape[0]):
            brute = (signatures != queries[q]).sum(axis=1)
            assert np.array_equal(dist[q], brute)

    def test_exact_topk_ordering(self):
        signatures, queries, _ = _small_setup(n_entries=50, dims=16)
        top = exact_topk(signatures, queries, 5)
        dist = hamming_distances(signatures, queries)
        for q in range(queries.shape[0]):
            d = dist[q][top[q]]
            assert np.all(np.diff(d) >= 0)  # ascending distance
            # Ties broken by ascending row index.
            for i in range(len(top[q]) - 1):
                if d[i] == d[i + 1]:
                    assert top[q][i] < top[q][i + 1]

    def test_queries_find_their_source(self):
        signatures, queries, source = _small_setup()
        top = exact_topk(signatures, queries, 1)
        dist = hamming_distances(signatures, queries)
        for q in range(queries.shape[0]):
            # The winner is at most query_noise bits away (the source).
            assert dist[q][top[q][0]] <= 2


class TestCorpusConfig:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            CorpusConfig(n_entries=0)
        with pytest.raises(WorkloadError):
            CorpusConfig(n_entries=10, dims=4)
        with pytest.raises(WorkloadError):
            CorpusConfig(n_entries=10, cluster_spread=65)

    def test_corpus_is_deterministic(self):
        config = CorpusConfig(n_entries=100, dims=16)
        assert np.array_equal(
            synthetic_corpus(config, seed=3), synthetic_corpus(config, seed=3)
        )
        assert not np.array_equal(
            synthetic_corpus(config, seed=3), synthetic_corpus(config, seed=4)
        )


class TestRetrievalIndex:
    def test_rejects_non_binary_signatures(self):
        sigs = np.full((4, 16), 2, dtype=np.int8)
        with pytest.raises(WorkloadError):
            RetrievalIndex(sigs, bank_rows=4, banks_per_chip=2)

    def test_topk_is_exact(self):
        """Per-shard top-k merged globally reproduces the numpy oracle."""
        signatures, queries, _ = _small_setup()
        index = RetrievalIndex(signatures, bank_rows=64, banks_per_chip=3)
        truth = exact_topk(signatures, queries, 4)
        rows, dists, stats = index.query_topk(queries, 4)
        assert np.array_equal(rows, truth)
        oracle = hamming_distances(signatures, queries)
        for q in range(queries.shape[0]):
            assert np.array_equal(dists[q], oracle[q][truth[q]])
        assert recall_at_k(rows, truth) == 1.0
        assert stats.energy_per_query > 0.0
        assert stats.latency_max >= stats.latency_mean > 0.0

    def test_threshold_candidates_match_oracle_exactly(self):
        signatures, queries, _ = _small_setup()
        index = RetrievalIndex(signatures, bank_rows=64, banks_per_chip=3)
        dist = hamming_distances(signatures, queries)
        for t in (0, 2, 5):
            candidates, _stats = index.query_threshold(queries, t)
            for q in range(queries.shape[0]):
                assert candidates[q] == set(np.flatnonzero(dist[q] <= t).tolist())

    def test_threshold_recall_monotone_and_saturates(self):
        signatures, queries, _ = _small_setup()
        index = RetrievalIndex(signatures, bank_rows=64, banks_per_chip=3)
        truth = exact_topk(signatures, queries, 3)
        recalls = []
        for t in (0, 2, 4, 8, 24):
            candidates, _ = index.query_threshold(queries, t)
            recalls.append(recall_at_k(candidates, truth))
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0  # t = dims accepts every row

    def test_kernel_and_scalar_paths_agree(self, monkeypatch):
        signatures, queries, _ = _small_setup(n_entries=120, dims=16)
        a = RetrievalIndex(signatures, bank_rows=32, banks_per_chip=2)
        b = RetrievalIndex(signatures, bank_rows=32, banks_per_chip=2)
        # Route b's shard queries through the per-key reference functions.
        for bank, _base in b._shard_rows():
            monkeypatch.setattr(
                bank, "topk_match_batch",
                lambda keys, k, bank=bank: [reference.topk_match(bank, key, k) for key in keys],
            )
            monkeypatch.setattr(
                bank, "threshold_match_batch",
                lambda keys, t, bank=bank: [
                    reference.threshold_match(bank, key, t) for key in keys
                ],
            )
        rows_a, dist_a, stats_a = a.query_topk(queries, 3)
        rows_b, dist_b, stats_b = b.query_topk(queries, 3)
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(dist_a, dist_b)
        assert stats_a.energy_total == stats_b.energy_total
        assert stats_a.latency_mean == stats_b.latency_mean
        cand_a, th_a = a.query_threshold(queries, 3)
        cand_b, th_b = b.query_threshold(queries, 3)
        assert cand_a == cand_b
        assert th_a.energy_total == th_b.energy_total


class TestRunRetrieval:
    def _run(self, **overrides):
        params = dict(
            n_entries=600,
            dims=32,
            n_queries=8,
            k=4,
            thresholds=(2, 6, 10, 32),
            bank_rows=64,
            banks_per_chip=4,
            seed=11,
        )
        params.update(overrides)
        return run_retrieval(**params)

    def test_record_shape_and_recall_energy_frontier(self):
        record = self._run()
        assert record["topk"]["recall_at_k"] == 1.0
        assert record["n_banks"] == -(-600 // 64)
        sweep = record["threshold_sweep"]
        recalls = [row["recall_at_k"] for row in sweep]
        assert recalls == sorted(recalls)
        # Some swept tolerance reaches high recall *below* the
        # exhaustive exact-search energy -- the paper's frontier claim.
        assert any(
            row["recall_at_k"] >= 0.9 and row["energy_vs_exact_baseline"] < 1.0
            for row in sweep
        )
        assert record["exact_baseline"]["energy_per_query"] > 0.0

    def test_deterministic(self):
        assert self._run() == self._run()
