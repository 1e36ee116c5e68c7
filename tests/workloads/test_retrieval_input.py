"""RetrievalIndex at the trit-block boundary.

The index loads its corpus and runs its queries as whole int8 blocks:
no per-row :class:`~repro.tcam.trit.TernaryWord` is built anywhere on
the way, and degenerate or out-of-range input raises
:class:`~repro.errors.WorkloadError` (never a numpy error or warning).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.energy.accounting import EnergyLedger
from repro.errors import WorkloadError
from repro.tcam import ArrayGeometry, trit
from repro.tcam.chip import TCAMChip
from repro.workloads.retrieval import CorpusConfig, RetrievalIndex, make_queries, synthetic_corpus


def _setup(n_entries=150, dims=16, n_queries=5):
    config = CorpusConfig(n_entries=n_entries, dims=dims, n_clusters=10,
                          cluster_spread=2, query_noise=2)
    signatures = synthetic_corpus(config, seed=3)
    queries, _ = make_queries(signatures, n_queries, 2, seed=4)
    return signatures, queries


def _index(signatures):
    return RetrievalIndex(signatures, bank_rows=32, banks_per_chip=2)


QUERY_PATHS = {
    "query_topk": lambda index, q: index.query_topk(q, 3),
    "query_threshold": lambda index, q: index.query_threshold(q, 2),
    "exact_search_baseline": lambda index, q: index.exact_search_baseline(q),
}


def test_build_and_queries_construct_no_words(monkeypatch):
    signatures, queries = _setup()
    built = []
    init = trit.TernaryWord.__init__

    def counting_init(self, trits):
        built.append(1)
        init(self, trits)

    monkeypatch.setattr(trit.TernaryWord, "__init__", counting_init)
    index = _index(signatures)
    for run in QUERY_PATHS.values():
        run(index, queries)
    assert built == []


def test_block_and_list_queries_agree():
    signatures, queries = _setup()
    # Twin indexes: each query batch moves its index's search-line drive state.
    rows_a, dists_a, stats_a = _index(signatures).query_topk(queries, 3)
    rows_b, dists_b, stats_b = _index(signatures).query_topk(
        queries.astype(np.float64).tolist(), 3
    )
    assert np.array_equal(rows_a, rows_b) and np.array_equal(dists_a, dists_b)
    assert stats_a.energy_total == stats_b.energy_total


def test_load_equals_word_load():
    """Slice-per-chip block loading books the ledger, in booking order,
    and stores the content that loading ``TernaryWord`` lists does."""
    signatures, _ = _setup()
    index = _index(signatures)
    spec, geo = get_design("fefet2t"), ArrayGeometry(rows=32, cols=signatures.shape[1])
    ledger = EnergyLedger()
    for c, chip in enumerate(index.chips):
        twin = TCAMChip(lambda: build_array(spec, geo), n_banks=2)
        rows = signatures[c * twin.rows_total : (c + 1) * twin.rows_total]
        ledger.merge(twin.load_rows([trit.TernaryWord(r) for r in rows]))
        for a, b in zip(chip.banks, twin.banks):
            assert np.array_equal(a.stored_matrix(), b.stored_matrix())
            assert np.array_equal(a.wear_counts(), b.wear_counts())
    assert list(index.load_energy) == list(ledger)


class TestDegenerateInput:
    def test_empty_corpus(self):
        with pytest.raises(WorkloadError, match="non-empty"):
            RetrievalIndex(np.zeros((0, 16)))

    @pytest.mark.parametrize("bad", [257, 0.5, 2, -1])
    def test_signatures_out_of_range(self, bad):
        signatures, _ = _setup()
        signatures = signatures.astype(np.float64)
        signatures[7, 3] = bad
        with pytest.raises(WorkloadError):
            _index(signatures)

    @pytest.mark.parametrize("path", sorted(QUERY_PATHS))
    def test_zero_queries(self, path):
        signatures, queries = _setup()
        index = _index(signatures)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WorkloadError, match="at least one query"):
                QUERY_PATHS[path](index, queries[:0])

    @pytest.mark.parametrize("path", sorted(QUERY_PATHS))
    @pytest.mark.parametrize("bad", [257, 0.5])
    def test_queries_out_of_range(self, path, bad):
        signatures, queries = _setup()
        index = _index(signatures)
        queries = queries.astype(np.float64)
        queries[1, 2] = bad
        with pytest.raises(WorkloadError, match="RetrievalIndex queries"):
            QUERY_PATHS[path](index, queries)

    def test_query_width_mismatch(self):
        signatures, queries = _setup()
        with pytest.raises(WorkloadError, match="width"):
            _index(signatures).query_topk(queries[:, :-1], 2)
