"""The trit-block boundary: one validated ``(n, cols)`` int8 block per call.

Every bulk entry point -- ``TCAMArray`` loads, writes and the four
``*_batch`` searches, ``TCAMChip.load_rows``/``search_batch`` and
``TCAMFabric.search_batch`` -- takes a matrix of trit codes or a
sequence of :class:`TernaryWord`.  The two forms must give identical
results (outcomes, ledgers in booking order, wear, content version,
drive state), a malformed block must be rejected whole before any state
moves, and the rejection must be a typed error naming the API.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.cluster import RuleTable, TCAMFabric
from repro.core import build_array, get_design
from repro.errors import ClusterError, TCAMError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry, SegmentedBank
from repro.tcam.cells import FeFET2TCell
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.trit import TernaryWord, Trit, pack_keys, random_word, trit_block

COLS = 10


def _words(n, seed, cols=COLS, x_fraction=0.2):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _block_forms(words):
    """The same keys as an int8 block, a wider-dtype block, an integral
    float block and a list of code rows."""
    block = pack_keys(words)
    return {
        "int8": block,
        "int64": block.astype(np.int64),
        "float": block.astype(np.float64),
        "lists": block.tolist(),
    }


def _assert_outcomes_equal(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert r.to_dict() == g.to_dict()
        assert list(r.energy) == list(g.energy)  # booking order
        inner = getattr(r, "outcome", None)
        if inner is not None:
            assert inner.to_dict() == g.outcome.to_dict()


def _array_state(a):
    return (
        a.stored_matrix().tolist(),
        a.valid_mask().tolist(),
        a.wear_counts().tolist(),
        a._content_version,
        a._last_drive,
    )


# ---------------------------------------------------------------------------
# trit_block itself
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_twins():
    """One twin pair shared by every fuzz example; both see the same keys."""
    return _twin_arrays("fefet2t")


class TestTritBlock:
    def test_words_pack_once(self):
        words = _words(5, seed=1)
        block = trit_block(words, COLS, "api")
        assert block.dtype == np.int8 and block.flags.c_contiguous
        assert np.array_equal(block, pack_keys(words))
        assert np.array_equal(trit_block(iter(words), COLS, "api"), block)

    @pytest.mark.parametrize("form", ["int8", "int64", "float", "lists"])
    def test_matrix_forms_equal_word_form(self, form):
        words = _words(6, seed=2)
        block = trit_block(_block_forms(words)[form], COLS, "api")
        assert block.dtype == np.int8 and block.flags.c_contiguous
        assert np.array_equal(block, pack_keys(words))

    def test_bool_and_fortran_blocks(self):
        bits = np.asfortranarray(np.eye(3, COLS, dtype=bool))
        block = trit_block(bits, COLS, "api")
        assert block.flags.c_contiguous and np.array_equal(block, bits.astype(np.int8))

    @pytest.mark.parametrize("empty", [[], (), np.zeros((0, COLS), dtype=np.int64)])
    def test_empty(self, empty):
        assert trit_block(empty, COLS, "api").shape == (0, COLS)

    @pytest.mark.parametrize(
        "bad, what",
        [
            (np.zeros(COLS, dtype=np.int8), "2-D"),
            (np.zeros((2, 2, COLS), dtype=np.int8), "2-D"),
            (np.zeros((2, COLS + 1), dtype=np.int8), "width"),
            (np.full((2, COLS), 0.5), "0.5"),
            (np.full((2, COLS), 257), "257"),
            (np.full((2, COLS), -1), "-1"),
            (np.full((2, COLS), 3, dtype=np.int8), "3"),
            (np.full((2, COLS), np.nan), "nan"),
            (np.full((2, COLS), np.inf), "inf"),
            (["0101"], "dtype"),
            ([[0] * COLS, [1] * (COLS - 1)], "trit codes"),
            (np.array([[object()] * COLS]), "dtype"),
        ],
    )
    def test_rejections_name_the_api(self, bad, what):
        with pytest.raises(TCAMError, match="my_api") as err:
            trit_block(bad, COLS, "my_api")
        assert what in str(err.value)

    def test_int8_wraparound_is_caught_before_the_cast(self):
        # 257 wraps to 1 and 0.5 truncates to 0 under a bare int8 cast.
        for value in (257, 0.5, 258.0):
            data = np.zeros((3, COLS))
            data[1, 4] = value
            with pytest.raises(TCAMError, match="invalid trit value"):
                trit_block(data, COLS, "api")

    def test_sequence_element_not_a_word(self):
        words = _words(3, seed=3)
        with pytest.raises(TCAMError, match=r"api: element 2 is '0101'"):
            trit_block([*words[:2], "0101"], COLS, "api")
        with pytest.raises(TCAMError, match="element 1"):
            trit_block([words[0], [0] * COLS], COLS, "api")

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.one_of(
            hnp.arrays(
                st.sampled_from([np.int16, np.int64]),
                st.tuples(st.integers(1, 4), st.just(COLS)),
                elements=st.one_of(st.integers(0, 2), st.integers(-2, 4), st.integers(250, 260)),
            ),
            hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 4), st.just(COLS)),
                elements=st.one_of(
                    st.sampled_from([0.0, 1.0, 2.0]),
                    st.floats(-1.5, 3.5, allow_nan=False),
                    st.just(257.0),
                ),
            ),
        )
    )
    def test_fuzz_block_raises_or_equals_word_path(self, fuzz_twins, data):
        ref, got = fuzz_twins
        try:
            words = [TernaryWord(row) for row in data]
        except TCAMError:
            before = _array_state(got)
            with pytest.raises(TCAMError):
                trit_block(data, COLS, "fuzz")
            with pytest.raises(TCAMError):
                got.search_batch(data)
            assert _array_state(got) == before
            return
        assert np.array_equal(trit_block(data, COLS, "fuzz"), pack_keys(words))
        _assert_outcomes_equal(ref.search_batch(words), got.search_batch(data))
        assert _array_state(ref) == _array_state(got)


class TestTernaryWordStrict:
    @pytest.mark.parametrize(
        "bad", [[0.5, 1.0, 2.9], np.array([0.0, 1.5]), [0, 1, 3], [-1], [257], "0101"]
    )
    def test_rejects(self, bad):
        with pytest.raises(TCAMError, match="TernaryWord"):
            TernaryWord(bad)

    def test_error_names_the_bad_value(self):
        with pytest.raises(TCAMError, match="invalid trit value 3"):
            TernaryWord(np.array([0, 1, 3], dtype=np.int8))
        with pytest.raises(TCAMError, match="invalid trit value 0.5"):
            TernaryWord([0.5, 1.0, 2.0])

    def test_integral_forms_agree(self):
        ref = TernaryWord(np.array([0, 1, 2], dtype=np.int8))
        for form in ([0, 1, 2], [0.0, 1.0, 2.0], [Trit.ZERO, Trit.ONE, Trit.X],
                     np.array([0, 1, 2], dtype=np.uint64)):
            assert TernaryWord(form) == ref

    def test_random_word_draws_unchanged(self):
        # Same RNG draw order as the int8 fast path always used.
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        w = random_word(16, rng_a, 0.3)
        bits = rng_b.integers(0, 2, size=16)
        xs = rng_b.random(16) < 0.3
        assert np.array_equal(w.as_array(), np.where(xs, 2, bits).astype(np.int8))


# ---------------------------------------------------------------------------
# TCAMArray entry points: block form == word form
# ---------------------------------------------------------------------------


def _twin_arrays(design, rows=12, seed=5):
    geo = ArrayGeometry(rows=rows, cols=COLS)
    spec = get_design(design)
    twins = build_array(spec, geo), build_array(spec, geo)
    for a in twins:
        a.load_rows(_words(rows, seed))
    return twins


BATCH_CALLS = {
    "search_batch": lambda a, keys: a.search_batch(keys),
    "search_batch_masked": lambda a, keys: a.search_batch(
        keys, row_mask=np.arange(a.geometry.rows) % 3 != 0
    ),
    "nearest_match_batch": lambda a, keys: a.nearest_match_batch(keys),
    "threshold_match_batch": lambda a, keys: a.threshold_match_batch(keys, 3),
    "topk_match_batch": lambda a, keys: a.topk_match_batch(keys, 2),
}


class TestArrayBlockEquivalence:
    @pytest.mark.parametrize("form", ["int8", "int64", "float", "lists"])
    @pytest.mark.parametrize("call", sorted(BATCH_CALLS))
    def test_batch_calls(self, call, form):
        ref, got = _twin_arrays("fefet2t")
        for seed in (6, 7):  # two batches: the drive state threads across calls
            words = _words(9, seed)
            out_ref = BATCH_CALLS[call](ref, words)
            out_got = BATCH_CALLS[call](got, _block_forms(words)[form])
            _assert_outcomes_equal(out_ref, out_got)
            assert _array_state(ref) == _array_state(got)
        assert ref.kernel.table_hits == got.kernel.table_hits > 0

    @pytest.mark.parametrize("sensing_design", ["fefet2t", "fefet_cr"])
    def test_faulty_kernel(self, sensing_design):
        ref, got = _twin_arrays(sensing_design)
        rng = np.random.default_rng(8)
        for a in (ref, got):
            fm = FaultMap(a.geometry.rows, COLS)
            fm.set_cell(1, 2, FaultKind.STUCK_MISS, 0.0)
            fm.set_cell(4, 5, FaultKind.RETENTION, 0.2)
            fm.set_dead_row(7)
            fm.set_sa_offset(3, 0.1)
            a.attach_faults(fm)
        words = [random_word(COLS, rng, 0.1) for _ in range(10)]
        _assert_outcomes_equal(ref.search_batch(words), got.search_batch(pack_keys(words)))
        assert _array_state(ref) == _array_state(got)
        assert ref.kernel.table_hits == got.kernel.table_hits > 0

    @pytest.mark.parametrize("form", ["int8", "int64", "float", "lists"])
    def test_load_rows_and_load(self, form):
        for method in ("load_rows", "load"):
            ref, got = _twin_arrays("fefet2t")
            words = _words(5, seed=9)
            v0 = got._content_version
            led_ref = getattr(ref, method)(words, 3)
            led_got = getattr(got, method)(_block_forms(words)[form], 3)
            assert list(led_ref) == list(led_got)
            assert got._content_version == v0 + 1
            assert _array_state(ref) == _array_state(got)
            assert np.array_equal(ref._write_counts, got._write_counts)

    def test_write_takes_a_code_row(self):
        ref, got = _twin_arrays("fefet2t")
        word = _words(1, seed=10)[0]
        a, b = ref.write(2, word), got.write(2, word.as_array().astype(np.int64))
        assert list(a.energy) == list(b.energy)
        assert (a.latency, a.cells_changed) == (b.latency, b.cells_changed)
        assert _array_state(ref) == _array_state(got)

    def test_scalar_calls_take_a_code_row(self):
        ref, got = _twin_arrays("fefet2t")
        word = _words(1, seed=11)[0]
        codes = word.as_array()
        _assert_outcomes_equal([ref.search(word)], [got.search(codes)])
        _assert_outcomes_equal([ref.nearest_match(word)], [got.nearest_match(codes)])
        _assert_outcomes_equal(
            [ref.threshold_match(word, 2)], [got.threshold_match(codes, 2)]
        )
        _assert_outcomes_equal([ref.topk_match(word, 3)], [got.topk_match(codes, 3)])

    @pytest.mark.parametrize(
        "call", ["search_batch", "load_rows", "nearest_match_batch",
                 "threshold_match_batch", "topk_match_batch"]
    )
    def test_strings_raise_typed_errors(self, call):
        array = _twin_arrays("fefet2t")[0]
        args = {"threshold_match_batch": (1,), "topk_match_batch": (1,)}.get(call, ())
        with pytest.raises(TCAMError, match=call):
            getattr(array, call)(["0101"], *args)

    @pytest.mark.parametrize("call", sorted(BATCH_CALLS) + ["load_rows", "write"])
    @pytest.mark.parametrize("bad_value", [3, 257, 0.5, "width"])
    def test_bad_row_leaves_array_untouched(self, call, bad_value):
        array = _twin_arrays("fefet2t")[0]
        array.search_batch(_words(2, seed=12))  # a drive state to preserve
        block = pack_keys(_words(6, seed=13)).astype(np.float64)
        if bad_value == "width":
            block = block[:, :-1]
        else:
            block[4, 3] = bad_value
        before = _array_state(array)
        counters = (array.kernel.table_hits, array.kernel.rows_built)
        with obs.observe() as session:
            with pytest.raises(TCAMError):
                if call == "write":
                    array.write(1, block[4])
                elif call == "load_rows":
                    array.load_rows(block)
                else:
                    BATCH_CALLS[call](array, block)
            assert session.metrics.snapshot() == obs.MetricsRegistry().snapshot()
        assert _array_state(array) == before
        assert (array.kernel.table_hits, array.kernel.rows_built) == counters


# ---------------------------------------------------------------------------
# TCAMChip
# ---------------------------------------------------------------------------


def _chip_factory(kind):
    geo = ArrayGeometry(rows=8, cols=COLS)
    if kind == "segmented":
        return lambda: SegmentedBank(FeFET2TCell(), geo, probe_cols=4)
    spec = get_design("fefet_nand" if kind == "nand" else "fefet2t")
    return lambda: build_array(spec, geo)


def _chip_state(chip):
    """Gating state plus every bank array's content and drive state."""
    arrays = []
    for bank in chip.banks:
        arrays += getattr(bank, "stages", [bank])
    return chip._powered.tolist(), [
        (a.stored_matrix().tolist(), a.valid_mask().tolist(),
         getattr(a, "_content_version", None), getattr(a, "_last_drive", None))
        for a in arrays
    ]


class TestChipBlockEquivalence:
    @pytest.mark.parametrize("kind", ["array", "segmented", "nand"])
    def test_load_rows_and_search_batch(self, kind):
        gating = GatingPolicy(gate_idle_banks=True)
        ref = TCAMChip(_chip_factory(kind), n_banks=3, gating=gating)
        got = TCAMChip(_chip_factory(kind), n_banks=3, gating=gating)
        words = _words(19, seed=14)
        assert list(ref.load_rows(words, start_row=2)) == list(
            got.load_rows(pack_keys(words).astype(np.int32), start_row=2)
        )
        assert _chip_state(ref) == _chip_state(got)
        keys = _words(11, seed=15)
        banks = [int(b) for b in np.random.default_rng(16).integers(0, 3, size=11)]
        _assert_outcomes_equal(
            ref.search_batch(keys, banks, idle_time=1e-6),
            got.search_batch(pack_keys(keys), banks, idle_time=1e-6),
        )
        assert _chip_state(ref) == _chip_state(got)

    def test_strings_raise_typed_errors(self):
        chip = TCAMChip(_chip_factory("array"), n_banks=2)
        with pytest.raises(TCAMError, match="TCAMChip.search_batch"):
            chip.search_batch(["0101"], banks=0)
        with pytest.raises(TCAMError, match="TCAMChip.load_rows"):
            chip.load_rows(["0101"])

    def test_bad_row_leaves_chip_untouched(self):
        chip = TCAMChip(_chip_factory("array"), n_banks=3,
                        gating=GatingPolicy(gate_idle_banks=True))
        chip.load_rows(_words(20, seed=17))
        chip.search(_words(1, seed=19)[0], bank=0)  # gate banks 1 and 2
        before = _chip_state(chip)
        block = pack_keys(_words(6, seed=18)).astype(np.int64)
        block[5, 0] = 257  # the last key, on the last bank searched
        with pytest.raises(TCAMError):
            chip.search_batch(block, [0, 1, 2, 0, 1, 2])
        with pytest.raises(TCAMError):
            chip.load_rows(block)
        with pytest.raises(TCAMError, match="TCAMChip.search"):
            chip.search(block[5], bank=2)
        assert _chip_state(chip) == before


# ---------------------------------------------------------------------------
# TCAMFabric
# ---------------------------------------------------------------------------


def _fabric(policy):
    rules = tuple(_words(24, seed=19, cols=16, x_fraction=0.3))
    return TCAMFabric(RuleTable(rules), n_chips=4, policy=policy, spare_rows=0)


class TestFabricBlockEquivalence:
    @pytest.mark.parametrize("policy", ["hash", "range", "replicated"])
    def test_search_batch(self, policy):
        ref, got = _fabric(policy), _fabric(policy)
        keys = _words(15, seed=20, cols=16, x_fraction=0.05)
        _assert_outcomes_equal(ref.search_batch(keys), got.search_batch(pack_keys(keys)))
        assert ref.counters() == got.counters()
        for a, b in zip(ref.chips, got.chips):
            assert _chip_state(a) == _chip_state(b)

    def test_malformed_blocks_raise_cluster_errors(self):
        fabric = _fabric("range")
        before = (fabric.counters(), [_chip_state(c) for c in fabric.chips])
        block = pack_keys(_words(4, seed=21, cols=16)).astype(np.float64)
        block[3, 3] = 0.5
        for bad in (["0101"], block, block[:, :8]):
            with pytest.raises(ClusterError, match="TCAMFabric.search_batch"):
                fabric.search_batch(bad)
        assert (fabric.counters(), [_chip_state(c) for c in fabric.chips]) == before
