"""Tests for the signature-scanning workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import WorkloadError
from repro.tcam import ArrayGeometry
from repro.workloads.signatures import (
    Signature,
    SignatureSet,
    plant_signatures,
    synthetic_signatures,
    window_key,
)


class TestSignature:
    def test_exact_match(self):
        sig = Signature(sig_id=1, pattern=(0xDE, 0xAD, 0xBE, 0xEF))
        assert sig.matches_at(b"\x00\xde\xad\xbe\xef", 1)
        assert not sig.matches_at(b"\x00\xde\xad\xbe\xee", 1)

    def test_wildcard_byte_matches_anything(self):
        sig = Signature(sig_id=1, pattern=(0xDE, None, 0xEF))
        assert sig.matches_at(b"\xde\x42\xef", 0)
        assert sig.matches_at(b"\xde\x00\xef", 0)

    def test_out_of_bounds_never_matches(self):
        sig = Signature(sig_id=1, pattern=(0xDE, 0xAD))
        assert not sig.matches_at(b"\xde", 0)

    def test_word_width_and_padding(self):
        sig = Signature(sig_id=1, pattern=(0xFF,))
        word = sig.to_word(window_bytes=4)
        assert len(word) == 36  # nine trits per byte (valid lane + data)
        assert str(word).count("X") == 27  # three fully padded bytes

    def test_wildcard_byte_still_requires_presence(self):
        """A wildcard byte stores valid=1: it matches any byte but not a
        missing one."""
        sig = Signature(sig_id=1, pattern=(0xAA, None))
        word = sig.to_word(window_bytes=2)
        from repro.tcam.trit import Trit

        assert word[9] is Trit.ONE  # the wildcard byte's valid lane
        assert str(word[10:18]).count("X") == 8

    def test_rejects_all_wildcards(self):
        with pytest.raises(WorkloadError):
            Signature(sig_id=1, pattern=(None, None))

    def test_rejects_bad_byte(self):
        with pytest.raises(WorkloadError):
            Signature(sig_id=1, pattern=(300,))

    def test_rejects_signature_longer_than_window(self):
        sig = Signature(sig_id=1, pattern=(1, 2, 3))
        with pytest.raises(WorkloadError):
            sig.to_word(window_bytes=2)


class TestWindowKey:
    def test_encodes_bytes_msb_first_with_valid_lane(self):
        key = window_key(b"\x80", 0, 1)
        assert str(key) == "110000000"

    def test_tail_beyond_payload_searches_invalid(self):
        key = window_key(b"\xff", 0, 2)
        from repro.tcam.trit import Trit

        assert key[9] is Trit.ZERO  # past-end valid lane searches 0
        assert str(key).count("X") == 8  # its data bits are masked

    def test_rejects_bad_position(self):
        with pytest.raises(WorkloadError):
            window_key(b"ab", 2, 1)

    def test_truncated_signature_never_matches_at_boundary(self):
        """Regression: a window hanging off the payload end must not let a
        long signature match on its missing bytes."""
        sig = Signature(sig_id=5, pattern=(0xAB, 0xCD, 0xEF))
        word = sig.to_word(window_bytes=4)
        key = window_key(b"\xab", 0, 4)  # only the first byte exists
        assert not word.matches(key)


class TestScanAgreement:
    @pytest.fixture(scope="class")
    def deployed(self):
        rng = np.random.default_rng(61)
        signatures = synthetic_signatures(12, rng, min_bytes=3, max_bytes=6)
        sigset = SignatureSet(signatures, window_bytes=6)
        array = build_array(
            get_design("fefet2t"), ArrayGeometry(16, sigset.word_width)
        )
        sigset.deploy(array)
        payload = bytearray(rng.integers(0, 256, size=120).astype(np.uint8).tobytes())
        payload = bytearray(
            plant_signatures(payload, signatures, [(0, 10), (3, 50), (7, 90)])
        )
        return sigset, array, bytes(payload)

    def test_tcam_matches_oracle(self, deployed):
        sigset, array, payload = deployed
        tcam_hits, energy = sigset.scan_tcam(array, payload)
        assert tcam_hits == sigset.scan_reference(payload)
        assert energy > 0.0

    def test_planted_signatures_found(self, deployed):
        sigset, array, payload = deployed
        hits, _ = sigset.scan_tcam(array, payload)
        positions = {h.position for h in hits}
        assert {10, 50, 90} <= positions

    def test_clean_payload_no_false_hits(self):
        rng = np.random.default_rng(62)
        sig = Signature(sig_id=9, pattern=(0xCA, 0xFE, 0xBA, 0xBE, 0xD0, 0x0D))
        sigset = SignatureSet([sig], window_bytes=6)
        array = build_array(get_design("fefet2t"), ArrayGeometry(4, sigset.word_width))
        sigset.deploy(array)
        payload = bytes(rng.integers(0, 128, size=200).astype(np.uint8).tobytes())
        hits, _ = sigset.scan_tcam(array, payload)
        assert hits == sigset.scan_reference(payload)

    def test_scan_energy_in_random_key_envelope(self, deployed):
        """A sliding window *shifts* the data, so its keys toggle almost as
        much as independent ones -- the per-search energy must land in the
        same envelope, not an order of magnitude away."""
        sigset, _, payload = deployed
        from repro.tcam.trit import random_word

        array_a = build_array(get_design("fefet2t"), ArrayGeometry(16, sigset.word_width))
        sigset.deploy(array_a)
        _, sliding_energy = sigset.scan_tcam(array_a, payload)
        sliding_per_search = sliding_energy / len(payload)

        array_b = build_array(get_design("fefet2t"), ArrayGeometry(16, sigset.word_width))
        sigset.deploy(array_b)
        rng = np.random.default_rng(63)
        random_energy = sum(
            array_b.search(random_word(sigset.word_width, rng)).energy_total
            for _ in range(len(payload))
        )
        random_per_search = random_energy / len(payload)
        assert 0.7 * random_per_search < sliding_per_search < 1.1 * random_per_search


class TestValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(WorkloadError):
            SignatureSet([], window_bytes=4)

    def test_window_too_small_rejected(self):
        sig = Signature(sig_id=1, pattern=(1, 2, 3, 4, 5))
        with pytest.raises(WorkloadError):
            SignatureSet([sig], window_bytes=4)

    def test_deploy_rejects_wrong_width(self):
        sig = Signature(sig_id=1, pattern=(1, 2))
        sigset = SignatureSet([sig], window_bytes=4)
        array = build_array(get_design("fefet2t"), ArrayGeometry(4, 16))
        with pytest.raises(WorkloadError):
            sigset.deploy(array)

    def test_plant_rejects_overflow(self):
        sig = Signature(sig_id=0, pattern=(1, 2, 3))
        with pytest.raises(WorkloadError):
            plant_signatures(bytearray(4), [sig], [(0, 2)])

    def test_synthetic_rejects_bad_args(self, rng):
        with pytest.raises(WorkloadError):
            synthetic_signatures(0, rng)
        with pytest.raises(WorkloadError):
            synthetic_signatures(3, rng, min_bytes=5, max_bytes=4)

    def test_synthetic_edges_always_specified(self, rng):
        for sig in synthetic_signatures(30, rng, wildcard_fraction=0.9):
            assert sig.pattern[0] is not None
            assert sig.pattern[-1] is not None
