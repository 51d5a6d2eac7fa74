"""Regression: the folding degree cap must match the six-bit encoding.

``MAX_DEGREE`` was 62 while the module comment promised "degrees
0..64" and the encoder happily produced codes for both 63 and 64 —
three mutually inconsistent answers.  The paper reserves six shadow
bits for the degree (§1), so the reconciled truth is degrees 0..63,
codes [1, 64], and the encoder now rejects anything above the cap.
"""

import pytest

from repro.shadow.folding import MAX_DEGREE, degree_for_remaining, run_lengths
from repro.shadow.giantsan_encoding import decode_degree, encode_folded


def test_cap_is_six_bits():
    assert MAX_DEGREE == 63 == (1 << 6) - 1


def test_degree_63_no_longer_truncated():
    # the old cap of 62 clamped this to 62
    assert degree_for_remaining(1 << 63) == 63


def test_encoder_agrees_with_cap():
    assert encode_folded(MAX_DEGREE) == 1
    assert decode_degree(1) == MAX_DEGREE
    with pytest.raises(ValueError):
        encode_folded(MAX_DEGREE + 1)  # used to silently emit code 0


def test_giant_object_folds_consistently():
    runs = run_lengths((1 << 63) + 4)
    degree, run = runs[0]
    assert degree == MAX_DEGREE
    assert run == 5  # remaining - 2^63 + 1



def test_memo_tables_key_on_the_patched_cap(monkeypatch):
    """The degree ablation patches ``folding.MAX_DEGREE``.  Both memo
    tables used to key on size alone, so the codes folded under the
    first cap were served to every later one."""
    import repro.shadow.folding as folding
    from repro.shadow.giantsan_encoding import object_codes

    default = object_codes(1 << 12)
    for cap in (2, 4):
        monkeypatch.setattr(folding, "MAX_DEGREE", cap)
        assert max(degree for degree, _ in run_lengths(512)) == cap
        assert decode_degree(object_codes(1 << 12)[0]) == cap
    monkeypatch.undo()
    assert object_codes(1 << 12) == default
    assert decode_degree(default[0]) == 9
