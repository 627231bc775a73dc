from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv._util import NonFiniteValue
from gbv.sequence_spaces import (
    MembershipCertificate,
    characteristic_prefix,
    exh_certificate,
    fin_certificate,
    is_monotone,
    sorted_rearrangement,
)
from gbv.submeasure import (
    WatermanWeights,
    counting,
    density,
    harmonic_weights,
    sqrt_bound,
    summable,
    unit,
)

rationals = st.fractions(min_value=-15, max_value=15, max_denominator=10)


def test_is_monotone_examples():
    assert is_monotone((3, 2, 2, 1))
    assert not is_monotone((1, 2))
    assert is_monotone((-4, 3, -3))
    assert is_monotone(())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-1e6, 1e6, allow_nan=False)), max_size=30))
def test_is_monotone_on_a_float_array_agrees_with_its_tuple(x):
    # the numpy pass and the entry loop, ties and signed zeros included
    srt = sorted(x, key=abs, reverse=True)
    for seq in (x, srt, srt + srt[-1:], [-v for v in srt]):
        assert is_monotone(np.array(seq, dtype=float)) == is_monotone(tuple(seq))
    assert is_monotone(np.array(srt, dtype=float))


def test_sorted_rearrangement_examples():
    assert sorted_rearrangement((1, 3, 2)).entries == (3, 2, 1)
    assert sorted_rearrangement((-5, 0, 5)).entries == (5, 5, 0)
    assert sorted_rearrangement(()).entries == ()


@given(st.lists(rationals, max_size=12))
@settings(max_examples=120, deadline=None)
def test_sorted_rearrangement_properties(x):
    srt = sorted_rearrangement(x)
    assert is_monotone(srt)
    assert sorted_rearrangement(srt).entries == srt.entries           # idempotent
    assert sorted(srt.entries) == sorted(abs(v) for v in x)           # multiset kept
    prefix_orig, prefix_sorted = 0, 0
    for i in range(len(x)):
        prefix_orig += abs(x[i])
        prefix_sorted += srt.entries[i]
        assert prefix_sorted >= prefix_orig                           # prefix dominance


def test_characteristic_prefix():
    assert characteristic_prefix({1, 3}, 4).entries == (1, 0, 1, 0)
    assert characteristic_prefix(set(), 3).entries == (0, 0, 0)
    assert characteristic_prefix(range(1, 5), 4).entries == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        characteristic_prefix({5}, 4)


# ---------------------------------------------------------------------------
# FIN-style certificates
# ---------------------------------------------------------------------------

def test_fin_unit_all_ones_bounded():
    cert = fin_certificate(unit(), (1,) * 100)
    assert cert.verdict == "bounded-consistent"
    assert cert.params["level"] == 1.0


def test_fin_counting_all_ones_grows_linearly():
    cert = fin_certificate(counting(), (1,) * 200)
    assert cert.verdict == "growth-detected"
    assert cert.params["rate"] == pytest.approx(1.0, abs=0.01)


def test_fin_harmonic_all_ones_grows():
    cert = fin_certificate(summable(harmonic_weights(1000)), (1,) * 1000)
    assert cert.verdict == "growth-detected"


def test_fin_density_sqrt_reciprocal_sqrt_is_bounded_near_two():
    n = 10 ** 4
    x = 1.0 / np.sqrt(np.arange(1, n + 1))
    cert = fin_certificate(density(sqrt_bound()), x)
    assert cert.verdict == "bounded-consistent"
    assert 1.8 <= cert.params["level"] <= 2.0


def test_truncation_curve_is_nondecreasing_validated():
    with pytest.raises(ValueError):
        MembershipCertificate("fin", (2.0, 1.0), (), "bounded-consistent")
    with pytest.raises(ValueError):
        MembershipCertificate("exh", (), (1.0, 2.0), "tail-stuck")


def test_a_curve_that_fails_late_is_refused_at_its_first_bad_step():
    # a drop inside the slack (1e-9, relative past 1) passes; the first one
    # past it is named by n, however many more follow
    rising = [float(k) for k in range(1, 20001)]
    rising[9999] -= 5e-6          # within 1e-9 * 10000
    rising[15000] = rising[14999] - 1.6e-5
    rising[18000] = 0.0
    with pytest.raises(ValueError, match=r"^truncation norms must be nondecreasing "
                                         r"\(n=15001\)$"):
        MembershipCertificate("fin", tuple(rising), (), "growth-detected")
    falling = rising[::-1]
    falling[1] = falling[0] + 1e-6  # within 1e-9 * 20000
    with pytest.raises(ValueError, match=r"^tail norms must be nonincreasing \(n=2001\)$"):
        MembershipCertificate("exh", (), tuple(falling), "tail-stuck")
    # slack 1e-9 absolute below 1
    MembershipCertificate("exh", (), (0.5, 0.5 + 1e-9), "tail-stuck")
    with pytest.raises(ValueError, match=r"\(n=3\)$"):
        MembershipCertificate("exh", (), (0.5, 0.5, 0.5 + 2e-9), "tail-stuck")


# ---------------------------------------------------------------------------
# EXH-style certificates
# ---------------------------------------------------------------------------

def test_exh_counting_finite_support_reaches_zero():
    x = (3, -1, 2) + (0,) * 60
    cert = exh_certificate(counting(), x)
    assert cert.verdict == "tail-vanishing-consistent"
    assert cert.tail_by_cut[-1] == 0.0


def test_exh_unit_all_ones_stuck_at_one():
    cert = exh_certificate(unit(), (1,) * 500)
    assert cert.verdict == "tail-stuck"
    assert cert.params["level"] == 1.0


def test_exh_harmonic_on_squares_vanishes():
    n = 10 ** 6
    x = np.zeros(n)
    squares = np.arange(1, 1001) ** 2
    x[squares - 1] = 1.0
    cert = exh_certificate(summable(harmonic_weights(16)), x)
    assert cert.verdict == "tail-vanishing-consistent"


def test_exh_shifted_only_toy_vanishes():
    # a convergent weight table (the dyadic tail alone) is the smallest
    # example with vanishing tail under the all-ones sequence
    geo = WatermanWeights([F(1, 2 ** n) for n in range(1, 40)], form="table",
                          declared_divergent=False)
    cert = exh_certificate(summable(geo), (1,) * 39)
    assert cert.verdict == "tail-vanishing-consistent"
    cert2 = exh_certificate(counting(), (1,) * 500)
    assert cert2.verdict == "tail-stuck"


def test_mexh_inside_mfin_at_certificate_level():
    # tail-vanishing with a finite initial level implies a bounded
    # truncation curve
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 400
        x = np.zeros(n)
        support = rng.integers(0, 80, size=30)
        x[support] = rng.uniform(-3, 3, size=30)
        for phi in (counting(), unit(), summable(harmonic_weights(n))):
            exh = exh_certificate(phi, x)
            if exh.verdict == "tail-vanishing-consistent":
                assert fin_certificate(phi, x).verdict == "bounded-consistent"
    # hat-norms that overflow give no certificate at all, so no verdict
    # rests on an infinite initial level
    x = np.full(4, 1e308)
    for phi in (counting(), density(sqrt_bound())):
        with pytest.raises(NonFiniteValue, match="tail norm at cut 1 is not finite"):
            exh_certificate(phi, x)
        with pytest.raises(NonFiniteValue, match="truncation norm at cut 2 is not finite"):
            fin_certificate(phi, x)


def test_payload_field_names():
    payload = fin_certificate(unit(), (1, 2)).to_payload()
    assert set(payload) == {"truncation_norms", "tail_norms", "verdict", "params"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fin_certificate_refuses_non_finite_entries(bad):
    with pytest.raises(NonFiniteValue, match="entry 2 of the sequence is not finite"):
        fin_certificate(counting(), [1.0, bad, 0.5, 0.25, 0.1])
    with pytest.raises(NonFiniteValue, match="entry 3 of the sequence is not finite"):
        fin_certificate(unit(), np.array([1.0, 0.5, bad, bad]))


def test_certificates_name_an_exact_entry_beyond_the_float_range():
    for x in ([1, 10 ** 400], (1, F(10 ** 400, 3), 2), np.array([1, 10 ** 400], dtype=object)):
        for certificate in (fin_certificate, exh_certificate):
            with pytest.raises(NonFiniteValue, match="entry 2 of the sequence overflows a float"):
                certificate(counting(), x)


@pytest.mark.parametrize("curve", ["truncation", "tail"])
def test_certificates_refuse_an_overflowed_curve_at_its_first_cut(curve):
    # every entry is finite; the truncation norms leave the float range at
    # cut 3, the tail norms (nonincreasing) are beyond it from cut 1 to 2
    x = np.array([1.0, 1e308, 1e308, 1.0])
    certificate, cut = (fin_certificate, 3) if curve == "truncation" else (exh_certificate, 1)
    with pytest.raises(NonFiniteValue, match=f"{curve} norm at cut {cut} is not finite \\(inf\\)"):
        certificate(counting(), x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exh_certificate_refuses_non_finite_entries(bad):
    with pytest.raises(NonFiniteValue, match="entry 2 of the sequence is not finite"):
        exh_certificate(counting(), np.array([1.0, bad, 0.1]))
    with pytest.raises(NonFiniteValue, match="entry 4 of the sequence is not finite"):
        exh_certificate(summable(harmonic_weights(8)), (1, F(1, 2), 0.25, bad))
