"""Limiting constants by independent methods with declared tail bounds."""

import mpmath
import pytest

from fqtcount.constants import (
    ConstantReport,
    constant_Cam,
    constant_Cq,
    constant_Kq,
    constant_cq,
    constant_cq_prime,
)
from fqtcount.errors import EvenCharacteristic, HypothesisViolation
from fqtcount.ffield import MonicPoly, build_field, field_for_order, poly_from_string


def close(report, decimal_string, places=12):
    with mpmath.workdps(40):
        return abs(report.consensus - mpmath.mpf(decimal_string)) < 10.0**-places


def test_kq_frozen_value_and_agreement():
    report = constant_Kq(3)
    assert len(report.methods) == 3
    assert report.agreement()
    assert close(report, "1.320270787229792")


def test_kq_rejects_even_q():
    with pytest.raises(EvenCharacteristic):
        constant_Kq(4)


def test_cq1_frozen_value_and_agreement():
    report = constant_Cq(3, 1)
    assert len(report.methods) == 3
    assert report.agreement()
    assert close(report, "1.200343123221874")


def test_cq2_is_reciprocal_of_cq1():
    c1 = constant_Cq(3, 1)
    c2 = constant_Cq(3, 2)
    assert close(c2, "0.833095121432", places=11)
    with mpmath.workdps(40):
        assert abs(c1.consensus * c2.consensus - 1) < 1e-20


def test_cq3_frozen_value():
    report = constant_Cq(3, 3)
    assert report.agreement()
    assert close(report, "0.800228748815", places=11)


def test_cq_which_validation():
    with pytest.raises(ValueError):
        constant_Cq(3, 4)


def test_little_cq_frozen_values():
    assert close(constant_cq(3), "0.2253166506", places=9)
    assert close(constant_cq_prime(3), "0.1031363073", places=9)


def test_little_cq_rejects_even_q():
    with pytest.raises(EvenCharacteristic):
        constant_cq(4)


def test_cam_frozen_value():
    field = field_for_order(3)
    report = constant_Cam(field, (1,), MonicPoly((0, 1)))
    assert report.agreement()
    assert close(report, "0.757420378965", places=11)


def test_cam_nine_element_field():
    field = field_for_order(9)
    report = constant_Cam(field, (1,), MonicPoly((0, 1)))
    assert report.agreement()
    assert close(report, "0.978880166818", places=11)


def test_cam_rejects_a_custom_field_modulus():
    # residue codes are read in the default field of each order
    field = build_field(3, 2, (2, 1, 1))  # Y^2 + Y + 2, not the default Y^2 + 1
    with pytest.raises(ValueError):
        constant_Cam(field, (1,), MonicPoly((0, 1)))


def test_cam_rejects_trivial_unit_group():
    field = field_for_order(2)
    with pytest.raises(HypothesisViolation):
        constant_Cam(field, (1,), MonicPoly((0, 1)))


def test_tail_bounds_are_positive_and_small():
    for report in (constant_Kq(3), constant_Cq(3, 1), constant_cq(3)):
        for method in report.methods:
            assert method.tail_bound > 0
            assert method.tail_bound < 1e-20


def test_precision_request_tightens_tails():
    lo = constant_Kq(3, digits=12)
    hi = constant_Kq(3, digits=24)
    assert lo.agreement() and hi.agreement()
    with mpmath.workdps(60):
        # the two requests agree within the looser declared tails
        gap = abs(lo.consensus - hi.consensus)
        assert gap <= 2 * max(m.tail_bound for m in lo.methods)


def test_constant_report_json_shape():
    report = constant_Kq(3, digits=15)
    data = report.to_json(digits=15)
    assert set(data) == {"name", "q", "methods", "consensus"}
    assert all(
        set(m) == {"tag", "value", "tail_bound"} for m in data["methods"]
    )
    assert isinstance(data["consensus"], str)


def test_consensus_is_min_tail_method():
    report = constant_Kq(5)
    best = min(report.methods, key=lambda m: m.tail_bound)
    assert report.consensus == best.value


def test_envelope_near_one_for_large_q():
    for q in (25, 81):
        assert abs(float(constant_Kq(q, digits=12).consensus) - 1) <= 3.0 / q
        assert abs(float(constant_Cq(q, 1, digits=12).consensus) - 1) <= 3.0 / q
