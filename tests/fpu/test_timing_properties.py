"""Property tests of the dynamic-timing model's structural invariants.

These pin the guarantees the rest of the framework builds on: nominal
operation is error-free by construction, masks never escape the
destination register, deeper undervolting never *reduces* the error
population, and ``is_error_free`` (the pipeline's clean-op
short-circuit) is a sound proof of all-zero masks.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.liberty import NOMINAL, VR15, VR20
from repro.errors.characterize import random_operands
from repro.fpu.formats import ALL_OPS
from repro.fpu.timing import DEFAULT_MODEL, PathClass
from repro.utils.rng import RngStream

N = 2000


def _operands(op, n=N, seed=77):
    return random_operands(op, n, RngStream(seed, f"timing-prop/{op.value}"))


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
class TestPerOpInvariants:
    def test_nominal_never_faults(self, op):
        assert DEFAULT_MODEL.is_error_free(op, NOMINAL)
        a, b = _operands(op)
        masks = DEFAULT_MODEL.error_masks(op, a, b, [NOMINAL])
        assert not masks["NOM"].any()

    def test_masks_stay_inside_destination_width(self, op):
        a, b = _operands(op)
        masks = DEFAULT_MODEL.error_masks(op, a, b, [VR15, VR20])
        width = op.fmt.width
        for point_name, mask in masks.items():
            assert mask.dtype == np.uint64
            if width < 64:
                assert not (mask >> np.uint64(width)).any(), point_name

    def test_undervolting_is_monotone(self, op):
        """VR20 can only add faulty instructions relative to VR15."""
        a, b = _operands(op)
        masks = DEFAULT_MODEL.error_masks(op, a, b, [VR15, VR20])
        faulty15 = int(np.count_nonzero(masks["VR15"]))
        faulty20 = int(np.count_nonzero(masks["VR20"]))
        assert faulty20 >= faulty15

    def test_is_error_free_is_a_sound_proof(self, op):
        a, b = _operands(op)
        for point in (NOMINAL, VR15, VR20):
            if DEFAULT_MODEL.is_error_free(op, point):
                masks = DEFAULT_MODEL.error_masks(op, a, b, [point])
                assert not masks[point.name].any(), (op, point.name)


def test_thresholds_order_with_undervolting():
    th_nom = DEFAULT_MODEL.threshold(NOMINAL)
    th15 = DEFAULT_MODEL.threshold(VR15)
    th20 = DEFAULT_MODEL.threshold(VR20)
    assert th_nom == 0.0
    assert 0.0 < th15 < th20 < 1.0


def test_calibration_places_ops_as_the_paper_reports():
    """Only double-precision arithmetic escapes the clean-op proof.

    ``is_error_free`` is conservative: fp.div.d is not *provably* clean
    at VR15 (its measured ratio there is still zero — see the IA-model
    tests), but every single-precision instruction and both conversions
    are, which is what lets the pipeline skip their DTA entirely.
    """
    suspect15 = {op.value for op in ALL_OPS
                 if not DEFAULT_MODEL.is_error_free(op, VR15)}
    suspect20 = {op.value for op in ALL_OPS
                 if not DEFAULT_MODEL.is_error_free(op, VR20)}
    assert suspect15 == {"fp.mul.d", "fp.sub.d", "fp.div.d"}
    assert suspect20 == {"fp.mul.d", "fp.sub.d", "fp.add.d", "fp.div.d"}


@given(st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_k_star_properties(slack_min, tau, amplitude, th_a, th_b):
    params = PathClass(slack_min=slack_min, tau=tau, amplitude=amplitude)
    for th in (th_a, th_b):
        ks = params.k_star(th)
        # No path fails below the critical slack; otherwise depth >= 1.
        if th <= slack_min:
            assert math.isinf(ks)
        else:
            assert ks >= 1.0
    # Raising the threshold (deeper undervolting) never raises k*.
    lo, hi = sorted((th_a, th_b))
    assert params.k_star(hi) <= params.k_star(lo)


def test_error_free_memo_matches_fresh_evaluation():
    """The per-(op, threshold) memo never serves a stale answer: asked
    in interleaved order across plain and composed stress points and two
    differently calibrated models, every answer equals the slack check
    evaluated from scratch."""
    from dataclasses import replace

    from repro.circuit.variation import StressCondition
    from repro.fpu.timing import TimingModel

    points = [NOMINAL, VR15, VR20,
              StressCondition(voltage_reduction=0.2, years=10,
                              temperature_c=100, overclock=1.1
                              ).operating_point("STRESS"),
              StressCondition(overclock=1.3).operating_point("OC")]
    models = [TimingModel(),
              TimingModel(replace(DEFAULT_MODEL.config,
                                  single_slack_bonus=0.0))]

    def fresh(model, op, point):
        threshold = model.threshold(point)
        return all(math.isinf(params.k_star(threshold))
                   for params in model._path_classes(op))

    for _ in range(2):
        for op in ALL_OPS:
            for point in points:
                for model in models:
                    assert (model.is_error_free(op, point)
                            == fresh(model, op, point)), (op, point.name)
    assert any(models[0].is_error_free(op, p) != models[1].is_error_free(
        op, p) for op in ALL_OPS for p in points)
