"""Tests for the model-development phase (characterisation drivers)."""

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.circuit.builder import build_adder
from repro.circuit.sta import StaticTimingAnalysis
from repro.errors.characterize import (
    _per_bit_counts,
    characterize_da,
    characterize_gate,
    characterize_ia,
    characterize_wa,
    random_operands,
    random_vector_words,
)
from repro.errors.ia import IaModel, InstructionStats
from repro.errors.pipeline import CharacterizationPipeline, PipelineConfig
from repro.fpu import ops
from repro.fpu.formats import ALL_OPS, FpOp
from repro.fpu.timing import DEFAULT_MODEL
from repro.fpu.unit import DEFAULT_DTA_BATCH
from repro.utils.rng import RngStream


class TestRandomOperands:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_shapes(self, op):
        a, b = random_operands(op, 100, RngStream(1, op.value))
        assert a.shape == (100,)
        if op.has_two_operands:
            assert b.shape == (100,)
        else:
            assert b is None

    def test_uniform_values_cluster_exponents(self):
        """Uniform value distribution: exponents concentrate near the top
        of the range (the property that excites adder chains)."""
        a, _ = random_operands(FpOp.ADD_D, 5000, RngStream(1, "x"))
        exponents = (a >> np.uint64(52)) & np.uint64(0x7FF)
        spread = int(exponents.max()) - int(np.percentile(exponents, 5))
        assert spread < 64

    def test_i2f_single_truncation_bounds(self):
        """Regression: i2f.s encodings are 32-bit two's complement.

        Drawn values span [-2**30, 2**30), so after truncation to the
        32-bit operand register the encodings land in
        [0, 2**30) | [2**32 - 2**30, 2**32) — never in between, and
        never with the high uint64 word set.
        """
        a, b = random_operands(FpOp.I2F_S, 20_000, RngStream(3, "i2f-reg"))
        assert b is None
        assert a.dtype == np.uint64
        assert int(a.max()) < (1 << 32)
        low = a < (1 << 30)
        high = a >= ((1 << 32) - (1 << 30))
        assert np.all(low | high)
        assert low.any() and high.any()
        # The encoding is exactly v mod 2**32 of the signed values.
        signed = np.where(high, a.astype(np.int64) - (1 << 32),
                          a.astype(np.int64))
        assert int(signed.min()) >= -(1 << 30)
        assert int(signed.max()) < (1 << 30)

    def test_i2f_double_value_range(self):
        """i2f.d draws full-width signed integers in [-2**62, 2**62)."""
        a, b = random_operands(FpOp.I2F_D, 20_000, RngStream(3, "i2f-d"))
        assert b is None
        assert a.dtype == np.uint64
        signed = a.view(np.int64)
        assert int(signed.min()) >= -(1 << 62)
        assert int(signed.max()) < (1 << 62)
        assert (signed < 0).any() and (signed > 0).any()


class TestPerBitCounts:
    @pytest.mark.parametrize("size", [0, 1, 1001])
    @pytest.mark.parametrize("width", [32, 64])
    def test_matches_bitwise_shift_count(self, size, width):
        masks = RngStream(9, "per-bit").uint64(size)
        for view in (masks, masks[::3]):
            expected = np.array(
                [np.count_nonzero((view >> np.uint64(bit)) & np.uint64(1))
                 for bit in range(width)], dtype=np.int64)
            counts = _per_bit_counts(view, width)
            assert counts.dtype == np.int64
            assert counts.tobytes() == expected.tobytes()


class TestCharacterizeIa(object):
    def test_structure_and_paper_shape(self, ia_model):
        stats15 = ia_model.stats["VR15"]
        stats20 = ia_model.stats["VR20"]
        assert set(stats15) == set(ALL_OPS)
        # Only mul/sub fail at VR15; mul most error-prone at VR20.
        for op, st in stats15.items():
            if op not in (FpOp.MUL_D, FpOp.SUB_D):
                assert st.error_ratio == 0.0, op
        assert stats20[FpOp.MUL_D].error_ratio == max(
            st.error_ratio for st in stats20.values()
        )

    def test_bit_probabilities_are_conditional(self, ia_model):
        st = ia_model.stats["VR20"][FpOp.MUL_D]
        assert st.error_ratio > 0
        assert st.bit_probabilities.max() <= 1.0
        assert st.bit_probabilities.sum() > 0
        # Unconditional BER = ratio * conditional.
        assert np.allclose(st.unconditional_ber(),
                           st.error_ratio * st.bit_probabilities)


class TestCharacterizeDa:
    def test_fixed_ratios_in_paper_decades(self, da_model):
        """DA ER should land near the paper's 1e-3 (VR15) / 1e-2 (VR20)."""
        er15 = da_model.fixed_error_ratios["VR15"]
        er20 = da_model.fixed_error_ratios["VR20"]
        assert 0.0 <= er15 < 5e-3
        assert 1e-3 < er20 < 5e-2
        assert er20 > er15

    def test_requires_nonempty_traces(self):
        from repro.errors.base import WorkloadProfile

        with pytest.raises(ValueError):
            characterize_da([WorkloadProfile("empty")], [VR15])


class TestCharacterizeWa:
    def test_ber_arrays_present(self, wa_models, tiny_profiles):
        model = wa_models["srad_v1"]
        for point_name, per_op in model.faults.items():
            for op, tf in per_op.items():
                assert tf.ber is not None
                assert tf.ber.shape == (op.fmt.width,)
                assert tf.indices.shape == tf.bitmasks.shape

    def test_hotspot_error_free_at_vr15(self, wa_models, tiny_profiles):
        """The paper's headline observation."""
        model = wa_models["hotspot"]
        profile = tiny_profiles["hotspot"]
        assert model.error_ratio(profile, VR15) == 0.0
        assert model.error_ratio(profile, VR20) > 0.0

    def test_workloads_differ(self, wa_models, tiny_profiles):
        """Fig. 8: different workloads exhibit vastly different ratios."""
        ratios = {
            name: wa_models[name].error_ratio(tiny_profiles[name], VR20)
            for name in wa_models
        }
        assert max(ratios.values()) > 10 * min(
            v for v in ratios.values() if v > 0
        )

    def test_masks_match_trace_dta(self, wa_models, tiny_profiles, fpu):
        """Stored masks are exactly the DTA masks of the stored indices."""
        model = wa_models["srad_v1"]
        profile = tiny_profiles["srad_v1"]
        for op, tf in model.faults["VR20"].items():
            if tf.count == 0:
                continue
            a, b = profile.trace_by_op[op]
            take = min(tf.indices.max() + 1, a.size)
            batch = fpu.dta(op, a[:take], b[:take] if b is not None else None,
                            [VR20])
            masks = batch.masks["VR20"]
            for idx, mask in zip(tf.indices[:10], tf.bitmasks[:10]):
                assert masks[idx] == mask
            break


# -- whole-batch oracle ---------------------------------------------------------
# The serial drivers as they were before FPU.dta chunked its operands and
# skipped provably clean points, and before the drivers ran on the
# pipeline: one golden and one error_masks call over the whole batch,
# every point evaluated, each model's operands drawn from one sequential
# stream.

#: A forked pipeline geometry with a chunk coprime to DEFAULT_DTA_BATCH.
FORKED = PipelineConfig(workers=2, chunk=577, min_fanout_vectors=0)

def _oracle_masks(op, a, b, points):
    golden = ops.golden(op, a, b)
    return DEFAULT_MODEL.error_masks(op, a, b, points, golden=golden)


def _oracle_ia(points, samples_per_op, seed):
    rng = RngStream(seed, "ia-characterization")
    stats = {point.name: {} for point in points}
    for op in ALL_OPS:
        a, b = random_operands(op, samples_per_op, rng.child(op.value))
        masks = _oracle_masks(op, a, b, points)
        for point in points:
            faulty = masks[point.name][masks[point.name] != 0]
            counts = _per_bit_counts(faulty, op.fmt.width)
            conditional = (counts / faulty.size) if faulty.size else (
                np.zeros(op.fmt.width))
            stats[point.name][op] = InstructionStats(
                error_ratio=faulty.size / samples_per_op,
                bit_probabilities=conditional,
                sample_size=samples_per_op,
            )
    return IaModel(stats)


def _oracle_da(profiles, points, sample_per_point, seed):
    rng = RngStream(seed, "da-characterization")
    pool = [(op, a, b) for profile in profiles
            for op, (a, b) in profile.trace_by_op.items() if a.size]
    total_weight = sum(a.size for _, a, _ in pool)
    ratios = {}
    for point in points:
        faulty = analysed = 0
        for op, a, b in pool:
            take = max(1, int(round(sample_per_point * a.size
                                    / total_weight)))
            take = min(take, a.size)
            sel = rng.integers(0, a.size, size=take)
            masks = _oracle_masks(op, a[sel],
                                  b[sel] if b is not None else None, [point])
            faulty += int(np.count_nonzero(masks[point.name]))
            analysed += take
        ratios[point.name] = faulty / analysed
    return ratios


def _oracle_wa(profile, points, max_samples=1_000_000):
    faults = {point.name: {} for point in points}
    for op, (a, b) in profile.trace_by_op.items():
        if a.size == 0:
            continue
        take = min(a.size, max_samples)
        masks = _oracle_masks(op, a[:take],
                              b[:take] if b is not None else None, points)
        for point in points:
            mask = masks[point.name]
            idx = np.nonzero(mask)[0].astype(np.int64)
            faults[point.name][op] = (
                idx, mask[idx].astype(np.uint64),
                _per_bit_counts(mask[idx], op.fmt.width) / take)
    return faults


def assert_wa_matches_oracle(model, oracle):
    assert set(model.faults) == set(oracle)
    for point_name, per_op in oracle.items():
        assert set(model.faults[point_name]) == set(per_op)
        for op, (idx, bitmasks, ber) in per_op.items():
            tf = model.faults[point_name][op]
            assert tf.indices.tobytes() == idx.tobytes(), (point_name, op)
            assert tf.bitmasks.tobytes() == bitmasks.tobytes()
            assert tf.ber.tobytes() == ber.tobytes()


class TestSerialModelsMatchWholeBatchOracle:
    """The serial IA/DA/WA models are byte-identical to whole-batch DTA."""

    def test_ia_over_three_chunks(self, fpu):
        samples = 30_000
        assert 2 * DEFAULT_DTA_BATCH < samples <= 3 * DEFAULT_DTA_BATCH
        model = characterize_ia([VR15, VR20], fpu=fpu,
                                samples_per_op=samples, seed=5)
        assert model.to_dict() == _oracle_ia([VR15, VR20], samples,
                                             5).to_dict()

    def test_ia_forked_geometry(self, fpu):
        """Pool workers and ragged chunks slice the same op streams."""
        pipeline = CharacterizationPipeline(FORKED, fpu=fpu)
        model = characterize_ia([VR15, VR20], samples_per_op=3_000, seed=5,
                                pipeline=pipeline)
        assert model.to_dict() == _oracle_ia([VR15, VR20], 3_000,
                                             5).to_dict()

    def test_da_over_two_profiles(self, fpu, tiny_profiles):
        profiles = [tiny_profiles["kmeans"], tiny_profiles["srad_v1"]]
        model = characterize_da(profiles, [VR15, VR20], fpu=fpu,
                                sample_per_point=20_000, seed=5)
        oracle = _oracle_da(profiles, [VR15, VR20], 20_000, 5)
        assert oracle["VR20"] > 0
        assert model.fixed_error_ratios == oracle

    def test_da_forked_geometry(self, fpu, tiny_profiles):
        """Units slice the one sequential DA selection stream."""
        profiles = [tiny_profiles["kmeans"], tiny_profiles["srad_v1"]]
        pipeline = CharacterizationPipeline(FORKED, fpu=fpu)
        model = characterize_da(profiles, [VR15, VR20], sample_per_point=5_000,
                                seed=5, pipeline=pipeline)
        oracle = _oracle_da(profiles, [VR15, VR20], 5_000, 5)
        assert oracle["VR20"] > 0
        assert model.fixed_error_ratios == oracle

    @pytest.mark.parametrize("name", ["kmeans", "srad_v1"])
    def test_wa(self, wa_models, tiny_profiles, name):
        """kmeans fits one chunk; srad_v1's mul.d trace spans two."""
        model = wa_models[name]
        oracle = _oracle_wa(tiny_profiles[name], [VR15, VR20])
        assert sum(idx.size for idx, _, _ in oracle["VR20"].values()) > 0
        assert_wa_matches_oracle(model, oracle)


class TestCharacterizeGate:
    @pytest.fixture(scope="class")
    def adder(self):
        return build_adder(8)

    @pytest.fixture(scope="class")
    def clock(self, adder):
        return StaticTimingAnalysis(adder).critical_delay() * 0.8

    def test_backends_agree_exactly(self, adder, clock):
        kwargs = dict(clock_ps=clock, delay_factor=1.3, samples=384,
                      seed=13, lanes=100)
        event = characterize_gate(adder, backend="event", **kwargs)
        fast = characterize_gate(adder, backend="bitparallel", **kwargs)
        assert event.faulty == fast.faulty
        assert np.array_equal(event.bit_counts, fast.bit_counts)
        assert fast.worst_settle_ps <= event.worst_settle_ps + 1e-9
        assert event.backend == "event"
        assert fast.backend == "bitparallel"
        assert event.error_ratio == event.faulty / event.analysed

    def test_deterministic_in_seed(self, adder, clock):
        first = characterize_gate(adder, clock_ps=clock, delay_factor=1.4,
                                  samples=256, seed=5,
                                  backend="bitparallel")
        second = characterize_gate(adder, clock_ps=clock, delay_factor=1.4,
                                   samples=256, seed=5,
                                   backend="bitparallel")
        assert first.faulty == second.faulty
        assert np.array_equal(first.bit_counts, second.bit_counts)

    def test_lane_chunking_invariant(self, adder, clock):
        """Any lane-chunk geometry yields the identical statistics."""
        results = [
            characterize_gate(adder, clock_ps=clock, delay_factor=1.5,
                              samples=300, seed=9, backend="bitparallel",
                              lanes=lanes)
            for lanes in (37, 64, 300)
        ]
        for other in results[1:]:
            assert other.faulty == results[0].faulty
            assert np.array_equal(other.bit_counts, results[0].bit_counts)

    def test_vector_stream_is_backend_independent(self, adder):
        one = random_vector_words(adder, 65, RngStream(3, "s"))
        two = random_vector_words(adder, 65, RngStream(3, "s"))
        assert one == two
        assert len(one) == len(adder.inputs)

    def test_rejects_bad_budgets(self, adder, clock):
        with pytest.raises(ValueError):
            characterize_gate(adder, clock_ps=clock, delay_factor=1.3,
                              samples=0)
        with pytest.raises(ValueError):
            characterize_gate(adder, clock_ps=clock, delay_factor=1.3,
                              samples=8, lanes=0)
