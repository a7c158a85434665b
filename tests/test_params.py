import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit import (
    AlgorithmConfig,
    DimensionError,
    DomainError,
    EvalScore,
    ModelUpdate,
    NumericError,
    ParameterVector,
    add_scaled,
    dice_score,
    l2_distance,
)
from fedkit.cli import main
from fedkit.params import _SMALL, all_finite, from_json
from fedkit.protocol import JoinAck

ROOT = Path(__file__).resolve().parent.parent


def brute_force_dice(a, b):
    """Counting oracle: walk both masks and count memberships directly."""
    size_a = sum(1 for x in a if x == 1)
    size_b = sum(1 for x in b if x == 1)
    inter = sum(1 for x, y in zip(a, b) if x == 1 and y == 1)
    if size_a + size_b == 0:
        return 1.0
    return (2 * inter) / (size_a + size_b)


class TestParameterVector:
    def test_dim_matches_length(self):
        v = ParameterVector([1.0, 2.0, 3.0])
        assert v.dim == 3

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            ParameterVector([1.0, float("nan")])
        with pytest.raises(NumericError):
            ParameterVector([float("inf")])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(DimensionError):
            ParameterVector([])
        with pytest.raises(DimensionError):
            ParameterVector([[1.0], [2.0]])

    def test_values_are_immutable(self):
        v = ParameterVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    def test_equality_is_bitwise(self):
        assert ParameterVector([1.0, 2.0]) == ParameterVector([1.0, 2.0])
        assert ParameterVector([1.0, 2.0]) != ParameterVector([1.0, 2.0 + 1e-15])


class TestAllFinite:
    @pytest.mark.parametrize("size", [1, 2, _SMALL - 1, _SMALL, _SMALL + 1, 1000])
    def test_matches_numpy_on_both_sides_of_the_small_path(self, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 1e300
        assert all_finite(values)
        for bad in (np.nan, np.inf, -np.inf):
            for index in {0, size // 2, size - 1}:
                arr = values.copy()
                arr[index] = bad
                assert not all_finite(arr)
                with pytest.raises(NumericError):
                    ParameterVector(arr)

    def test_extremes_are_finite(self):
        big = np.finfo(np.float64).max
        assert all_finite(np.array([big, -big, 5e-324, -0.0]))


class TestModelUpdate:
    def test_requires_positive_sample_count(self):
        with pytest.raises(DomainError):
            ModelUpdate("a", 0, ParameterVector([1.0]), 0)

    def test_sample_count_is_bounded_at_2_53(self):
        assert ModelUpdate("a", 0, ParameterVector([1.0]), 2**53).sample_count == 2**53
        with pytest.raises(DomainError, match=r"^sample_count must lie in \[1, 2\^53\]"):
            ModelUpdate("a", 0, ParameterVector([1.0]), 2**53 + 1)

    def test_requires_non_negative_round(self):
        with pytest.raises(DomainError):
            ModelUpdate("a", -1, ParameterVector([1.0]), 1)


class TestEvalScore:
    def test_dice_mean_bounded(self):
        with pytest.raises(DomainError):
            EvalScore(mean=1.2, std=0.0, metric="dice")

    def test_mse_mean_unbounded(self):
        EvalScore(mean=123.0, std=0.5, metric="mse_loss")


class TestAddScaled:
    def test_zero_coeff_is_identity(self):
        assert add_scaled(ParameterVector([1, 2]), ParameterVector([3, 4]), 0.0) == ParameterVector([1, 2])

    def test_self_cancellation(self):
        assert add_scaled(ParameterVector([1, 2]), ParameterVector([1, 2]), -1.0) == ParameterVector([0, 0])

    def test_elementwise_arithmetic(self):
        # oracle: 1 + 0.5*2 = 2, 0 + 0.5*2 = 1
        assert add_scaled(ParameterVector([1, 0]), ParameterVector([2, 2]), 0.5) == ParameterVector([2, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            add_scaled(ParameterVector([1]), ParameterVector([1, 2]), 1.0)

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            add_scaled(ParameterVector([1e308]), ParameterVector([1e308]), 1e308)

    @given(
        st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=1, max_size=16),
        st.floats(min_value=-1e100, max_value=1e100),
    )
    def test_never_nan_for_bounded_inputs(self, values, coeff):
        a = ParameterVector(values)
        b = ParameterVector(list(reversed(values)))
        out = add_scaled(a, b, coeff)
        assert np.all(np.isfinite(out.values))


class TestL2Distance:
    def test_identical_vectors(self):
        assert l2_distance(ParameterVector([1, 1]), ParameterVector([1, 1])) == 0.0

    def test_pythagorean(self):
        # oracle: sqrt(3^2 + 4^2) = 5
        assert l2_distance(ParameterVector([0, 0]), ParameterVector([3, 4])) == 5.0

    def test_scalar_absolute_difference(self):
        # oracle: |2 - (-2)| = 4
        assert l2_distance(ParameterVector([2]), ParameterVector([-2])) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            l2_distance(ParameterVector([1]), ParameterVector([1, 2]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (ParameterVector(rng.standard_normal(6)) for _ in range(3))
        assert l2_distance(a, b) == l2_distance(b, a)
        slack = 1e-12 * (1 + l2_distance(a, b) + l2_distance(b, c))
        assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + slack

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        a = ParameterVector(rng.standard_normal(5))
        b = ParameterVector(a.values + 1e-12)
        assert l2_distance(a, b) > 0


class TestDiceScore:
    def test_identical_non_empty_masks(self):
        assert dice_score([1, 0, 1, 1], [1, 0, 1, 1]) == 1.0

    def test_disjoint_masks(self):
        assert dice_score([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_counting_example(self):
        # oracle: |A|=4, |B|=6, |A∩B|=3 -> 2*3/10 = 0.6
        a = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        b = [1, 1, 1, 0, 1, 1, 1, 0, 0, 0]
        assert brute_force_dice(a, b) == 0.6
        assert dice_score(a, b) == 0.6

    def test_both_empty_is_one(self):
        assert dice_score([0, 0], [0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dice_score([1, 0], [1, 0, 1])

    def test_non_binary_entry(self):
        with pytest.raises(DomainError):
            dice_score([1, 2], [1, 0])
        with pytest.raises(DomainError):
            dice_score([1, 0], [0.5, 0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=100)
    def test_matches_counting_oracle(self, seed, length):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=length).tolist()
        b = rng.integers(0, 2, size=length).tolist()
        assert dice_score(a, b) == brute_force_dice(a, b)
        assert dice_score(a, b) == dice_score(b, a)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_self_dice_is_one_for_non_empty(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=16)
        m[rng.integers(0, 16)] = 1
        assert dice_score(m, m) == 1.0


class CodecError(Exception):
    pass


def fail(key: str, why: str) -> CodecError:
    return CodecError(f"{key}: {why}")


@dataclass(frozen=True)
class Inner:
    a: int
    b: float = 0.5


@dataclass(frozen=True)
class Outer:
    items: tuple[Inner, ...] = ()
    by_name: Mapping[str, Inner] = field(default_factory=dict)


class TestWireMode:
    """A config or report document may omit a key with a default; in wire
    mode every key at every depth is required."""

    def test_omitted_default_is_filled_in_config_mode_and_missing_in_wire_mode(self):
        doc = {"kind": "fedprox", "prox_mu": 0.5, "ditto_lambda": 0.0}
        assert from_json(AlgorithmConfig, doc, fail) == AlgorithmConfig("fedprox", prox_mu=0.5)
        with pytest.raises(CodecError, match=r"^weighting: missing required key$"):
            from_json(AlgorithmConfig, doc, fail, wire=True)

    def test_omitted_nested_object_is_defaulted_in_config_mode_and_missing_in_wire_mode(self):
        doc = {"accepted": True, "current_round": 0, "reason": ""}
        assert from_json(JoinAck, doc, fail).algorithm == AlgorithmConfig()
        with pytest.raises(CodecError, match=r"^algorithm: missing required key$"):
            from_json(JoinAck, doc, fail, wire=True)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"items": [{"a": 1, "b": 0.25}, {"a": 2}], "by_name": {}}, "items[1].b"),
            ({"items": [], "by_name": {"x": {"a": 1}}}, "by_name.x.b"),
        ],
        ids=["array", "mapping"],
    )
    def test_wire_mode_reaches_into_arrays_and_mappings(self, doc, key):
        assert from_json(Outer, doc, fail) is not None
        with pytest.raises(CodecError) as info:
            from_json(Outer, doc, fail, wire=True)
        assert str(info.value) == f"{key}: missing required key"


class TestColdPath:
    def test_first_use_of_each_schema_compiles_nothing(self, tmp_path, capsys):
        # Annotations are objects from class creation on, so the codec's
        # first use of a class compiles no annotation string. The report
        # carries every optional section: a ditto run with a local baseline.
        readme = (ROOT / "README.md").read_text()
        text = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        doc = json.loads(text)
        doc["algorithm"] = {"kind": "ditto", "ditto_lambda": 0.5}
        doc["simulator"]["local_baseline"] = True
        (tmp_path / "run.json").write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(tmp_path / "run.json"),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        script = textwrap.dedent("""
            import json, sys
            from fedkit import AlgorithmConfig, Message, ModelUpdate, ParameterVector, encode
            from fedkit.config import parse_config
            from fedkit.metrics import load_report
            from fedkit.protocol import MESSAGE_KINDS, Abort, JoinAck, TaskAssignment, decode

            text, report = sys.argv[1:]
            vector = ParameterVector([0.5, -1.0])
            messages = [
                Message("join_request", 0, "basel"),
                Message("join_ack", 0, "basel", JoinAck(True, 0, AlgorithmConfig())),
                Message("task_assignment", 1, "basel", TaskAssignment(vector)),
                Message("update_submission", 1, "basel", ModelUpdate("basel", 1, vector, 8)),
                Message("experiment_done", 2, "basel"),
                Message("abort", 2, "basel", Abort("quorum lost")),
            ]
            assert [m.kind for m in messages] == list(MESSAGE_KINDS)
            frames = [encode(m) for m in messages]
            compiled = []
            sys.addaudithook(lambda event, args: compiled.append(event) if event == "compile" else None)
            parse_config(text, "README.md")
            for frame in frames:
                decode(frame)
            load_report(report)
            print(json.dumps(len(compiled)))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, text, str(tmp_path / "run" / "report.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout.splitlines()[-1]) == 0
