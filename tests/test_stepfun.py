import json

import numpy as np
import pytest

from hazstep import StepFunction, ValidationError, Window


class TestWindow:
    def test_order_required(self):
        with pytest.raises(ValidationError):
            Window(1.0, 1.0)

    def test_length(self):
        assert Window(0.5, 2.0).length == 1.5

    def test_grid_ends_at_tau_max_and_keeps_interior_points(self, rng):
        # interior points are tau_min + j * (length / m), the times interpolate
        # maps change points to; the last is tau_max itself, which that formula
        # can round below
        for _ in range(2000):
            window = Window(*np.sort(rng.uniform(-5.0, 50.0, 2)))
            m = int(rng.integers(2, 3000))
            grid = window.grid(m)
            assert grid[0] == window.tau_min and grid[-1] == window.tau_max
            assert np.array_equal(grid[:-1], window.tau_min + np.arange(m) * (window.length / m))


class TestStepFunction:
    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            StepFunction(Window(0, 1), [0.5], [1.0])

    def test_breaks_inside_domain(self):
        with pytest.raises(ValidationError):
            StepFunction(Window(0, 1), [1.0], [1.0, 2.0])

    def test_right_continuous_evaluation(self):
        f = StepFunction(Window(0, 1), [0.25], [4.0, 1.0])
        assert f(0.1) == 4.0
        assert f(0.25) == 1.0  # right limit at the break
        assert f(0.9) == 1.0

    def test_constant_extension(self):
        f = StepFunction(Window(0.5, 1.0), [0.75], [2.0, 3.0])
        assert f(0.0) == 2.0
        assert f(5.0) == 3.0

    def test_cumulative_piecewise_linear(self):
        f = StepFunction(Window(0, 1), [0.25], [4.0, 1.0])
        assert f.cumulative(0.25) == pytest.approx(1.0, abs=1e-15)
        assert f.cumulative(1.0) == pytest.approx(1.75, abs=1e-15)
        assert f.cumulative(2.0) == pytest.approx(2.75, abs=1e-15)

    def test_inverse_cumulative_roundtrip(self, rng):
        f = StepFunction(Window(0, 1), [0.2, 0.6], [4.0, 1.5, 0.5])
        targets = rng.uniform(0, 5, 200)
        t = f.inverse_cumulative(targets)
        assert np.allclose(f.cumulative(t), targets, atol=1e-10)

    def test_inverse_through_flat_piece(self):
        f = StepFunction(Window(0, 2), [0.5, 1.0], [1.0, 0.0, 2.0])
        # mass: 0.5 on [0, 0.5), nothing on [0.5, 1), then slope 2
        assert f.inverse_cumulative(0.25) == pytest.approx(0.25)
        assert f.inverse_cumulative(0.5) == pytest.approx(0.5)
        assert f.inverse_cumulative(0.7) == pytest.approx(1.1, abs=1e-12)

    def test_inverse_zero_tail(self):
        f = StepFunction(Window(0, 1), [0.5], [1.0, 0.0])
        assert f.inverse_cumulative(0.4) == pytest.approx(0.4)
        assert f.inverse_cumulative(0.6) == np.inf

    def test_constant_function_integrals(self):
        f = StepFunction(Window(0, 1), [], [2.5])
        assert f.cumulative(2.0) == 5.0
        assert f.inverse_cumulative(5.0) == 2.0
        zero = StepFunction(Window(0, 1), [], [0.0])
        assert zero.cumulative(3.0) == 0.0
        assert zero.inverse_cumulative([0.0, 1.0]).tolist() == [0.0, np.inf]

    def test_integrals_from_zero_need_positive_breaks(self):
        # the integral from 0 cannot run through a break at or below 0
        f = StepFunction(Window(-1, 1), [-0.5], [1.0, 2.0])
        assert f(0.5) == 2.0
        for integral in (f.cumulative, f.inverse_cumulative):
            with pytest.raises(ValidationError, match="breaks > 0"):
                integral(0.5)

    def test_addition_refines_breaks(self):
        a = StepFunction(Window(0, 1), [0.25], [4.0, 1.0])
        b = StepFunction(Window(0, 1), [0.5], [1.0, 2.0])
        c = a + b
        assert c.breaks.tolist() == [0.25, 0.5]
        ts = np.array([0.1, 0.3, 0.7])
        assert np.allclose(c(ts), a(ts) + b(ts))

    def test_json_roundtrip(self):
        f = StepFunction(Window(0, 1), [0.2, 0.6], [4.0, 1.5, 0.5])
        g = StepFunction.from_dict(json.loads(f.to_json()))
        assert g.domain == f.domain
        assert np.array_equal(g.breaks, f.breaks)
        assert np.array_equal(g.levels, f.levels)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tau_min", "0", "domain: tau_min must be a number, got '0'"),
            ("tau_max", True, "domain: tau_max must be a number, got True"),
            ("breaks", ["0.5"], "breaks must be a sequence of numbers, got ['0.5']"),
            ("levels", [False, 2], "levels must be a sequence of numbers, got [False, 2]"),
            ("levels", [0, "2"], "levels must be a sequence of numbers, got [0, '2']"),
            ("breaks", 0.5, "breaks must be a sequence of numbers, got 0.5"),
        ],
        ids=["text tau_min", "boolean tau_max", "text break", "boolean level", "text level",
             "scalar breaks"],
    )
    def test_from_dict_reads_only_json_numbers(self, field, value, message):
        # a string or a boolean used to be read as the number it converts to
        d = {"domain": {"tau_min": 0, "tau_max": 1}, "breaks": [0.5], "levels": [0, 2]}
        (d["domain"] if field.startswith("tau") else d)[field] = value
        with pytest.raises(ValidationError) as caught:
            StepFunction.from_dict(d)
        assert str(caught.value) == message
