"""Self-tests of the measurement rules in measure.py.

  python3 perfbench/run.py --self-test
"""

import unittest

import measure
from measure import MeasurementError


def step(rate, passed, good):
    return {"rate": rate, "pass": passed, "good_frac": good}


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count(self):
        value, n = measure.percentile(list(range(1, 1001)), 0.99)
        self.assertEqual((value, n), (990, 1000))

    def test_refuses_p99_with_fewer_than_ten_beyond(self):
        with self.assertRaises(MeasurementError):
            measure.percentile(list(range(999)), 0.99)

    def test_refuses_median_of_a_single_sample(self):
        # A one-sample "distribution" gives p50 == p99; neither is printed.
        with self.assertRaises(MeasurementError):
            measure.percentile([4.2], 0.50)

    def test_median_needs_twenty(self):
        measure.percentile(list(range(20)), 0.50)
        with self.assertRaises(MeasurementError):
            measure.percentile(list(range(19)), 0.50)


class WindowedPercentileTest(unittest.TestCase):
    def test_one_stalled_window_leaves_the_median(self):
        calm = [1.0] * 985 + [10.0] * 15
        stalled = [1.0] * 900 + [80.0] * 100
        value, n = measure.windowed_percentile(calm * 2 + stalled + calm * 2, 0.99)
        self.assertEqual((value, n), (10.0, 5000))

    def test_a_slower_server_moves_every_window(self):
        slow = [2.0] * 985 + [20.0] * 15
        value, _ = measure.windowed_percentile(slow * 5, 0.99)
        self.assertEqual(value, 20.0)

    def test_needs_three_full_windows(self):
        with self.assertRaises(MeasurementError):
            measure.windowed_percentile([1.0] * 2999, 0.99)


class MaxRateTest(unittest.TestCase):
    def test_floor_failure_is_not_a_number(self):
        steps = [step(1000, False, 0.5), step(16000, False, 0.1)]
        with self.assertRaises(MeasurementError):
            measure.max_rate(steps, 1000, 16000)

    def test_ceiling_pass_is_not_a_number(self):
        steps = [step(1000, True, 1.0), step(16000, True, 1.0)]
        with self.assertRaises(MeasurementError):
            measure.max_rate(steps, 1000, 16000)

    def test_interpolates_inside_the_bracket(self):
        steps = [step(1000, True, 1.0), step(16000, False, 0.1),
                 step(4000, True, 0.995), step(8000, False, 0.5),
                 step(5657, False, 0.985)]
        rate, resolution = measure.max_rate(steps, 1000, 16000)
        self.assertGreater(rate, 4000)
        self.assertLess(rate, 5657)
        self.assertAlmostEqual(resolution, 5657 / 4000 - 1)

    def test_value_moves_with_the_measurement(self):
        # Identical brackets with different goodput give different rates: the
        # result is a measurement, not a step of the search ladder.
        a = measure.max_rate([step(1000, True, 1.0), step(16000, False, 0.1),
                              step(4000, True, 0.999), step(5657, False, 0.98)],
                             1000, 16000)[0]
        b = measure.max_rate([step(1000, True, 1.0), step(16000, False, 0.1),
                              step(4000, True, 0.992), step(5657, False, 0.98)],
                             1000, 16000)[0]
        self.assertNotEqual(a, b)

    def test_a_rate_passes_if_any_probe_passed(self):
        steps = [step(1000, False, 0.9), step(1000, True, 1.0),
                 step(16000, False, 0.1), step(4000, True, 1.0),
                 step(5657, False, 0.6), step(5657, False, 0.95)]
        rate, _ = measure.max_rate(steps, 1000, 16000)
        self.assertGreater(rate, 4000)
        self.assertLess(rate, 5657)


class GeneratorTest(unittest.TestCase):
    def test_on_time_generator(self):
        self.assertFalse(measure.generator_behind([0.1] * 2000))

    def test_late_generator_flags_the_run(self):
        late = [0.1] * 1900 + [50.0] * 100
        self.assertTrue(measure.generator_behind(late))


class SetupTest(unittest.TestCase):
    def test_median_of_samples(self):
        samples = [{"seconds": s, "warmup": True} for s in (0.5, 0.4, 0.9)]
        self.assertEqual(measure.setup_seconds(samples), 0.5)

    def test_sample_without_warmup_is_refused(self):
        samples = [{"seconds": 0.01, "warmup": False}]
        with self.assertRaises(MeasurementError):
            measure.setup_seconds(samples)


class AttributionTest(unittest.TestCase):
    def test_overlapping_layers_are_not_summed(self):
        shares, total = measure.attribution(
            {"a": 6.0, "b": 3.5, "beside": 9.0}, 10.0, overlapping=("beside",))
        self.assertAlmostEqual(total, 0.95)
        self.assertAlmostEqual(shares["beside"], 0.9)
        measure.check_attribution(total)

    def test_low_attribution_fails(self):
        _, total = measure.attribution({"a": 5.0}, 10.0)
        with self.assertRaises(MeasurementError):
            measure.check_attribution(total)


class SpreadTest(unittest.TestCase):
    def test_matches_the_acceptance_formula(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
        self.assertLess(measure.spread(values), 0.06)


if __name__ == "__main__":
    unittest.main()
