"""Self-tests of the benchmark's statistics: python3 perfbench/test_stats.py"""

import json
import os
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 99), 1)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(989, 99), 9)
        self.assertEqual(stats.samples_beyond(10000, 99.9), 10)

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.highest_supported_percentile(100000), 99.99)
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(9999), 99.0)
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(989), 90.0)
        self.assertEqual(stats.highest_supported_percentile(100), 90.0)
        self.assertEqual(stats.highest_supported_percentile(20), 50.0)
        self.assertIsNone(stats.highest_supported_percentile(19))


class DueTimeLatency(unittest.TestCase):
    def test_closed_loop_is_round_trip(self):
        self.assertEqual(stats.due_time_latencies([5.0, 6.0], [0, 1], []),
                         [5.0, 6.0])

    def test_lateness_charged_to_every_request_of_the_arrival(self):
        rtt = [10.0, 20.0, 30.0, 40.0]
        arrivals = [0, 0, 1, 2]
        lateness = [0.0, 500.0, 2.5]
        self.assertEqual(stats.due_time_latencies(rtt, arrivals, lateness),
                         [10.0, 20.0, 530.0, 42.5])

    def test_a_stall_shows_in_later_arrivals(self):
        # One 1 ms stall makes the next arrival start 0.9 ms late: its own
        # fast round trip must still read as slow.
        rtt = [1000.0, 10.0]
        lateness = [0.0, 900.0]
        latencies = stats.due_time_latencies(rtt, [0, 1], lateness)
        self.assertEqual(latencies[1], 910.0)


class Names(unittest.TestCase):
    def test_metric_names(self):
        for good in ("answers_per_s", "service.shard.submit_batch_p99_us",
                     "net.write_queue_peak_bytes", "9lives", "a-b.c_d"):
            self.assertTrue(stats.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "lease/us", "x" * 65, None,
                    "µs_metric"):
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("us", "s", "1/s", "ratio", "MiB", "%", "count"):
            self.assertTrue(stats.valid_unit(good), good)
        for bad in ("", "µs", "a b", "x" * 17):
            self.assertFalse(stats.valid_unit(bad), bad)

    def test_benchmark_json_names_and_units(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            names.append(metric["name"])
            self.assertTrue(stats.valid_unit(metric["unit"]), metric)
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_what_run_prints(self):
        import run
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        for key, printed in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]],
                             list(printed), key)
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
