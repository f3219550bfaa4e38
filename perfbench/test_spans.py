"""Tests for the span reducer: python3 -m unittest discover -s perfbench"""

import json
import pathlib
import unittest

import spans


class SelfTime(unittest.TestCase):
    def test_no_children_is_the_duration(self):
        self.assertEqual(spans.self_time(100, 250, []), 150)

    def test_disjoint_children_are_subtracted(self):
        self.assertEqual(spans.self_time(0, 100, [(10, 20), (50, 80)]), 100 - 10 - 30)

    def test_overlapping_children_count_once(self):
        # [10, 40) and [30, 60) cover [10, 60): 50 ns, not 60.
        self.assertEqual(spans.self_time(0, 100, [(10, 40), (30, 60)]), 50)
        # A child nested inside another adds nothing.
        self.assertEqual(spans.self_time(0, 100, [(10, 90), (20, 30)]), 20)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(spans.self_time(50, 100, [(0, 60), (90, 200)]), 50 - 10 - 10)
        self.assertEqual(spans.self_time(50, 100, [(0, 40), (120, 200)]), 50)

    def test_fully_covered_parent_has_no_self_time(self):
        self.assertEqual(spans.self_time(0, 10, [(0, 5), (5, 10)]), 0)


class Tree(unittest.TestCase):
    """A hand-built session tree with overlapping children."""

    LINES = [
        'H\t{"workload": "soak"}',
        # session 1 (id 1): [0, 1000) with checkout [0, 100), two ops that
        # overlap each other [100, 400) + [300, 600), checkin [600, 700).
        "S\thp\tsession\t1\t0\t7\t0\t1000",
        "S\thp\tlease.checkout\t2\t1\t7\t0\t100",
        "S\thp\tlockfree_ds.insert\t3\t1\t7\t100\t400",
        "S\thp\tlockfree_ds.insert\t4\t1\t7\t300\t600",
        "S\thp\tlease.checkin\t5\t1\t7\t600\t700",
        # session 2 in another cell reuses span ids: ids are per cell.
        "S\tqsbr\tsession\t1\t0\t9\t0\t500",
        "S\tqsbr\tlease.checkout\t2\t1\t9\t0\t100",
        "C\thp\tuntraced.ops\t1000",
        "C\thp\td.ops\t1000",
        "C\thp\td.traversal_fences\t5000",
        "C\thp\tiso.protect_ns\t2.5",
        "C\thp\tuntraced.busy_ns\t20000",
    ]

    def setUp(self):
        self.header, self.spans, self.counters = spans.parse(self.LINES)

    def test_parse(self):
        self.assertEqual(self.header["workload"], "soak")
        self.assertEqual(len(self.spans["hp"]), 5)
        self.assertEqual(self.counters["hp"]["iso.protect_ns"], 2.5)

    def test_self_times(self):
        selfs = spans.self_times(self.spans)
        # hp session: 1000 - covered [0, 700) = 300.
        self.assertEqual(selfs[("hp", "session")], [1, 1000, 300])
        # Leaves keep their whole duration; the two inserts sum to 600.
        self.assertEqual(selfs[("hp", "lockfree_ds.insert")], [2, 600, 600])
        # qsbr session: 500 - 100 = 400, unaffected by hp's ids.
        self.assertEqual(selfs[("qsbr", "session")], [1, 500, 400])

    def test_metrics(self):
        metrics, report = spans.reduce(self.header, self.spans, self.counters)
        self.assertEqual(metrics["session.self_ns"], (350.0, "ns"))
        self.assertEqual(metrics["lockfree_ds.insert_ns.hp"], (300.0, "ns"))
        self.assertEqual(metrics["smr.fences_per_op.hp"], (5.0, "fences/op"))
        self.assertEqual(metrics["lease.checkout_ns.qsbr"][0], 100.0)
        self.assertEqual(metrics["lease.checkout_ns.he"][0], 0.0)
        # 2.5 ns x 5 fences = 12.5 of 20 ns measured per op.
        self.assertTrue(any("predicted_ns_per_op=12.5" in line and "share=62.5%" in line for line in report))

    def test_every_metric_is_reported(self):
        metrics, _ = spans.reduce(self.header, self.spans, self.counters)
        self.assertEqual(list(metrics), [name for name, _ in spans.metric_names()])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reducer_metrics(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json not present")
        bench = json.loads(path.read_text())
        declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(declared, spans.metric_names())


if __name__ == "__main__":
    unittest.main()
