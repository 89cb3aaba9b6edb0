"""unittest suite for ci/bench_gate.py: malformed input, the checks contract
and the gated-metric boundaries. Run by the ci-tools CI job:
python3 -m unittest discover -s ci -v"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CI = Path(__file__).resolve().parent
GATE = CI / "bench_gate.py"
COMMITTED = CI.parent / "BENCH_softsched.json"

# One synthetic document with two blocks: an array block (no checks) and
# an object block whose metrics cover both directions of the gate.
DOC = {
    "schema": "softsched-bench-v2",
    "gated": {
        "beta.rate": {"better": "higher", "tolerance": 2, "floor": 0},
        "beta.tail_ms": {"better": "lower", "tolerance": 4, "floor": 1},
        "beta.qor.delta": {"better": "lower", "tolerance": 1, "floor": 0},
    },
    "scenarios": {
        "alpha": [{"size": 100}],
        "beta": {
            "rate": 200.0,
            "tail_ms": 2.0,
            "qor": {"delta": -2},
            "note": "informational",
            "checks": {"bounded": True, "deterministic": True},
        },
    },
}


def doc():
    return copy.deepcopy(DOC)


class GateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def gate(self, baseline, fresh):
        """Writes both documents (raw strings pass through) and runs the gate."""
        paths = []
        for name, d in (("baseline.json", baseline), ("fresh.json", fresh)):
            path = self.dir / name
            path.write_text(d if isinstance(d, str) else json.dumps(d))
            paths.append(str(path))
        result = subprocess.run([sys.executable, str(GATE), *paths],
                                capture_output=True, text=True)
        self.assertNotIn("Traceback", result.stderr)
        return result

    def assertPasses(self, fresh, baseline=None):
        result = self.gate(baseline or doc(), fresh)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("Gate passed", result.stdout)
        return result

    def assertFails(self, fresh, *needles, baseline=None):
        result = self.gate(baseline or doc(), fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("Gate failed", result.stdout)
        for needle in needles:
            self.assertIn(needle, result.stdout)
        return result

    def with_value(self, path, value):
        """doc() with the dotted scenario path set to value."""
        d = doc()
        *parents, leaf = path.split(".")
        node = d["scenarios"]
        for part in parents:
            node = node[part]
        node[leaf] = value
        return d

    def test_identical_documents_pass(self):
        result = self.assertPasses(doc())
        for path in DOC["gated"]:
            self.assertIn(path, result.stdout)

    # -- malformed documents ------------------------------------------------

    def test_malformed_json_fails_readably(self):
        self.assertFails('{"schema": "softsched-bench-v2", ', "malformed benchmark document")

    def test_wrong_schema_fails(self):
        self.assertFails(dict(doc(), schema="softsched-bench-v1"), "unexpected schema")
        self.assertFails(["not", "a", "document"], "unexpected schema")

    def test_baseline_without_scenarios_fails(self):
        self.assertFails(doc(), "no scenarios object",
                         baseline={"schema": "softsched-bench-v1"})

    def test_missing_block_fails(self):
        fresh = doc()
        del fresh["scenarios"]["alpha"]
        self.assertFails(fresh, "block alpha is missing or empty")

    def test_empty_blocks_fail(self):
        self.assertFails(self.with_value("alpha", []), "block alpha is missing or empty")
        self.assertFails(self.with_value("beta", {}), "block beta is missing or empty")

    def test_object_block_without_checks_fails(self):
        fresh = doc()
        del fresh["scenarios"]["beta"]["checks"]
        self.assertFails(fresh, "block beta has no checks object")
        self.assertFails(self.with_value("beta.checks", {}), "block beta has no checks object")
        self.assertFails(self.with_value("beta.checks", [True]), "block beta has no checks object")

    # -- checks ---------------------------------------------------------------

    def test_false_check_is_named(self):
        self.assertFails(self.with_value("beta.checks.bounded", False),
                         "beta.bounded is false")

    def test_non_boolean_check_is_named(self):
        self.assertFails(self.with_value("beta.checks.deterministic", "yes"),
                         "beta.deterministic is \"yes\"")
        self.assertFails(self.with_value("beta.checks.deterministic", 1),
                         "beta.deterministic is 1")

    # -- gated metrics --------------------------------------------------------

    def test_higher_is_better_boundary(self):
        self.assertPasses(self.with_value("beta.rate", 100.0))  # exactly base / 2
        self.assertFails(self.with_value("beta.rate", 99.99), "beta.rate regressed")

    def test_lower_is_better_boundary(self):
        # max(2.0, floor 1) * 4 = 8
        self.assertPasses(self.with_value("beta.tail_ms", 7.99))
        self.assertFails(self.with_value("beta.tail_ms", 8.01), "beta.tail_ms regressed")

    def test_lower_is_better_floor_dominates_a_tiny_baseline(self):
        baseline = self.with_value("beta.tail_ms", 0.5)  # max(0.5, 1) * 4 = 4
        self.assertPasses(self.with_value("beta.tail_ms", 3.99), baseline=baseline)
        self.assertFails(self.with_value("beta.tail_ms", 4.01), "beta.tail_ms",
                         baseline=baseline)

    def test_negative_baseline_with_zero_floor(self):
        # max(-2, 0) * 1 = 0: never worse than zero, whatever the baseline.
        self.assertPasses(self.with_value("beta.qor.delta", 0))
        self.assertFails(self.with_value("beta.qor.delta", 0.01), "beta.qor.delta regressed")

    def test_ungated_metric_may_change(self):
        self.assertPasses(self.with_value("beta.note", 12))

    def test_gated_path_missing_from_baseline_fails(self):
        baseline = doc()
        del baseline["scenarios"]["beta"]["qor"]["delta"]
        self.assertFails(doc(), "baseline has no beta.qor.delta", baseline=baseline)

    def test_gated_path_missing_from_fresh_fails(self):
        fresh = doc()
        del fresh["scenarios"]["beta"]["rate"]
        self.assertFails(fresh, "fresh has no beta.rate")

    def test_gated_value_of_wrong_type_fails(self):
        self.assertFails(self.with_value("beta.rate", "fast"), "fresh beta.rate is not a number")
        self.assertFails(self.with_value("beta.qor", 3), "fresh has no beta.qor.delta")
        self.assertFails(self.with_value("beta.rate", True), "is not a number")

    def test_gated_table_missing_or_malformed_fails(self):
        fresh = doc()
        del fresh["gated"]
        self.assertFails(fresh, "no gated table")
        self.assertFails(dict(doc(), gated=["beta.rate"]), "no gated table")
        for spec in ({"better": "up", "tolerance": 2, "floor": 0},
                     {"better": "higher", "tolerance": "2", "floor": 0},
                     {"better": "lower", "tolerance": 0, "floor": 0},
                     {"better": "lower", "tolerance": 2},
                     "higher"):
            fresh = doc()
            fresh["gated"]["beta.rate"] = spec
            self.assertFails(fresh, "gated beta.rate has a bad spec")

    # -- the committed baseline as a fresh document ---------------------------

    def committed_as_fresh(self):
        fresh = json.loads(COMMITTED.read_text())
        fresh["schema"] = "softsched-bench-v2"
        fresh["gated"] = {"memory.alloc_ratio": DOC["gated"]["beta.rate"]}
        for block in fresh["scenarios"].values():
            if isinstance(block, dict):
                block["checks"] = {"ok": True}
        return fresh

    def test_key_only_a_summary_read_may_be_missing(self):
        fresh = self.committed_as_fresh()
        del fresh["scenarios"]["dse"]["total_points"]
        self.assertPasses(fresh, baseline=COMMITTED.read_text())

    def test_value_only_a_summary_read_may_change_type(self):
        fresh = self.committed_as_fresh()
        fresh["scenarios"]["load"]["slo"] = "not an object"
        self.assertPasses(fresh, baseline=COMMITTED.read_text())


if __name__ == "__main__":
    unittest.main()
