#!/usr/bin/env python3
"""Unit tests for the analyzer's policy layer (tools/analyze/checkers.py)
and the suppression-file semantics.

These run over hand-built Facts, so they exercise the checkers
independently of either frontend and run on any machine.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tools", "analyze"))

import checkers  # noqa: E402
import driver  # noqa: E402
from facts import (  # noqa: E402
    OP_COMMUTATIVE,
    OP_OTHER,
    OP_SORTED_DRAIN,
    Facts,
    FieldFact,
    Finding,
    LoopFact,
    OrderedKeyFact,
    RecordFact,
    SortCallFact,
    SortKeyFact,
)


def _loop(ops, unordered=True, **kw):
    defaults = dict(file="src/x.cc", line=10, function="F",
                    range_text="m", range_type="std::unordered_map<int,int>",
                    is_unordered=unordered, body_ops=ops, body_detail="",
                    enclosing_sinks=[])
    defaults.update(kw)
    return LoopFact(**defaults)


class UnorderedOrderTest(unittest.TestCase):
    def _run(self, loop):
        f = Facts()
        f.loops.append(loop)
        return [x for x in checkers.run_checkers(f)
                if x.checker == "unordered-order"]

    def test_escaping_body_fires(self):
        self.assertEqual(len(self._run(_loop([OP_OTHER]))), 1)

    def test_commutative_body_allowed(self):
        self.assertEqual(self._run(_loop([OP_COMMUTATIVE])), [])

    def test_sorted_drain_allowed(self):
        self.assertEqual(self._run(_loop([OP_SORTED_DRAIN])), [])

    def test_mixed_body_fires(self):
        self.assertEqual(
            len(self._run(_loop([OP_COMMUTATIVE, OP_OTHER]))), 1)

    def test_ordered_container_ignored(self):
        self.assertEqual(
            self._run(_loop([OP_OTHER], unordered=False,
                            range_type="std::map<int,int>")), [])

    def test_key_is_stable(self):
        (finding,) = self._run(_loop([OP_OTHER]))
        self.assertEqual(finding.key, "F@m")


class PointerKeyTest(unittest.TestCase):
    def test_pointer_comparator_fires(self):
        f = Facts()
        f.sort_calls.append(SortCallFact(
            file="src/x.cc", line=5, function="F", algorithm="std::sort",
            keys=[SortKeyFact(text="a", type="const Item *",
                              is_pointer=True)]))
        got = [x for x in checkers.run_checkers(f)
               if x.checker == "pointer-key-order"]
        self.assertEqual(len(got), 1)

    def test_value_comparator_silent(self):
        f = Facts()
        f.sort_calls.append(SortCallFact(
            file="src/x.cc", line=5, function="F", algorithm="std::sort",
            keys=[SortKeyFact(text="weight", type="int",
                              is_pointer=False)]))
        self.assertEqual([x for x in checkers.run_checkers(f)
                          if x.checker == "pointer-key-order"], [])

    def test_default_compare_pointer_set_fires(self):
        f = Facts()
        f.ordered_keys.append(OrderedKeyFact(
            file="src/x.cc", line=7, container="std::set",
            key_type="Item*", has_custom_compare=False))
        got = [x for x in checkers.run_checkers(f)
               if x.checker == "pointer-key-order"]
        self.assertEqual(len(got), 1)

    def test_custom_compare_pointer_set_silent(self):
        f = Facts()
        f.ordered_keys.append(OrderedKeyFact(
            file="src/x.cc", line=7, container="std::set",
            key_type="Item*", has_custom_compare=True))
        self.assertEqual([x for x in checkers.run_checkers(f)
                          if x.checker == "pointer-key-order"], [])


class LockCoverageTest(unittest.TestCase):
    def _rec(self, field):
        rec = RecordFact(name="C", file="src/x.h", line=1)
        rec.fields.append(FieldFact(name="mu_", type="util::Mutex",
                                    line=2, is_mutex=True))
        rec.fields.append(field)
        f = Facts()
        f.records.append(rec)
        return [x for x in checkers.run_checkers(f)
                if x.checker == "lock-coverage"]

    def test_bare_field_fires(self):
        got = self._rec(FieldFact(name="n_", type="int64_t", line=3))
        self.assertEqual([x.key for x in got], ["C.n_"])

    def test_guarded_field_silent(self):
        self.assertEqual(
            self._rec(FieldFact(name="n_", type="int64_t", line=3,
                                guarded=True)), [])

    def test_unguarded_by_design_silent(self):
        self.assertEqual(
            self._rec(FieldFact(name="n_", type="int64_t", line=3,
                                unguarded=True)), [])

    def test_const_and_atomic_silent(self):
        self.assertEqual(
            self._rec(FieldFact(name="n_", type="int64_t", line=3,
                                is_const=True)), [])
        self.assertEqual(
            self._rec(FieldFact(name="n_", type="std::atomic<int>",
                                line=3, is_sync=True)), [])

    def test_mutexless_class_silent(self):
        rec = RecordFact(name="C", file="src/x.h", line=1)
        rec.fields.append(FieldFact(name="n_", type="int64_t", line=2))
        f = Facts()
        f.records.append(rec)
        self.assertEqual([x for x in checkers.run_checkers(f)
                          if x.checker == "lock-coverage"], [])


class MetricLiteralTest(unittest.TestCase):
    def _run(self, literal):
        from facts import MetricCallFact
        f = Facts()
        f.metric_calls.append(MetricCallFact(
            file="src/x.cc", line=4, function="F", api="GetCounter",
            arg_text="name", arg_is_literal=literal))
        return [x for x in checkers.run_checkers(f)
                if x.checker == "metric-literal"]

    def test_dynamic_name_fires(self):
        self.assertEqual(len(self._run(False)), 1)

    def test_literal_name_silent(self):
        self.assertEqual(self._run(True), [])


class SuppressionsTest(unittest.TestCase):
    def _load(self, text):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".txt", delete=False) as fh:
            fh.write(text)
            path = fh.name
        try:
            return driver.Suppressions.load(path)
        finally:
            os.unlink(path)

    def _finding(self, **kw):
        defaults = dict(checker="lock-coverage", file="src/x.h", line=3,
                        message="m", key="C.n_")
        defaults.update(kw)
        return Finding(**defaults)

    def test_match_marks_used(self):
        supp = self._load(
            "lock-coverage src/x.h C.n_ -- justified reason\n")
        self.assertTrue(supp.matches(self._finding()))
        self.assertEqual(supp.unused(), [])

    def test_unused_entry_reported(self):
        supp = self._load(
            "lock-coverage src/x.h C.gone_ -- stale entry\n")
        self.assertFalse(supp.matches(self._finding()))
        self.assertEqual(len(supp.unused()), 1)

    def test_missing_justification_rejected(self):
        with self.assertRaises(SystemExit):
            self._load("lock-coverage src/x.h C.n_\n")

    def test_empty_justification_rejected(self):
        with self.assertRaises(SystemExit):
            self._load("lock-coverage src/x.h C.n_ --   \n")

    def test_comments_and_blanks_ignored(self):
        supp = self._load("# comment\n\n")
        self.assertEqual(supp.entries, [])

    def test_key_does_not_match_other_checker(self):
        supp = self._load(
            "metric-literal src/x.h C.n_ -- wrong checker\n")
        self.assertFalse(supp.matches(self._finding()))


class DedupeTest(unittest.TestCase):
    def test_findings_deduped_and_sorted(self):
        f = Facts()
        for _ in range(2):
            f.loops.append(_loop([OP_OTHER]))
        got = [x for x in checkers.run_checkers(f)
               if x.checker == "unordered-order"]
        self.assertEqual(len(got), 1)


if __name__ == "__main__":
    unittest.main()
