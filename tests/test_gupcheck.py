"""gupcheck (repro.analysis): fixture tests per rule, suppression
mechanics, JSON report schema, SARIF output shape, the one-run CLI
(composing sinks, exit codes, the four-flag surface), and the
self-check that the shipped source tree is clean under every rule.

Each rule gets three kinds of fixture: a snippet it must flag, a
snippet it must not flag, and a suppressed snippet (justified
``# gupcheck: ignore[rule] -- why`` comment) it must stay silent on.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import (
    ALL_RULES,
    Analyzer,
    check_source,
    default_rules,
)
from repro.analysis.framework import (
    SUPPRESSION_RULE,
    ModuleInfo,
)
from repro.analysis.__main__ import _build_parser, main
from repro.analysis.rules import (
    DeterminismRule,
    ExceptionTotalityRule,
    IterOrderRule,
    LayeringRule,
    SimRaceRule,
)
from repro.analysis.rules.determinism import WALL_CLOCK_CALLS
from repro.analysis.sarif import to_sarif, to_sarif_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminismRule:
    # Outside simnet, so the blocking-import bans (TestSimBlockingRule)
    # stay out of the clock/RNG counts.
    RELPATH = "repro/core/fixture.py"

    def test_flags_wall_clock_time(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def handler():
                    return time.time()
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "time.time()" in found[0].message
        assert found[0].line == 4

    def test_flags_datetime_now_and_utcnow(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                from datetime import datetime

                def stamp():
                    return datetime.now(), datetime.utcnow()
            """),
            "repro/core/fixture.py",
        )
        assert len(found) == 2

    def test_flags_every_wall_clock_read(self):
        # The vocabulary keys on the receiver's last dotted segment, so
        # a dotted receiver (``datetime.datetime.now()``) reads too.
        for call in sorted(WALL_CLOCK_CALLS):
            for written in (call, "host." + call):
                found = check_source(
                    DeterminismRule(), "STAMP = %s()\n" % written,
                    "repro/core/fixture.py",
                )
                assert [v.rule for v in found] == ["determinism"], written
                assert written in found[0].message
        for benign in ("trace.now()", "sim.time()", "clock.today()"):
            assert check_source(
                DeterminismRule(), "STAMP = %s\n" % benign,
                "repro/core/fixture.py",
            ) == [], benign

    def test_flags_module_level_random(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import random

                def jitter():
                    return random.random() + random.randint(1, 6)
            """),
            "repro/workloads/fixture.py",
        )
        assert len(found) == 2

    def test_flags_from_random_import(self):
        found = check_source(
            DeterminismRule(),
            "from random import randint\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_injected_seeded_random(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import random

                class Churn:
                    def __init__(self, seed):
                        self._rng = random.Random(seed)

                    def next(self):
                        return self._rng.random()
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            DeterminismRule(),
            "import time\nNOW = time.time()\n",
            "repro/pxml/fixture.py",
        )
        assert found == []

    def test_suppression_with_justification_silences(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def bench():
                    # gupcheck: ignore[determinism] -- host-time benchmark harness
                    return time.time()
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

class TestLayeringRule:
    RELPATH = "repro/services/fixture.py"

    def test_flags_direct_store_from_import(self):
        found = check_source(
            LayeringRule(),
            "from repro.stores.hlr import HLR\n",
            self.RELPATH,
        )
        assert len(found) == 1
        assert "repro.adapters" in found[0].message

    def test_flags_direct_store_module_import(self):
        found = check_source(
            LayeringRule(),
            "import repro.stores.hlr\n",
            "repro/core/fixture.py",
        )
        assert len(found) == 1

    def test_flags_relative_store_import(self):
        found = check_source(
            LayeringRule(),
            "from ..stores import hlr\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_adapter_import(self):
        found = check_source(
            LayeringRule(),
            "from repro.adapters.hlr_adapter import HlrAdapter\n",
            self.RELPATH,
        )
        assert found == []

    def test_allows_type_checking_import(self):
        found = check_source(
            LayeringRule(),
            dedent("""
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.stores.hlr import HLR
            """),
            self.RELPATH,
        )
        assert found == []

    def test_adapters_layer_may_import_stores(self):
        found = check_source(
            LayeringRule(),
            "from repro.stores.hlr import HLR\n",
            "repro/adapters/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            LayeringRule(),
            dedent("""
                # gupcheck: ignore[layering] -- migration shim until PR N
                from repro.stores.hlr import HLR
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# exception-totality
# ---------------------------------------------------------------------------

class TestExceptionTotalityRule:
    RELPATH = "repro/pxml/fixture.py"

    def test_flags_non_gup_raise(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def parse(text):
                    raise ValueError("bad")
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "ValueError" in found[0].message

    def test_flags_bare_except(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def safe(text):
                    try:
                        return int(text)
                    except:
                        return None
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_flags_swallowing_except_exception(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def safe(text):
                    try:
                        return int(text)
                    except Exception:
                        return None
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_gup_raises_and_reraise(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                from repro.errors import ParseError, ModelError

                def parse(text):
                    if not text:
                        raise ParseError("empty")
                    try:
                        return int(text)
                    except Exception:
                        raise
            """),
            self.RELPATH,
        )
        assert found == []

    def test_allows_reraising_caught_variable(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def rethrow(err):
                    raise err
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            ExceptionTotalityRule(),
            "def f():\n    raise ValueError('x')\n",
            "repro/stores/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def parse(text):
                    # gupcheck: ignore[exception-totality] -- stdlib contract
                    raise KeyError(text)
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# determinism inside simnet: no sleeps, no blocking I/O
# ---------------------------------------------------------------------------

class TestSimBlockingRule:
    RELPATH = "repro/simnet/fixture.py"

    def test_flags_time_sleep(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def handler():
                    time.sleep(0.1)
            """),
            self.RELPATH,
        )
        # both the blocking-module import and the sleep call
        assert len(found) == 2

    def test_flags_blocking_io(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def handler(path):
                    with open(path) as handle:
                        return handle.read()
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_flags_socket_import(self):
        found = check_source(
            DeterminismRule(),
            "import socket\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_virtual_time(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def handler(sim, callback):
                    sim.schedule(25.0, callback)
                    return sim.now
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            DeterminismRule(),
            "import time\n",
            "repro/workloads/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def snapshot(path):
                    # gupcheck: ignore[determinism] -- debug dump, not an event handler
                    return open(path)
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# suppression mechanics (Analyzer-level audit)
# ---------------------------------------------------------------------------

class TestSuppressionAudit:
    def _analyze(self, source, relpath="repro/core/fixture.py"):
        module = ModuleInfo.from_source(dedent(source), relpath)
        return Analyzer().analyze_module(module)

    def test_justified_suppression_lands_in_suppressed_report(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[determinism] -- host benchmark only
                return time.time()
        """)
        assert active == []
        assert len(suppressed) == 1
        assert suppressed[0].rule == "determinism"
        assert suppressed[0].justification == "host benchmark only"

    def test_unjustified_suppression_is_a_violation(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                return time.time()  # gupcheck: ignore[determinism]
        """)
        rules = sorted(v.rule for v in active)
        # The original finding stays active AND the bad suppression is
        # flagged: silencers must say why.
        assert rules == sorted(["determinism", SUPPRESSION_RULE])
        assert suppressed == []

    def test_unknown_rule_name_is_a_violation(self):
        active, _ = self._analyze("""
            x = 1  # gupcheck: ignore[no-such-rule] -- because reasons
        """)
        assert [v.rule for v in active] == [SUPPRESSION_RULE]
        assert "no-such-rule" in active[0].message

    def test_rule_subset_still_knows_every_registered_rule(self):
        # `--rules X` must not turn every other rule's suppressions
        # into "unknown rule" findings: the vocabulary is the
        # registry, and an inactive rule's suppression is not audited.
        subset = Analyzer(rules=[LayeringRule()])
        module = ModuleInfo.from_source(dedent("""
            x = 1  # gupcheck: ignore[determinism] -- inactive here
            y = 2  # gupcheck: ignore[nonsense] -- still a typo
        """), "repro/core/fixture.py")
        active, _ = subset.analyze_module(module)
        assert [v.rule for v in active] == [SUPPRESSION_RULE]
        assert "nonsense" in active[0].message

    def test_trailing_comment_covers_its_own_line(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                return time.time()  # gupcheck: ignore[determinism] -- why not
        """)
        assert active == []
        assert len(suppressed) == 1

    def test_standalone_comment_covers_next_line_only(self):
        active, _ = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[determinism] -- first call only
                first = time.time()
                second = time.time()
                return first - second
        """)
        assert [v.rule for v in active] == ["determinism"]
        assert active[0].line == 6

    def test_suppression_for_other_rule_does_not_apply(self):
        active, _ = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[sim-race] -- wrong rule on purpose
                return time.time()
        """)
        assert "determinism" in [v.rule for v in active]


# ---------------------------------------------------------------------------
# report / JSON schema
# ---------------------------------------------------------------------------

class TestReportSchema:
    def _report(self, tmp_path):
        bad = tmp_path / "repro" / "simnet" / "busy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef handler():\n"
            "    time.sleep(1)\n    return time.time()\n",
            encoding="utf-8",
        )
        return Analyzer().analyze_paths([str(tmp_path)])

    def test_json_schema(self, tmp_path):
        report = self._report(tmp_path)
        data = json.loads(report.to_json())
        assert data["gupcheck"] == 2
        assert data["ok"] is False
        assert data["files_scanned"] == 1
        assert set(data["rules"]) == {
            rule_class.name for rule_class in ALL_RULES
        }
        assert data["suppressed"] == []
        assert data["errors"] == []
        assert set(data) == {
            "gupcheck", "ok", "files_scanned", "rules",
            "violations", "suppressed", "errors",
        }
        assert len(data["violations"]) >= 2
        for violation in data["violations"]:
            assert set(violation) == {
                "rule", "path", "line", "col", "message",
                "severity", "fingerprint",
            }
            assert isinstance(violation["line"], int)
            assert violation["severity"] in ("error", "warning")
            assert violation["path"] == "repro/simnet/busy.py"
        rules_hit = {v["rule"] for v in data["violations"]}
        assert "determinism" in rules_hit

    def test_unparseable_file_reported_not_crashing(self, tmp_path):
        broken = tmp_path / "repro" / "core" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def (:\n", encoding="utf-8")
        report = Analyzer().analyze_paths([str(tmp_path)])
        assert not report.ok
        assert len(report.errors) == 1

    def test_rule_names_unique_and_kebab(self):
        names = [rule.name for rule in default_rules()]
        assert len(names) == len(set(names)) == len(ALL_RULES)
        for name in names:
            assert name == name.lower()
            assert " " not in name


# ---------------------------------------------------------------------------
# self-check: the shipped tree is clean; the CLI agrees
# ---------------------------------------------------------------------------

class TestSelfCheck:
    def test_source_tree_is_clean(self):
        report = Analyzer().analyze_paths([SRC_ROOT])
        assert report.errors == []
        assert report.violations == [], "\n".join(
            str(v) for v in report.violations
        )
        # Every scanned file parsed, and the scan actually saw the tree.
        assert report.files_scanned >= 60

    def test_cli_exits_zero_on_clean_tree(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--json", SRC_ROOT],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True

    def test_cli_lists_rules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        for rule_class in ALL_RULES:
            assert rule_class.name in proc.stdout


# ---------------------------------------------------------------------------
# simulator soundness rules
# ---------------------------------------------------------------------------

class TestSimRace:
    def test_same_timestamp_same_attribute_flagged(self):
        found = check_source(SimRaceRule(), dedent(
            """
            def wire(sim, node):
                def arm():
                    node.state = "armed"

                def fire():
                    node.state = "fired"

                sim.schedule_at(5.0, arm)
                sim.schedule_at(5.0, fire)
            """
        ), "repro/simnet/fixture.py")
        assert len(found) == 1
        assert "state" in found[0].message

    def test_different_timestamps_clean(self):
        found = check_source(SimRaceRule(), dedent(
            """
            def wire(sim, node):
                def arm():
                    node.state = "armed"

                def fire():
                    node.state = "fired"

                sim.schedule_at(5.0, arm)
                sim.schedule_at(6.0, fire)
            """
        ), "repro/simnet/fixture.py")
        assert found == []

    def test_disjoint_attributes_clean(self):
        found = check_source(SimRaceRule(), dedent(
            """
            def wire(sim, node):
                def arm():
                    node.armed = True

                def fire():
                    node.fired = True

                sim.schedule_at(5.0, arm)
                sim.schedule_at(5.0, fire)
            """
        ), "repro/simnet/fixture.py")
        assert found == []


class TestIterOrder:
    def test_set_iteration_feeding_scheduler_warns(self):
        found = check_source(IterOrderRule(), dedent(
            """
            def kick(sim, nodes):
                pending = set(nodes)
                for node in pending:
                    sim.schedule(0.1, node.wake)
            """
        ), "repro/simnet/fixture.py")
        assert len(found) == 1
        assert found[0].severity == "warning"

    def test_sorted_set_iteration_clean(self):
        found = check_source(IterOrderRule(), dedent(
            """
            def kick(sim, nodes):
                pending = set(nodes)
                for node in sorted(pending):
                    sim.schedule(0.1, node.wake)
            """
        ), "repro/simnet/fixture.py")
        assert found == []

    def test_set_iteration_without_order_sensitive_sink_clean(self):
        found = check_source(IterOrderRule(), dedent(
            """
            def total(sizes):
                seen = set(sizes)
                count = 0
                for size in seen:
                    count += size
                return count
            """
        ), "repro/simnet/fixture.py")
        assert found == []


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------

class TestSarif:
    def report(self, tmp_path):
        bad = tmp_path / "repro" / "simnet" / "busy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef handler():\n"
            "    time.sleep(1)\n"
            "    return time.time()"
            "  # gupcheck: ignore[determinism] -- fixture\n",
            encoding="utf-8",
        )
        return Analyzer().analyze_paths([str(tmp_path)])

    def test_sarif_shape(self, tmp_path):
        report = self.report(tmp_path)
        log = to_sarif(report, default_rules())
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        assert {r.name for r in default_rules()} <= set(rule_ids)
        assert run["results"], "expected findings"
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in ("error", "warning", "note")
            location = result["locations"][0]["physicalLocation"]
            uri = location["artifactLocation"]["uri"]
            assert uri.endswith("busy.py")
            assert location["region"]["startLine"] >= 1
            assert "partialFingerprints" in result
            # ruleIndex must agree with the rules array.
            assert (
                driver["rules"][result["ruleIndex"]]["id"]
                == result["ruleId"]
            )

    def test_suppressed_findings_carry_suppressions(self, tmp_path):
        report = self.report(tmp_path)
        assert report.suppressed, "fixture should suppress determinism"
        log = to_sarif(report, default_rules())
        suppressed_results = [
            result for result in log["runs"][0]["results"]
            if result.get("suppressions")
        ]
        assert suppressed_results
        kinds = {
            supp["kind"]
            for result in suppressed_results
            for supp in result["suppressions"]
        }
        assert kinds == {"inSource"}

    def test_sarif_json_serializes(self, tmp_path):
        text = to_sarif_json(self.report(tmp_path), default_rules())
        parsed = json.loads(text)
        assert parsed["version"] == "2.1.0"

    def test_clean_report_has_no_results(self, tmp_path):
        clean = tmp_path / "repro" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        report = Analyzer().analyze_paths([str(tmp_path)])
        log = to_sarif(report, default_rules())
        assert log["runs"][0]["results"] == []
        invocation = log["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is True


# ---------------------------------------------------------------------------
# CLI: exit codes, the composing sinks, the four-flag surface
# ---------------------------------------------------------------------------

#: Every option gupcheck has dropped; argparse must reject each
#: (exit 2).
REMOVED_FLAGS = (
    ["--stats"], ["--changed-only"], ["--changed-only", "HEAD"],
    ["--cache", "c.json"], ["--no-cache"], ["--baseline", "b.json"],
    ["--no-baseline"], ["--write-baseline"],
    ["--growth"], ["--growth", "g.json"],
    ["--effects"], ["--effects", "e.json"],
)


class TestCli:
    def run_cli(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis"] + args,
            capture_output=True, text=True, env=env, cwd=str(cwd),
        )

    def tree(self, tmp_path):
        """A two-module tree with one suppressed finding — something
        for every sink."""
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (tmp_path / "repro" / "workloads").mkdir()
        (core / "hub.py").write_text(dedent(
            """
            class WaveHub:
                def __init__(self):
                    self._queue = []

                def size(self):
                    return len(self._queue)
            """
        ), encoding="utf-8")
        (tmp_path / "repro" / "workloads" / "clock.py").write_text(
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  "
            "# gupcheck: ignore[determinism] -- fixture\n",
            encoding="utf-8",
        )
        return str(tmp_path / "repro")

    def test_exit_1_on_violations(self, tmp_path):
        bad = tmp_path / "repro" / "simnet" / "busy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\nNOW = time.time()\n", encoding="utf-8"
        )
        proc = self.run_cli([str(tmp_path)], REPO_ROOT)
        assert proc.returncode == 1, proc.stdout + proc.stderr

    def test_exit_2_on_parse_error(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def (:\n", encoding="utf-8")
        proc = self.run_cli([str(tmp_path)], REPO_ROOT)
        assert proc.returncode == 2, proc.stdout + proc.stderr

    def test_exit_0_clean(self, tmp_path):
        ok = tmp_path / "repro" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("VALUE = 1\n", encoding="utf-8")
        proc = self.run_cli([str(tmp_path)], REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""

    def test_sarif_file_output(self, tmp_path):
        ok = tmp_path / "repro" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("VALUE = 1\n", encoding="utf-8")
        out = tmp_path / "out.sarif"
        proc = self.run_cli(
            ["--sarif", str(out), str(tmp_path / "repro")],
            REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        parsed = json.loads(out.read_text(encoding="utf-8"))
        assert parsed["version"] == "2.1.0"

    def test_both_sinks_compose_in_one_invocation(
        self, tmp_path, capsys
    ):
        root = self.tree(tmp_path)
        alone = tmp_path / "alone.sarif"
        assert main([root, "--sarif", str(alone)]) == 0
        capsys.readouterr()
        assert main([root, "--json"]) == 0
        json_alone = capsys.readouterr().out

        together = tmp_path / "together.sarif"
        assert main([root, "--json", "--sarif", str(together)]) == 0
        captured = capsys.readouterr()
        assert captured.out == json_alone
        assert json.loads(captured.out)["suppressed"]
        assert together.read_bytes() == alone.read_bytes()
        assert captured.err == ""

    def test_sinks_do_not_change_the_exit_code(self, tmp_path, capsys):
        root = self.tree(tmp_path)
        assert main([root, "--sarif", str(tmp_path / "s")]) == 0
        hub = tmp_path / "repro" / "core" / "hub.py"
        hub.write_text(
            "import time\n" + hub.read_text(encoding="utf-8")
            + "\n    def stamp(self):\n"
              "        return time.time()\n",
            encoding="utf-8",
        )
        # A wall-clock read in the core now — exit 1 with or without
        # the sinks, because it is the run's determinism finding.
        assert main([root]) == 1
        assert main([root, "--json", "--sarif", str(tmp_path / "s")]) == 1
        assert main([root, "--rules", "layering",
                     "--sarif", str(tmp_path / "s")]) == 0
        capsys.readouterr()

    def test_two_sinks_cannot_share_stdout(self, tmp_path):
        root = self.tree(tmp_path)
        proc = self.run_cli([root, "--json", "--sarif"], REPO_ROOT)
        assert proc.returncode == 2
        assert "--json and --sarif" in proc.stderr
        assert proc.stdout == ""

    def test_unwritable_sink_is_exit_2_and_the_rest_still_land(
        self, tmp_path, capsys
    ):
        root = self.tree(tmp_path)
        assert main([
            root, "--json",
            "--sarif", str(tmp_path / "no" / "such" / "s"),
        ]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is True
        assert "could not write SARIF log" in captured.err

    def test_overlapping_paths_scan_each_file_once(self, tmp_path):
        root = self.tree(tmp_path)
        once = Analyzer().analyze_paths([root])
        twice = Analyzer().analyze_paths([
            root, os.path.join(root, "core"),
            os.path.join(root, "core", "hub.py"),
            os.path.join(root, ".", "workloads", "clock.py"),
        ])
        assert once.files_scanned == twice.files_scanned == 2
        assert twice.to_dict() == once.to_dict()

    def test_removed_flags_exit_2_through_argparse(self, tmp_path):
        root = self.tree(tmp_path)
        for flags in REMOVED_FLAGS:
            proc = self.run_cli(flags + [root], REPO_ROOT)
            assert proc.returncode == 2, flags
            assert "usage:" in proc.stderr, flags

    def test_one_invocation_parses_each_file_once(
        self, tmp_path, monkeypatch
    ):
        root = self.tree(tmp_path)
        parsed = []
        from_source = ModuleInfo.from_source.__func__

        def counting_from_source(cls, source, relpath, path=None):
            parsed.append(relpath)
            return from_source(cls, source, relpath, path)

        monkeypatch.setattr(
            ModuleInfo, "from_source",
            classmethod(counting_from_source),
        )
        assert main([root, "--json", "--sarif", str(tmp_path / "s")]) == 0
        assert sorted(parsed) == [
            "repro/core/hub.py", "repro/workloads/clock.py",
        ]
        # ... and that one parse fed the file sink.
        assert (tmp_path / "s").exists()

    def test_surface_is_four_flags_and_one_parameter(self):
        options = sorted(
            option
            for action in _build_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        assert options == [
            "--json", "--list-rules", "--rules", "--sarif",
        ]
        assert list(
            inspect.signature(Analyzer.analyze_paths).parameters
        ) == ["self", "paths"]


# ---------------------------------------------------------------------------
# the E17 kill matrix cannot silently rot
# ---------------------------------------------------------------------------

class TestKillMatrix:
    def test_every_mutant_still_applies_exactly_once(self):
        # String search only — no analyzer run in tier-1. A mutant
        # whose `old` drifted out of the shipped file proves nothing.
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_e17_killmatrix",
            os.path.join(
                REPO_ROOT, "benchmarks", "bench_e17_killmatrix.py"
            ),
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        names = [row["name"] for row in bench.MUTANTS]
        assert len(names) == len(set(names)) >= 42
        for row in bench.MUTANTS:
            assert row["old"] != row["new"]
            bench.mutated_source(row)  # SystemExit unless exactly once
