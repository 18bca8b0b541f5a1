"""gupcheck v2 (whole-program) tests: project IR + call graph
construction (adapter dispatch, SCC cycles), interprocedural taint
summaries (sanitizer kill, guard idiom, transitive egress), the
simulator soundness rules (sim-race, iter-order, handler-reentrancy),
SARIF output shape, and the one-run CLI (composing sinks, exit codes,
the six-flag surface)."""

import inspect
import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import (
    Analyzer, ModuleInfo, check_source, default_rules,
)
from repro.analysis.__main__ import _build_parser, main
from repro.analysis.ir.callgraph import CallGraph
from repro.analysis.ir.project import (
    Project,
    module_name_for,
    tarjan_sccs,
)
from repro.analysis.rules import (
    HandlerReentrancyRule,
    IterOrderRule,
    ShieldEgressRule,
    SimRaceRule,
)
from repro.analysis.sarif import to_sarif, to_sarif_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


# ---------------------------------------------------------------------------
# shared fixture project: an adapter family + services over it
# ---------------------------------------------------------------------------

ADAPTER_BASE = dedent(
    """
    class GupAdapter:
        def get(self, path, context=None):
            raise NotImplementedError

        def export_user(self, user):
            raise NotImplementedError
    """
)

ADAPTER_HLR = dedent(
    """
    from repro.adapters.base import GupAdapter


    class HlrAdapter(GupAdapter):
        def get(self, path, context=None):
            return {"msisdn": path}
    """
)

SERVICES = dedent(
    """
    from repro.adapters.base import GupAdapter
    from repro.adapters.hlr import HlrAdapter


    class Pep:
        def enforce(self, path, context):
            return True


    def fetch_raw(adapter: GupAdapter, path):
        return adapter.get(path)


    class LeakyService:
        def __init__(self):
            self.adapter = HlrAdapter()

        def lookup(self, path, context):
            data = self.adapter.get(path)
            return data


    class SafeService:
        def __init__(self):
            self.adapter = HlrAdapter()
            self.pep = Pep()

        def lookup(self, path, context):
            data = self.adapter.get(path)
            self.pep.enforce(path, context)
            return data


    class ChainedService:
        def __init__(self):
            self.adapter = HlrAdapter()

        def lookup(self, path, context):
            return fetch_raw(self.adapter, path)
    """
)


def project():
    return Project.from_sources({
        "repro/adapters/base.py": ADAPTER_BASE,
        "repro/adapters/hlr.py": ADAPTER_HLR,
        "repro/services/mix.py": SERVICES,
    })


# ---------------------------------------------------------------------------
# project IR: module naming, import SCCs, deep hashes
# ---------------------------------------------------------------------------

class TestProjectIR:
    def test_module_name_for(self):
        assert module_name_for("repro/core/server.py") == (
            "repro.core.server"
        )
        assert module_name_for("repro/core/__init__.py") == "repro.core"

    def test_tarjan_orders_dependencies_first(self):
        graph = {"a": ["b"], "b": ["c"], "c": []}
        sccs = tarjan_sccs(sorted(graph), lambda n: graph[n])
        assert sccs == [("c",), ("b",), ("a",)]

    def test_import_cycle_lands_in_one_scc(self):
        proj = Project.from_sources({
            "repro/a.py": "import repro.b\nX = 1\n",
            "repro/b.py": "import repro.a\nY = 2\n",
            "repro/c.py": "Z = 3\n",
        })
        cycles = [scc for scc in proj.import_sccs if len(scc) > 1]
        assert cycles == [("repro.a", "repro.b")]

    def test_class_index_subclasses_and_dispatch(self):
        proj = project()
        subs = proj.subclasses_of("repro.adapters.base.GupAdapter")
        assert "repro.adapters.hlr.HlrAdapter" in subs
        impls = proj.implementations_of(
            "repro.adapters.base.GupAdapter", "get"
        )
        names = {fn.qualname for fn in impls}
        assert names == {
            "repro.adapters.base.GupAdapter.get",
            "repro.adapters.hlr.HlrAdapter.get",
        }


# ---------------------------------------------------------------------------
# call graph: adapter dispatch, constructor edges, SCC cycles
# ---------------------------------------------------------------------------

class TestCallGraph:
    def test_interface_dispatch_reaches_overrides(self):
        proj = project()
        graph = CallGraph(proj)
        callees = graph.callees("repro.services.mix.fetch_raw")
        # adapter.get on a GupAdapter-annotated param fans out to the
        # base *and* every project override.
        assert "repro.adapters.base.GupAdapter.get" in callees
        assert "repro.adapters.hlr.HlrAdapter.get" in callees

    def test_self_attribute_type_inference(self):
        proj = project()
        graph = CallGraph(proj)
        callees = graph.callees("repro.services.mix.LeakyService.lookup")
        # self.adapter was assigned HlrAdapter() in __init__.
        assert "repro.adapters.hlr.HlrAdapter.get" in callees

    def test_constructor_edge(self):
        proj = Project.from_sources({
            "repro/m.py": dedent(
                """
                class Widget:
                    def __init__(self):
                        self.size = 1


                def build():
                    return Widget()
                """
            ),
        })
        graph = CallGraph(proj)
        assert "repro.m.Widget.__init__" in graph.callees("repro.m.build")

    def test_mutual_recursion_in_one_scc(self):
        proj = Project.from_sources({
            "repro/m.py": dedent(
                """
                def even(n):
                    return n == 0 or odd(n - 1)


                def odd(n):
                    return n != 0 and even(n - 1)
                """
            ),
        })
        graph = CallGraph(proj)
        cycles = [scc for scc in graph.sccs if len(scc) > 1]
        assert ("repro.m.even", "repro.m.odd") in cycles


# ---------------------------------------------------------------------------
# interprocedural summaries
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_adapter_read_taints_return(self):
        engine = project().taint
        summary = engine.summary_of(
            "repro.services.mix.LeakyService.lookup"
        )
        assert summary is not None
        assert summary.returns_source
        assert summary.tainted_return_lines

    def test_guard_call_kills_taint(self):
        proj = project()
        engine = proj.taint
        summary = engine.summary_of(
            "repro.services.mix.SafeService.lookup"
        )
        assert summary is not None
        assert summary.guards
        assert not summary.returns_source

    def test_transitive_egress_through_helper(self):
        proj = project()
        engine = proj.taint
        helper = engine.summary_of("repro.services.mix.fetch_raw")
        assert helper is not None and helper.returns_source
        chained = engine.summary_of(
            "repro.services.mix.ChainedService.lookup"
        )
        assert chained is not None
        assert chained.returns_source

    def test_param_flow_identity(self):
        proj = Project.from_sources({
            "repro/m.py": (
                "def ident(value):\n"
                "    return value\n"
            ),
        })
        engine = proj.taint
        summary = engine.summary_of("repro.m.ident")
        assert summary is not None
        assert summary.param_flows == frozenset({0})
        assert not summary.returns_source


# ---------------------------------------------------------------------------
# the interprocedural shield-egress rule, end to end
# ---------------------------------------------------------------------------

class TestShieldEgressInterproc:
    def analyze(self, tmp_path, service_source):
        (tmp_path / "repro" / "adapters").mkdir(parents=True)
        (tmp_path / "repro" / "services").mkdir(parents=True)
        (tmp_path / "repro" / "adapters" / "base.py").write_text(
            ADAPTER_BASE, encoding="utf-8"
        )
        (tmp_path / "repro" / "adapters" / "hlr.py").write_text(
            ADAPTER_HLR, encoding="utf-8"
        )
        (tmp_path / "repro" / "services" / "svc.py").write_text(
            service_source, encoding="utf-8"
        )
        return Analyzer().analyze_paths([str(tmp_path)])

    def test_seeded_leak_is_flagged(self, tmp_path):
        report = self.analyze(tmp_path, SERVICES)
        hits = [
            v for v in report.violations
            if v.rule == ShieldEgressRule.name
        ]
        assert hits, [str(v) for v in report.violations]
        assert all(v.path == "repro/services/svc.py" for v in hits)
        # The leak is LeakyService.lookup's and ChainedService.lookup's
        # `return` lines; SafeService's guarded return stays quiet.
        flagged_lines = {v.line for v in hits}
        leak_line = SERVICES.splitlines().index(
            "        return data"
        ) + 1
        assert leak_line in flagged_lines
        safe_return = [
            index + 1
            for index, line in enumerate(SERVICES.splitlines())
            if line.strip() == "return data"
        ][1]  # SafeService's return, after the enforce guard
        assert safe_return not in flagged_lines

    def test_shielded_project_is_clean(self, tmp_path):
        safe_only = dedent(
            """
            from repro.adapters.hlr import HlrAdapter


            class Pep:
                def enforce(self, path, context):
                    return True


            class SafeService:
                def __init__(self):
                    self.adapter = HlrAdapter()
                    self.pep = Pep()

                def lookup(self, path, context):
                    data = self.adapter.get(path)
                    self.pep.enforce(path, context)
                    return data
            """
        )
        report = self.analyze(tmp_path, safe_only)
        assert [
            v for v in report.violations
            if v.rule == ShieldEgressRule.name
        ] == []

    def test_send_sink_is_flagged_without_context(self, tmp_path):
        sender = dedent(
            """
            from repro.adapters.hlr import HlrAdapter


            class Pusher:
                def __init__(self, transport):
                    self.adapter = HlrAdapter()
                    self.transport = transport

                def push(self, path):
                    data = self.adapter.get(path)
                    self.transport.send(data)
            """
        )
        report = self.analyze(tmp_path, sender)
        hits = [
            v for v in report.violations
            if v.rule == ShieldEgressRule.name
        ]
        assert len(hits) == 1
        assert "send" in hits[0].message

    # -- the engine repairs the one-rule fold needed -------------------

    CHAIN = dedent(
        """
        class ComponentCache:
            def get(self, path, now, scope=""):
                return self.entries.get((path, scope))


        class Coverage:
            def resolve(self, path):
                return [path]


        class Server:
            def __init__(self, cache: ComponentCache,
                         coverage: Coverage):
                self.cache = cache
                self.coverage = coverage

            def resolve(self, path, context, now):
                self.pep.enforce(path, context)
                return self.coverage.resolve(path)


        class Host:
            def __init__(self, server: Server):
                self.server = server


        class Outcome:
            def __init__(self, value, hit=False):
                self.value = value
                self.hit = hit


        class Engine:
            def __init__(self, host: Host):
                self.host = host

            def shielded(self, path, context, now):
                host = self.host
                referral = host.server.resolve(path, context, now)
                fragment = yield StoreGet(referral[0], path)
                return Outcome(fragment)

            def raw_cache_hit(self, path, context, now):
                host = self.host
                cached = host.server.cache.get(path, now, scope="s")
                return Outcome(cached, hit=True)

            def off_the_shield(self, path, context, now):
                referral = self.host.server.coverage.resolve(path)
                fragment = yield StoreGet(referral[0], path)
                return Outcome(fragment)
        """
    )

    def test_shield_is_earned_through_attribute_chains_not_names(self):
        # `host = self.host; host.server.resolve(...)` types through
        # to Server.resolve, whose body reaches enforce: guarded.
        # Coverage.resolve shares the name and is no shield; a project
        # class constructor carries its argument's taint (the PR 1
        # bypass inside a program returns `Outcome(cached, hit=True)`).
        found = check_source(
            ShieldEgressRule(), self.CHAIN, "repro/sansio/engine.py"
        )
        flagged = sorted(v.message.split()[0] for v in found)
        assert flagged == [
            "repro.sansio.engine.Engine.off_the_shield",
            "repro.sansio.engine.Engine.raw_cache_hit",
        ]

    def test_module_level_memo_is_not_a_cache_source(self):
        # A memo dict named like a cache is not a ComponentCache: the
        # receiver-marker fallback is for injected objects only.
        found = check_source(
            ShieldEgressRule(),
            dedent(
                """
                _PARSE_CACHE = {}


                def parse(text, context):
                    cached = _PARSE_CACHE.get(text)
                    if cached is None:
                        cached = _PARSE_CACHE[text] = text.split("/")
                    return cached


                def probe(cache, text, context):
                    return cache.get(text)
                """
            ),
            "repro/pxml/path.py",
        )
        assert [v.message.split()[0] for v in found] == [
            "repro.pxml.path.probe"
        ]


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


class TestHandlerReentrancy:
    def analyze(self, tmp_path, source):
        target = tmp_path / "repro" / "simnet" / "pump.py"
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        report = Analyzer().analyze_paths([str(tmp_path)])
        return [
            v for v in report.violations
            if v.rule == HandlerReentrancyRule.name
        ]

    def test_callback_reentering_run_flagged(self, tmp_path):
        hits = self.analyze(tmp_path, dedent(
            """
            class Pump:
                def __init__(self, sim):
                    self.sim = sim

                def drain(self):
                    self.sim.run()

                def arm(self):
                    self.sim.schedule_at(1.0, self.drain)
            """
        ))
        assert len(hits) == 1
        assert "drain" in hits[0].message

    def test_transitive_reentry_flagged(self, tmp_path):
        hits = self.analyze(tmp_path, dedent(
            """
            class Pump:
                def __init__(self, sim):
                    self.sim = sim

                def deep(self):
                    self.sim.step()

                def middle(self):
                    self.deep()

                def arm(self):
                    self.sim.schedule_at(1.0, self.middle)
            """
        ))
        assert len(hits) == 1

    def test_benign_callback_clean(self, tmp_path):
        hits = self.analyze(tmp_path, dedent(
            """
            class Pump:
                def __init__(self, sim):
                    self.sim = sim
                    self.ticks = 0

                def tick(self):
                    self.ticks += 1

                def arm(self):
                    self.sim.schedule_at(1.0, self.tick)
            """
        ))
        assert hits == []


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
# CLI: exit codes, the composing sinks, the six-flag surface
# ---------------------------------------------------------------------------

#: Every option PR 19 removed; argparse must reject each (exit 2).
REMOVED_FLAGS = (
    ["--stats"], ["--changed-only"], ["--changed-only", "HEAD"],
    ["--cache", "c.json"], ["--no-cache"], ["--baseline", "b.json"],
    ["--no-baseline"], ["--write-baseline"],
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
        """A two-module tree with one suppressed finding, a tracked
        container and a sans-io function — something for every sink."""
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

    def test_all_four_sinks_compose_in_one_invocation(
        self, tmp_path, capsys
    ):
        root = self.tree(tmp_path)
        alone = {}
        for flag in ("--sarif", "--effects", "--growth"):
            alone[flag] = tmp_path / ("alone" + flag.strip("-"))
            assert main([root, flag, str(alone[flag])]) == 0
        capsys.readouterr()
        assert main([root, "--json"]) == 0
        json_alone = capsys.readouterr().out

        together = {
            flag: tmp_path / ("together" + flag.strip("-"))
            for flag in alone
        }
        argv = [root, "--json"]
        for flag, path in together.items():
            argv += [flag, str(path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == json_alone
        assert json.loads(captured.out)["suppressed"]
        for flag in alone:
            assert together[flag].read_bytes() \
                == alone[flag].read_bytes(), flag
        # The artefact notes moved off the JSON stream.
        assert "effects map" in captured.err
        assert "growth inventory" in captured.err

    def test_sinks_do_not_change_the_exit_code(self, tmp_path):
        root = self.tree(tmp_path)
        assert main([root, "--effects", str(tmp_path / "e"),
                     "--growth", str(tmp_path / "g")]) == 0
        hub = tmp_path / "repro" / "core" / "hub.py"
        hub.write_text(
            hub.read_text(encoding="utf-8")
            + "\n    def push(self, item):\n"
              "        self._queue.append(item)\n",
            encoding="utf-8",
        )
        # Unbounded now — and exit 1 with or without the sink, because
        # the verdict is the run's container-growth finding.
        assert main([root]) == 1
        assert main([root, "--growth", str(tmp_path / "g")]) == 1
        assert main([root, "--rules", "determinism",
                     "--growth", str(tmp_path / "g")]) == 0
        assert json.loads(
            (tmp_path / "g").read_text(encoding="utf-8")
        )["clean"] is False

    def test_two_sinks_cannot_share_stdout(self, tmp_path):
        root = self.tree(tmp_path)
        proc = self.run_cli(
            [root, "--json", "--growth", "-"], REPO_ROOT
        )
        assert proc.returncode == 2
        assert "--json and --growth" in proc.stderr
        assert proc.stdout == ""

    def test_unwritable_sink_is_exit_2_and_the_rest_still_land(
        self, tmp_path
    ):
        root = self.tree(tmp_path)
        out = tmp_path / "g.json"
        assert main([
            root, "--effects", str(tmp_path / "no" / "such" / "e"),
            "--growth", str(out),
        ]) == 2
        assert json.loads(out.read_text(encoding="utf-8"))["clean"]

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
        parsed, projects = [], []
        from_source = ModuleInfo.from_source.__func__
        project_init = Project.__init__

        def counting_from_source(cls, source, relpath, path=None):
            parsed.append(relpath)
            return from_source(cls, source, relpath, path)

        def counting_init(self, infos):
            projects.append(len(infos))
            project_init(self, infos)

        monkeypatch.setattr(
            ModuleInfo, "from_source",
            classmethod(counting_from_source),
        )
        monkeypatch.setattr(Project, "__init__", counting_init)
        assert main([
            root, "--json",
            "--sarif", str(tmp_path / "s"),
            "--effects", str(tmp_path / "e"),
            "--growth", str(tmp_path / "g"),
        ]) == 0
        assert sorted(parsed) == [
            "repro/core/hub.py", "repro/workloads/clock.py",
        ]
        assert projects == [2]
        # ... and that one parse fed all three file sinks.
        assert all((tmp_path / name).exists() for name in "seg")

    def test_surface_is_six_flags_and_one_parameter(self):
        options = sorted(
            option
            for action in _build_parser()._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        assert options == [
            "--effects", "--growth", "--json", "--list-rules",
            "--rules", "--sarif",
        ]
        assert list(
            inspect.signature(Analyzer.analyze_paths).parameters
        ) == ["self", "paths"]
