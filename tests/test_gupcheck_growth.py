"""The interprocedural resource-bound analysis (gupcheck v4).

Covers the verdict lattice fixture by fixture (bounded / evicting /
unbounded / declared), the long-lived-root discovery and reachability
closure, the helper-mediated interprocedural attribution, the
declared-bound audit, the ``--growth`` CLI artifact and exit codes,
the SARIF round-trip for a growth finding, and — on the real tree —
the verdicts the issue pins (the ``parse_path`` memo is *evicting*,
the tree is clean).
"""

import json
import os
import subprocess
import sys
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Analyzer, default_rules
from repro.analysis.growth_report import (
    GROWTH_FILENAME, SCHEMA, growth_payload,
)
from repro.analysis.interproc.growth import (
    BOUNDED_RE,
    VERDICT_BOUNDED,
    VERDICT_DECLARED,
    VERDICT_EVICTING,
    VERDICT_UNBOUNDED,
    VERDICTS,
)
from repro.analysis.ir.project import Project
from repro.analysis.rules import ContainerGrowthRule
from repro.analysis.sarif import to_sarif

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)
SRC_ROOT = os.path.join(REPO_ROOT, "src")

FIXTURE = "repro/core/fixture.py"


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


def growth_of(sources):
    return Project.from_sources(sources).growth


def field_of(sources, owner, name):
    growth = growth_of(sources)
    return growth.owners[owner].fields[name]


def hub_fixture(body):
    """A class the root-marker heuristic always picks up."""
    return {FIXTURE: dedent(
        """
        class WaveHub:
        %s
        """
    ) % textwrap.indent(dedent(body), "    ")}


HUB = "repro.core.fixture.WaveHub"


# ---------------------------------------------------------------------------
# the verdict lattice, fixture by fixture
# ---------------------------------------------------------------------------

class TestVerdicts:
    def test_no_grow_sites_is_bounded(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._slots = []

            def read(self):
                return list(self._slots)
            """
        ), HUB, "_slots")
        assert field.verdict == VERDICT_BOUNDED
        assert field.reason == "no-grow-sites"

    def test_deque_maxlen_is_bounded_despite_growth(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                from collections import deque
                self._recent = deque(maxlen=16)

            def push(self, item):
                self._recent.append(item)
            """
        ), HUB, "_recent")
        assert field.verdict == VERDICT_BOUNDED
        assert field.reason == "deque-maxlen"

    def test_len_guarded_grow_is_bounded(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                if len(self._queue) < 100:
                    self._queue.append(item)
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_BOUNDED
        assert field.reason == "cap-guard"
        assert all(s.guarded for s in field.grow_sites)

    def test_shrink_in_the_grow_function_is_evicting(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)
                if len(self._queue) > 100:
                    del self._queue[:50]
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_EVICTING
        assert field.reason == "shrink-on-grow-path"

    def test_shrink_reachable_through_a_common_caller_counts(self):
        # push grows, sweep shrinks; cycle() reaches both, so the
        # grow path *can* trigger the eviction.
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)

            def sweep(self):
                self._queue.clear()

            def cycle(self, item):
                self.push(item)
                self.sweep()
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_EVICTING

    def test_test_only_clear_does_not_count(self):
        # The SpanRecorder trap: a clear() nothing on the grow path
        # ever calls is not an eviction.
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)

            def clear(self):
                self._queue.clear()
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_UNBOUNDED
        assert field.reason == "grow-without-eviction"
        assert field.shrink_sites  # the clear() was seen, and rejected

    def test_filter_rebind_sweep_is_a_shrink(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)
                self._queue = [q for q in self._queue if q.live]
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_EVICTING
        assert any(
            s.op == "filter-rebind" for s in field.shrink_sites
        )

    def test_setitem_on_dict_grows(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._index = {}

            def put(self, key, value):
                self._index[key] = value
            """
        ), HUB, "_index")
        assert field.verdict == VERDICT_UNBOUNDED
        assert field.kind == "dict"

    def test_grow_call_inside_a_store_target_grows(self):
        # The call sits in the target of a subscript assignment, not
        # in its value: it is still a grow site.
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._by_user = {}

            def put(self, user, key):
                self._by_user.setdefault(user, {})[key] = None
            """
        ), HUB, "_by_user")
        assert field.verdict == VERDICT_UNBOUNDED
        assert [s.op for s in field.grow_sites] == ["setdefault"]

    def test_module_level_clear_when_full_memo_is_evicting(self):
        # The parse_path shape: unguarded grow + guarded clear in the
        # same function.
        sources = {"repro/core/memo.py": dedent(
            """
            MEMO = {}

            def lookup(key):
                cached = MEMO.get(key)
                if cached is not None:
                    return cached
                value = key.upper()
                if len(MEMO) >= 4096:
                    MEMO.clear()
                MEMO[key] = value
                return value
            """
        )}
        field = field_of(sources, "repro.core.memo", "MEMO")
        assert field.verdict == VERDICT_EVICTING

    def test_module_level_growth_without_shrink_is_unbounded(self):
        sources = {"repro/core/registry.py": dedent(
            """
            SEEN = []

            def note(item):
                SEEN.append(item)
            """
        )}
        field = field_of(sources, "repro.core.registry", "SEEN")
        assert field.verdict == VERDICT_UNBOUNDED

    def test_reachability_closure_pulls_in_held_classes(self):
        # Leaf is long-lived *because* the hub holds one.
        sources = {FIXTURE: dedent(
            """
            class Leaf:
                def __init__(self):
                    self._items = []

                def push(self, item):
                    self._items.append(item)


            class WaveHub:
                def __init__(self):
                    self._leaf = Leaf()
            """
        )}
        growth = growth_of(sources)
        owner = growth.owners["repro.core.fixture.Leaf"]
        assert owner.root_via.startswith("reachable:")
        field = owner.fields["_items"]
        assert field.verdict == VERDICT_UNBOUNDED

    def test_annotation_element_types_drive_the_closure(self):
        # Dict[str, Leaf] reaches Leaf even with no constructor call.
        sources = {FIXTURE: dedent(
            """
            from typing import Dict


            class Leaf:
                def __init__(self):
                    self._items = []

                def push(self, item):
                    self._items.append(item)


            class WaveHub:
                def __init__(self):
                    self._leaves: Dict[str, Leaf] = {}
            """
        )}
        growth = growth_of(sources)
        assert "repro.core.fixture.Leaf" in growth.owners

    def test_closure_follows_package_reexports(self):
        # `from repro.leafpkg import Leaf` names the package's
        # re-export, not the defining module; the closure chases it.
        sources = {
            "repro/leafpkg/impl.py": dedent(
                """
                class Leaf:
                    def __init__(self):
                        self._items = []

                    def push(self, item):
                        self._items.append(item)
                """
            ),
            "repro/leafpkg/__init__.py": dedent(
                """
                from repro.leafpkg.impl import Leaf
                """
            ),
            FIXTURE: dedent(
                """
                from repro.leafpkg import Leaf


                class WaveHub:
                    def __init__(self):
                        self._leaf = Leaf()
                """
            ),
        }
        growth = growth_of(sources)
        owner = growth.owners["repro.leafpkg.impl.Leaf"]
        assert owner.root_via == "reachable: %s" % HUB
        assert owner.fields["_items"].verdict == VERDICT_UNBOUNDED

    def test_short_lived_classes_are_not_owners(self):
        sources = {FIXTURE: dedent(
            """
            class RequestScratch:
                def __init__(self):
                    self._parts = []

                def push(self, part):
                    self._parts.append(part)
            """
        )}
        growth = growth_of(sources)
        assert "repro.core.fixture.RequestScratch" not in growth.owners

    def test_analysis_package_is_exempt(self):
        sources = {"repro/analysis/scratch.py": dedent(
            """
            CACHE = {}

            def put(key, value):
                CACHE[key] = value
            """
        )}
        growth = growth_of(sources)
        assert growth.owners == {}


# ---------------------------------------------------------------------------
# declared bounds
# ---------------------------------------------------------------------------

class TestDeclaredBounds:
    def test_declaration_above_the_defining_line_attaches(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[shard-vocab] -- one entry per shard
                self._logs = {}

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ), HUB, "_logs")
        assert field.verdict == VERDICT_DECLARED
        assert field.reason == "declared[shard-vocab]"
        assert field.declaration.justification == (
            "one entry per shard"
        )

    def test_trailing_declaration_attaches(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._logs = {}  # gupcheck: bounded[shard-vocab] -- fixed at wiring

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ), HUB, "_logs")
        assert field.verdict == VERDICT_DECLARED

    def test_regex_accepts_colon_separator(self):
        match = BOUNDED_RE.search(
            "# gupcheck: bounded[topology]: fixed per run"
        )
        assert match.group("reason") == "topology"
        assert match.group("why") == "fixed per run"

    def test_unattached_declaration_is_audited(self):
        project = Project.from_sources(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[nothing] -- floats in space
                self._scalar = 0
            """
        ))
        found = ContainerGrowthRule().check_project(project)
        assert any(
            "attaches to no tracked container" in v.message
            for v in found
        )

    def test_empty_reason_is_audited(self):
        project = Project.from_sources(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[] -- trust me
                self._logs = {}

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ))
        found = ContainerGrowthRule().check_project(project)
        assert any("names no bound" in v.message for v in found)

    def test_missing_justification_is_audited(self):
        project = Project.from_sources(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[shard-vocab]
                self._logs = {}

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ))
        found = ContainerGrowthRule().check_project(project)
        assert any(
            "requires a justification" in v.message for v in found
        )

    def test_justified_declaration_produces_no_findings(self):
        project = Project.from_sources(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[shard-vocab] -- one log per shard
                self._logs = {}

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ))
        assert ContainerGrowthRule().check_project(project) == []


# ---------------------------------------------------------------------------
# interprocedural attribution
# ---------------------------------------------------------------------------

class TestInterprocAttribution:
    def test_helper_in_another_module_attributes_the_grow(self):
        sources = {
            "repro/core/util.py": dedent(
                """
                def stash(items, value):
                    items.append(value)
                """
            ),
            FIXTURE: dedent(
                """
                from repro.core.util import stash


                class WaveHub:
                    def __init__(self):
                        self._backlog = []

                    def push(self, value):
                        stash(self._backlog, value)
                """
            ),
        }
        field = field_of(sources, HUB, "_backlog")
        assert field.verdict == VERDICT_UNBOUNDED
        (site,) = field.grow_sites
        assert site.op == "helper"
        assert site.via == "repro.core.util.stash"
        assert site.fn == "repro.core.fixture.WaveHub.push"

    def test_bound_method_helper_offsets_self(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def _push(self, items, value):
                items.append(value)

            def push(self, value):
                self._push(self._queue, value)
            """
        ), HUB, "_queue")
        assert field.verdict == VERDICT_UNBOUNDED
        assert any(s.op == "helper" for s in field.grow_sites)

    def test_transitive_helper_chain_propagates(self):
        sources = {
            "repro/core/util.py": dedent(
                """
                def raw_append(items, value):
                    items.append(value)


                def stash(items, value):
                    raw_append(items, value)
                """
            ),
            FIXTURE: dedent(
                """
                from repro.core.util import stash


                class WaveHub:
                    def __init__(self):
                        self._backlog = []

                    def push(self, value):
                        stash(self._backlog, value)
                """
            ),
        }
        field = field_of(sources, HUB, "_backlog")
        assert field.verdict == VERDICT_UNBOUNDED

    def test_heap_intrinsics_with_reachable_drain_is_evicting(self):
        field = field_of(hub_fixture(
            """
            def __init__(self):
                self._heap = []

            def push(self, item):
                import heapq
                heapq.heappush(self._heap, item)

            def pop_all(self):
                import heapq
                while self._heap:
                    heapq.heappop(self._heap)

            def cycle(self, item):
                self.push(item)
                self.pop_all()
            """
        ), HUB, "_heap")
        assert field.verdict == VERDICT_EVICTING
        assert any(s.op == "heappush" for s in field.grow_sites)
        assert any(s.op == "heappop" for s in field.shrink_sites)

    def test_helper_shrink_counts_as_eviction(self):
        sources = {
            "repro/core/util.py": dedent(
                """
                def drain(items):
                    items.clear()
                """
            ),
            FIXTURE: dedent(
                """
                from repro.core.util import drain


                class WaveHub:
                    def __init__(self):
                        self._backlog = []

                    def push(self, value):
                        self._backlog.append(value)
                        if len(self._backlog) > 64:
                            drain(self._backlog)
                """
            ),
        }
        field = field_of(sources, HUB, "_backlog")
        assert field.verdict == VERDICT_EVICTING
        assert any(
            s.op == "helper" and s.via == "repro.core.util.drain"
            for s in field.shrink_sites
        )


# ---------------------------------------------------------------------------
# the monotonicity property
# ---------------------------------------------------------------------------

_RANK = {
    VERDICT_BOUNDED: 0,
    VERDICT_DECLARED: 0,
    VERDICT_EVICTING: 1,
    VERDICT_UNBOUNDED: 2,
}

_EVICTIONS = (
    "self._queue.pop()",
    "self._queue.clear()",
    "del self._queue[:1]",
    "self._queue = [q for q in self._queue if q]",
)


def _hub_source(n_methods, eviction=None, target=0, reachable=True):
    lines = [
        "class WaveHub:",
        "    def __init__(self):",
        "        self._queue = []",
        "",
    ]
    for i in range(n_methods):
        lines += [
            "    def add%d(self, value):" % i,
            "        self._queue.append(value)",
        ]
        if eviction is not None and reachable and i == target:
            lines.append("        " + eviction)
        lines.append("")
    if eviction is not None and not reachable:
        lines += [
            "    def scrub(self):",
            "        " + eviction,
            "",
        ]
    return "\n".join(lines) + "\n"


class TestEvictionMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(
        n_methods=st.integers(min_value=1, max_value=3),
        target=st.integers(min_value=0, max_value=2),
        eviction=st.sampled_from(_EVICTIONS),
        reachable=st.booleans(),
    )
    def test_adding_an_eviction_site_never_worsens_the_verdict(
        self, n_methods, target, eviction, reachable,
    ):
        target %= n_methods
        base = field_of(
            {FIXTURE: _hub_source(n_methods)}, HUB, "_queue",
        )
        grown = field_of(
            {FIXTURE: _hub_source(
                n_methods, eviction, target, reachable,
            )},
            HUB, "_queue",
        )
        assert _RANK[grown.verdict] <= _RANK[base.verdict]
        if reachable:
            # On the grow path the eviction must actually help.
            assert grown.verdict == VERDICT_EVICTING


# ---------------------------------------------------------------------------
# the report payload
# ---------------------------------------------------------------------------

class TestGrowthPayload:
    def _payload(self, sources):
        return growth_payload(Project.from_sources(sources))

    def test_payload_shape(self):
        payload = self._payload(hub_fixture(
            """
            def __init__(self):
                self._queue = []

            def push(self, item):
                self._queue.append(item)
            """
        ))
        assert payload["schema"] == SCHEMA
        assert payload["verdicts"] == list(VERDICTS)
        assert payload["clean"] is False
        (entry,) = payload["unbounded"]
        assert entry["owner"] == HUB
        assert entry["field"] == "_queue"
        owner = payload["owners"][HUB]
        assert owner["fields"]["_queue"]["verdict"] == (
            VERDICT_UNBOUNDED
        )
        assert owner["fields"]["_queue"]["grow_sites"]

    def test_clean_payload(self):
        payload = self._payload(hub_fixture(
            """
            def __init__(self):
                self._queue = []
            """
        ))
        assert payload["clean"] is True
        assert payload["unbounded"] == []

    def test_declarations_are_inventoried(self):
        payload = self._payload(hub_fixture(
            """
            def __init__(self):
                # gupcheck: bounded[vocab] -- fixed set
                self._logs = {}

            def log_for(self, shard):
                self._logs[shard] = shard
            """
        ))
        (decl,) = payload["declarations"]
        assert decl["reason"] == "vocab"
        assert decl["attached_to"] == "%s._logs" % HUB
        assert payload["counts"][VERDICT_DECLARED] == 1


# ---------------------------------------------------------------------------
# SARIF round-trip
# ---------------------------------------------------------------------------

class TestGrowthSarif:
    def test_growth_finding_round_trips(self, tmp_path):
        leaky = tmp_path / "repro" / "core" / "leaky.py"
        leaky.parent.mkdir(parents=True)
        leaky.write_text(dedent(
            """
            class WaveHub:
                def __init__(self):
                    self._queue = []

                def push(self, item):
                    self._queue.append(item)
            """
        ), encoding="utf-8")
        report = Analyzer().analyze_paths([str(tmp_path)])
        growth = [
            v for v in report.violations
            if v.rule == "container-growth"
        ]
        assert len(growth) == 1

        log = to_sarif(report, default_rules())
        (run,) = log["runs"]
        results = [
            r for r in run["results"]
            if r["ruleId"] == "container-growth"
        ]
        assert len(results) == 1
        result = results[0]
        assert result["level"] == "error"
        assert result["message"]["text"] == growth[0].message
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == growth[0].line
        fingerprints = result["partialFingerprints"]
        assert fingerprints["gupcheckFingerprint/v1"] == (
            growth[0].fingerprint()
        )
        # The rule's metadata rides along for code-scanning UIs.
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "container-growth" in ids


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

class TestGrowthCli:
    def run_cli(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis"] + args,
            capture_output=True, text=True, env=env, cwd=str(cwd),
        )

    def _write(self, tmp_path, body):
        target = tmp_path / "repro" / "core" / "fixture.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(dedent(body), encoding="utf-8")

    def test_growth_artifact_written_and_clean(self, tmp_path):
        self._write(tmp_path, """
            class WaveHub:
                def __init__(self):
                    self._queue = []
        """)
        out = tmp_path / "growth.json"
        proc = self.run_cli(
            [str(tmp_path), "--growth", str(out)], REPO_ROOT
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == SCHEMA
        assert payload["clean"] is True
        assert "0 unbounded" in proc.stdout

    def test_growth_exit_1_on_unbounded_container(self, tmp_path):
        self._write(tmp_path, """
            class WaveHub:
                def __init__(self):
                    self._queue = []

                def push(self, item):
                    self._queue.append(item)
        """)
        out = tmp_path / "growth.json"
        proc = self.run_cli(
            [str(tmp_path), "--growth", str(out)], REPO_ROOT
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["clean"] is False
        assert "container-growth" in proc.stdout + proc.stderr

    def test_growth_default_filename(self, tmp_path):
        self._write(tmp_path, """
            class WaveHub:
                def __init__(self):
                    self._queue = []
        """)
        proc = self.run_cli([str(tmp_path), "--growth"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / GROWTH_FILENAME).exists()

    def test_growth_stdout_dash(self, tmp_path):
        self._write(tmp_path, """
            class WaveHub:
                def __init__(self):
                    self._queue = []
        """)
        proc = self.run_cli(
            [str(tmp_path), "--growth", "-"], REPO_ROOT
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # stdout is the JSON stream, nothing else; the human summary
        # line goes to stderr.
        payload = json.loads(proc.stdout)
        assert payload["schema"] == SCHEMA
        assert "growth inventory (stdout)" in proc.stderr

    def test_growth_composes_with_effects_and_json(self, tmp_path):
        # At the parent ``--growth G --effects E`` wrote only E and
        # ``--growth G --json`` printed no JSON, both silently.
        self._write(tmp_path, """
            class WaveHub:
                def __init__(self):
                    self._queue = []
        """)
        growth = tmp_path / "growth.json"
        effects = tmp_path / "effects.json"
        proc = self.run_cli(
            [str(tmp_path), "--growth", str(growth),
             "--effects", str(effects), "--json"],
            REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["files_scanned"] == 1
        assert json.loads(
            growth.read_text(encoding="utf-8")
        )["schema"] == SCHEMA
        assert json.loads(
            effects.read_text(encoding="utf-8")
        )["boundary"]["clean"] is True

    def test_growth_exit_2_on_parse_error(self, tmp_path):
        self._write(tmp_path, """
            def broken(:
        """)
        proc = self.run_cli(
            [str(tmp_path), "--growth", "-"], REPO_ROOT
        )
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------

def _real_project():
    return Analyzer([]).analyze_paths([SRC_ROOT]).project


class TestRealTree:
    def test_growth_rule_is_active(self):
        assert "container-growth" in {
            rule.name for rule in default_rules()
        }

    def test_shipped_inventory_matches_the_tree(self):
        project = _real_project()
        growth = project.growth
        counts = growth.counts()
        assert counts[VERDICT_UNBOUNDED] == 0

        shipped_path = os.path.join(REPO_ROOT, GROWTH_FILENAME)
        with open(shipped_path, "r", encoding="utf-8") as handle:
            shipped = json.load(handle)
        assert shipped["schema"] == SCHEMA
        assert shipped["clean"] is True
        assert shipped["counts"] == counts
        # Verdict by verdict, not just the tallies: two containers
        # swapping verdicts leave the counts alone.
        assert {
            qualname: {
                name: field["verdict"]
                for name, field in owner["fields"].items()
            }
            for qualname, owner in shipped["owners"].items()
        } == {
            qualname: {
                name: field.verdict
                for name, field in owner.fields.items()
            }
            for qualname, owner in growth.owners.items()
            if owner.fields
        }

        # The verdicts the issue pins, by name.
        def verdict(owner, field):
            return growth.owners[owner].fields[field].verdict

        assert verdict(
            "repro.pxml.path", "_PARSE_CACHE"
        ) == VERDICT_EVICTING
        # Every change feed (bus log, coverage and policy replica
        # feeds, the federation journal) is one SeqLog, proven once.
        assert verdict(
            "repro.seqlog.SeqLog", "_entries"
        ) == VERDICT_EVICTING
        for holder, feed in (
            ("repro.bus.log.ChangeLog", "_records"),
            ("repro.core.coverage.CoverageMap", "_changelog"),
            ("repro.access.infrastructure.PolicyRepository",
             "_changelog"),
            ("repro.federation.foreign.ForeignDirectory", "_journal"),
        ):
            # A held SeqLog, not a private list of the holder's own.
            assert feed not in growth.owners[holder].fields
        assert verdict(
            "repro.obs.spans.SpanRecorder", "spans"
        ) == VERDICT_EVICTING
        assert verdict(
            "repro.bus.listeners.RecordingListener", "received"
        ) == VERDICT_EVICTING
        assert verdict(
            "repro.core.provenance.ProvenanceTracker", "_records"
        ) == VERDICT_EVICTING
        # The cache's per-user index shrinks with every dropped entry.
        assert verdict(
            "repro.core.cache.ComponentCache", "_by_user"
        ) == VERDICT_EVICTING
        assert verdict(
            "repro.access.infrastructure.PolicyRepository", "_rules"
        ) == VERDICT_DECLARED
        assert verdict(
            "repro.simnet.engine.Simulator", "_heap"
        ) == VERDICT_DECLARED

    def test_every_shipped_declaration_is_attached(self):
        project = _real_project()
        for decls in project.growth.declarations.values():
            for decl in decls:
                assert decl.attached_to is not None, (
                    "%s:%d" % (decl.relpath, decl.line)
                )
                assert decl.reason
                assert decl.justification
