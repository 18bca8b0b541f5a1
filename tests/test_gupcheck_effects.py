"""Effect inference + the sans-io boundary (gupcheck v3).

Covers the lattice itself, the interprocedural propagation (resolved
calls join callee effects; callable *references* do not), the
intrinsic patterns for unresolved calls, the ``sans-io-purity``
project rule and the ``--effects`` CLI artifact.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis.effects_report import (
    EFFECTS_FILENAME, SCHEMA, effects_payload,
)
from repro.analysis.interproc.effects import (
    EFFECT_PURE,
    EFFECT_TRANSPORT,
    EFFECT_VIRTUAL_TIME,
    EFFECT_WALL_IO,
    EFFECTS,
    join_effects,
)
from repro.analysis.ir.project import Project
from repro.analysis.rules import SansIoPurityRule

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


def computed(sources):
    return Project.from_sources(sources)


def effect_of(proj, qualname):
    summary = proj.taint.summary_of(qualname)
    assert summary is not None, qualname
    return summary.effect


# ---------------------------------------------------------------------------
# the lattice
# ---------------------------------------------------------------------------

class TestLattice:
    def test_join_is_max_rank(self):
        assert join_effects(EFFECT_PURE, EFFECT_WALL_IO) \
            == EFFECT_WALL_IO
        assert join_effects(EFFECT_TRANSPORT, EFFECT_VIRTUAL_TIME) \
            == EFFECT_TRANSPORT
        for effect in EFFECTS:
            assert join_effects(effect, effect) == effect
            assert join_effects(EFFECT_PURE, effect) == effect


# ---------------------------------------------------------------------------
# inference over project functions
# ---------------------------------------------------------------------------

class TestEffectInference:
    def test_pure_computation(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def double(n):
                    return n * 2
                """
            ),
        })
        assert effect_of(proj, "repro.m.double") == EFFECT_PURE

    def test_sim_clock_is_virtual_time(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def stamp(sim):
                    return sim.now


                def defer(sim, fn):
                    sim.schedule(5.0, fn)
                """
            ),
        })
        assert effect_of(proj, "repro.m.stamp") \
            == EFFECT_VIRTUAL_TIME
        assert effect_of(proj, "repro.m.defer") \
            == EFFECT_VIRTUAL_TIME

    def test_sample_hop_is_transport(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def hop(network):
                    return network.sample_hop("a", "b", 64)
                """
            ),
        })
        assert effect_of(proj, "repro.m.hop") == EFFECT_TRANSPORT

    def test_wall_io_intrinsics(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                import time


                def read(path):
                    with open(path) as handle:
                        return handle.read()


                def clock():
                    return time.time()
                """
            ),
        })
        assert effect_of(proj, "repro.m.read") == EFFECT_WALL_IO
        assert effect_of(proj, "repro.m.clock") == EFFECT_WALL_IO

    def test_effect_propagates_through_resolved_calls(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def hop(network):
                    return network.sample_hop("a", "b", 64)


                def caller(network):
                    return hop(network) + 1
                """
            ),
        })
        assert effect_of(proj, "repro.m.caller") == EFFECT_TRANSPORT

    def test_callable_reference_does_not_propagate(self):
        # Passing a function as a value attributes the deferred work
        # to the frame that lexically contains it, not the scheduler.
        proj = computed({
            "repro/m.py": dedent(
                """
                def wall():
                    print("hi")


                def defer(sim):
                    sim.schedule(5.0, wall)
                """
            ),
        })
        assert effect_of(proj, "repro.m.wall") == EFFECT_WALL_IO
        assert effect_of(proj, "repro.m.defer") \
            == EFFECT_VIRTUAL_TIME

    def test_nested_def_body_counts_toward_encloser(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def outer(network):
                    def cb():
                        network.sample_hop("a", "b", 64)
                    return cb
                """
            ),
        })
        assert effect_of(proj, "repro.m.outer") == EFFECT_TRANSPORT

    def test_recursive_scc_converges(self):
        proj = computed({
            "repro/m.py": dedent(
                """
                def even(n, network):
                    if n == 0:
                        return True
                    return odd(n - 1, network)


                def odd(n, network):
                    if n == 0:
                        network.sample_hop("a", "b", 1)
                        return False
                    return even(n - 1, network)
                """
            ),
        })
        assert effect_of(proj, "repro.m.even") == EFFECT_TRANSPORT
        assert effect_of(proj, "repro.m.odd") == EFFECT_TRANSPORT

    def test_requests_attribute_is_not_the_http_library(self):
        # Regression: `self._requests.append(...)` must match the
        # `requests` wall-io marker segment-exactly, not by substring.
        proj = computed({
            "repro/m.py": dedent(
                """
                class Batch:
                    def __init__(self):
                        self._requests = []

                    def add(self, request):
                        self._requests.append(request)
                """
            ),
        })
        assert effect_of(proj, "repro.m.Batch.add") == EFFECT_PURE


# ---------------------------------------------------------------------------
# sans-io-purity rule
# ---------------------------------------------------------------------------

class TestSansIoPurityRule:
    def run_rule(self, sources, relpath):
        proj = computed(sources)
        rule = SansIoPurityRule()
        module = proj.by_relpath[relpath].info
        return rule.check_module(proj, module)

    def test_transport_in_core_is_flagged(self):
        found = self.run_rule({
            "repro/core/engine.py": dedent(
                """
                def leak(network):
                    return network.sample_hop("a", "b", 64)
                """
            ),
        }, "repro/core/engine.py")
        assert len(found) == 1
        assert "transport" in found[0].message
        assert found[0].severity == "error"

    def test_virtual_time_in_core_is_allowed(self):
        found = self.run_rule({
            "repro/core/engine.py": dedent(
                """
                def stamp(sim):
                    return sim.now
                """
            ),
        }, "repro/core/engine.py")
        assert found == []

    def test_wall_io_in_pxml_is_flagged(self):
        found = self.run_rule({
            "repro/pxml/loader.py": dedent(
                """
                def slurp(path):
                    with open(path) as handle:
                        return handle.read()
                """
            ),
        }, "repro/pxml/loader.py")
        assert len(found) == 1
        assert "wall-io" in found[0].message

    def test_transitive_transport_through_helper_module(self):
        found = self.run_rule({
            "repro/util/wire.py": dedent(
                """
                def hop(network):
                    return network.sample_hop("a", "b", 64)
                """
            ),
            "repro/core/engine.py": dedent(
                """
                from repro.util.wire import hop


                def leak(network):
                    return hop(network)
                """
            ),
        }, "repro/core/engine.py")
        assert len(found) == 1

    def test_bus_outside_log_is_not_in_scope(self):
        rule = SansIoPurityRule()
        assert rule.applies_to("repro/bus/log.py")
        assert not rule.applies_to("repro/bus/bus.py")
        assert not rule.applies_to("repro/bus/listeners.py")
        assert rule.applies_to("repro/core/query.py")
        assert rule.applies_to("repro/pxml/parse.py")

    def test_real_tree_boundary_is_clean(self):
        # The acceptance bar: the shipped src/ tree carries no
        # transport/wall-io inside core/, pxml/ or bus/log.py.
        sources = {}
        for dirpath, dirnames, filenames in os.walk(
            os.path.join(SRC_ROOT, "repro")
        ):
            dirnames[:] = [
                d for d in dirnames if d != "__pycache__"
            ]
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                relpath = os.path.relpath(
                    full, SRC_ROOT
                ).replace(os.sep, "/")
                with open(full, "r", encoding="utf-8") as handle:
                    sources[relpath] = handle.read()
        proj = computed(sources)
        rule = SansIoPurityRule()
        found = []
        for relpath in sorted(proj.by_relpath):
            if rule.applies_to(relpath):
                found.extend(rule.check_module(
                    proj, proj.by_relpath[relpath].info
                ))
        assert found == []


# ---------------------------------------------------------------------------
# the --effects boundary map
# ---------------------------------------------------------------------------

class TestEffectsPayload:
    def test_payload_shape_and_counts(self):
        payload = effects_payload(Project.from_sources({
            "repro/core/pure.py": "def f(n):\n    return n\n",
            "repro/util/wire.py": (
                "def hop(network):\n"
                "    return network.sample_hop('a', 'b', 1)\n"
            ),
        }))
        assert payload["schema"] == SCHEMA
        assert payload["effects"] == list(EFFECTS)
        assert payload["functions"]["repro.core.pure.f"]["effect"] \
            == EFFECT_PURE
        assert payload["functions"]["repro.util.wire.hop"]["effect"] \
            == EFFECT_TRANSPORT
        assert payload["modules"]["repro/util/wire.py"] \
            == EFFECT_TRANSPORT
        assert payload["counts"][EFFECT_PURE] == 1
        assert payload["counts"][EFFECT_TRANSPORT] == 1
        assert payload["boundary"]["clean"] is True

    def test_boundary_violation_is_reported(self):
        payload = effects_payload(Project.from_sources({
            "repro/core/engine.py": (
                "def leak(network):\n"
                "    return network.sample_hop('a', 'b', 1)\n"
            ),
        }))
        boundary = payload["boundary"]
        assert boundary["clean"] is False
        assert boundary["violations"][0]["qualname"] \
            == "repro.core.engine.leak"
        assert boundary["violations"][0]["effect"] \
            == EFFECT_TRANSPORT


class TestEffectsCli:
    def run_cli(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis"] + args,
            capture_output=True, text=True, env=env, cwd=str(cwd),
        )

    def test_effects_artifact_written_and_clean(self, tmp_path):
        ok = tmp_path / "repro" / "core" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("def f(n):\n    return n\n", encoding="utf-8")
        out = tmp_path / "effects.json"
        proc = self.run_cli(
            [str(tmp_path), "--effects", str(out)], REPO_ROOT
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == SCHEMA
        assert payload["boundary"]["clean"] is True
        assert "boundary clean" in proc.stdout

    def test_effects_exit_1_on_boundary_violation(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def leak(network):\n"
            "    return network.sample_hop('a', 'b', 1)\n",
            encoding="utf-8",
        )
        out = tmp_path / "effects.json"
        proc = self.run_cli(
            [str(tmp_path), "--effects", str(out)], REPO_ROOT
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["boundary"]["clean"] is False

    def test_effects_default_filename(self, tmp_path):
        ok = tmp_path / "repro" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("VALUE = 1\n", encoding="utf-8")
        proc = self.run_cli(
            ["repro", "--effects"], tmp_path
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / EFFECTS_FILENAME).exists()
