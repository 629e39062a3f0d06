"""Tests for repro.analysis: each rule's fixtures, the suppression layer,
the driver/CLI plumbing — and the meta-test that lints this very repository,
pinning "zero findings" as an invariant of the tree itself.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    analyze_source,
    get_rule,
    run_analysis,
)
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

# Virtual paths used to aim fixture snippets at path-scoped rules.
CORE_PATH = "src/repro/core/fixture.py"
STORAGE_PATH = "src/repro/storage/fixture.py"
SERVER_PATH = "src/repro/server/fixture.py"
NEUTRAL_PATH = "src/repro/fixture.py"


def lint(source, path=NEUTRAL_PATH, rule=None):
    """Lint a snippet under a virtual path, optionally with a single rule."""
    rules = [get_rule(rule)] if rule else None
    return analyze_source(source, path, rules=rules)


def rule_names(result):
    return sorted(f.rule for f in result.findings)


class TestRegistry:
    def test_battery_is_complete(self):
        names = {rule.name for rule in all_rules()}
        assert {
            "column-encapsulation",
            "per-char-hot-path",
            "await-state-race",
            "mutable-default-arg",
            "frozen-dataclass-mutation",
            "slots-attribute-escape",
        } <= names

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")


# The same file as the driver may see it: scanned as ``src``, ``./src`` or
# through an absolute path.
PATH_SPELLINGS = pytest.mark.parametrize(
    "prefix", ["", "./", "/home/dev/checkout/"], ids=["src", "dot-src", "absolute"]
)


class TestPathScope:
    """``include`` / ``exclude`` match path fragments, whatever the spelling."""

    @PATH_SPELLINGS
    def test_exclude_carves_out_only_the_rule_home(self, prefix):
        src = "def split(graph):\n    return graph._h_id[0]\n"
        home = prefix + "src/repro/core/event_graph.py"
        sibling = prefix + "src/repro/core/walker.py"
        assert lint(src, path=home, rule="column-encapsulation").findings == []
        assert len(lint(src, path=sibling, rule="column-encapsulation").findings) == 1

    @PATH_SPELLINGS
    def test_include_restricts_to_the_scoped_package(self, prefix):
        src = (
            "class Room:\n"
            "    async def park(self, frame):\n"
            "        known = self.pending\n"
            "        await self.flush()\n"
            "        self.pending = known + [frame]\n"
        )
        inside = prefix + "src/repro/server/room.py"
        outside = prefix + "src/repro/core/room.py"
        assert len(lint(src, path=inside, rule="await-state-race").findings) == 1
        assert lint(src, path=outside, rule="await-state-race").findings == []


class TestColumnEncapsulation:
    RULE = "column-encapsulation"

    def test_flags_handle_columns_on_any_foreign_receiver(self):
        src = (
            "def f(graph, walker):\n"
            "    a = graph._h_id[3]\n"
            "    b = walker._h_parents\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 2

    def test_order_columns_flag_only_graph_receivers(self):
        src = (
            "def f(graph, widget):\n"
            "    bad = graph._order\n"
            "    bad2 = doc.graph._frontier\n"
            "    fine = widget._order\n"
        )
        result = lint(src, rule=self.RULE)
        assert {f.line for f in result.findings} == {2, 3}

    def test_parent_and_child_columns_and_side_maps(self):
        src = (
            "def f(graph, tree, cache):\n"
            "    a = graph._more_parents.get(3)\n"
            "    b = doc.oplog.graph._more_children\n"
            "    c = tree._h_parent[3] + graph._h_child[3]\n"
            "    fine = cache._more_parents\n"
            "    gone = graph._agent_names, graph._agent_ids\n"
        )
        result = lint(src, rule=self.RULE)
        assert sorted(f.line for f in result.findings) == [2, 3, 4, 4]

    def test_self_receiver_is_not_flagged(self):
        # An unrelated class may reuse the _h_ prefix for its own state.
        src = (
            "class Histogram:\n"
            "    def bump(self):\n"
            "        self._h_total = 1\n"
        )
        assert lint(src, rule=self.RULE).findings == []

    def test_event_graph_module_is_excluded(self):
        src = "def split(graph):\n    return graph._h_id[0]\n"
        path = "src/repro/core/event_graph.py"
        assert lint(src, path=path, rule=self.RULE).findings == []

    def test_public_accessors_are_clean(self):
        src = (
            "def f(graph):\n"
            "    for event in graph.events():\n"
            "        graph.index_of_handle(event.handle)\n"
            "    return graph.frontier\n"
        )
        assert lint(src, rule=self.RULE).findings == []


class TestPerCharHotPath:
    RULE = "per-char-hot-path"

    def test_flags_loop_over_run_content(self):
        src = "def f(event):\n    for ch in event.op.content:\n        pass\n"
        result = lint(src, path=CORE_PATH, rule=self.RULE)
        assert len(result.findings) == 1

    def test_flags_wrapped_iteration_and_comprehensions(self):
        src = (
            "def f(op, mask):\n"
            "    kept = [c for c, keep in zip(op.content, mask) if keep]\n"
            "    for i, c in enumerate(op.content):\n"
            "        pass\n"
        )
        result = lint(src, path=STORAGE_PATH, rule=self.RULE)
        assert len(result.findings) == 2

    def test_flags_range_over_length(self):
        src = (
            "def f(op):\n"
            "    return [op.id_at(k) for k in range(op.length)]\n"
        )
        result = lint(src, path=CORE_PATH, rule=self.RULE)
        assert len(result.findings) == 1

    def test_flags_expand_to_chars_call(self):
        src = "def f(graph):\n    return expand_to_chars(graph)\n"
        result = lint(src, path=STORAGE_PATH, rule=self.RULE)
        assert len(result.findings) == 1
        assert "oracle" in result.findings[0].message

    def test_oracle_definition_is_allowlisted(self):
        src = (
            "def expand_to_chars(graph):\n"
            "    for event in graph.events():\n"
            "        for k in range(event.op.length):\n"
            "            yield event.id_at(k)\n"
        )
        path = "src/repro/core/event_graph.py"
        assert lint(src, path=path, rule=self.RULE).findings == []

    def test_rule_is_scoped_to_run_native_modules(self):
        src = "def f(op):\n    return [c for c in op.content]\n"
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []
        assert lint(src, path="tests/test_x.py", rule=self.RULE).findings == []

    def test_run_level_loops_are_clean(self):
        src = (
            "def f(graph, op):\n"
            "    for event in graph.events():\n"
            "        pass\n"
            "    for run in op.runs:\n"
            "        pass\n"
        )
        assert lint(src, path=CORE_PATH, rule=self.RULE).findings == []


class TestAwaitStateRace:
    RULE = "await-state-race"

    def test_flags_read_await_write(self):
        src = (
            "class Room:\n"
            "    async def park(self, frame):\n"
            "        known = self.pending\n"
            "        await self.flush()\n"
            "        self.pending = known + [frame]\n"
        )
        result = lint(src, path=SERVER_PATH, rule=self.RULE)
        assert len(result.findings) == 1
        assert "self.pending" in result.findings[0].message

    def test_reread_after_await_is_the_sanctioned_fix(self):
        src = (
            "class Room:\n"
            "    async def park(self, frame):\n"
            "        known = self.pending\n"
            "        await self.flush()\n"
            "        self.pending = self.pending + [frame]\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []

    def test_capture_then_write_before_await_is_clean(self):
        src = (
            "class Server:\n"
            "    async def stop(self):\n"
            "        server, self._server = self._server, None\n"
            "        if server is not None:\n"
            "            await server.wait_closed()\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []

    def test_reread_validate_bailout_branch_is_clean(self):
        # Re-read after the await, raise if a concurrent task won: the fix
        # pattern this rule's message recommends must itself come out clean.
        src = (
            "class Server:\n"
            "    async def start(self):\n"
            "        if self._server is not None:\n"
            "            raise RuntimeError\n"
            "        server = await self.bind()\n"
            "        if self._server is not None:\n"
            "            raise RuntimeError\n"
            "        self._server = server\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []

    def test_cross_iteration_race_is_caught(self):
        # The read at the bottom of iteration N is still the last observation
        # when iteration N+1 suspends in recv() and then writes: loop bodies
        # are walked twice precisely to catch this wrap-around interleaving.
        src = (
            "class Conn:\n"
            "    async def pump(self):\n"
            "        while True:\n"
            "            frame = await self.recv()\n"
            "            self.last_frame = frame\n"
            "            if self.last_frame is None:\n"
            "                return\n"
        )
        result = lint(src, path=SERVER_PATH, rule=self.RULE)
        assert len(result.findings) == 1
        assert "self.last_frame" in result.findings[0].message

    def test_loop_with_fresh_read_each_iteration_is_clean(self):
        # The loop test re-reads the attribute before any write can happen,
        # so the pre-await observation is never the basis of the write.
        src = (
            "class Conn:\n"
            "    async def pump(self):\n"
            "        while True:\n"
            "            if self.state == 'open':\n"
            "                await self.send()\n"
            "            else:\n"
            "                self.state = 'open'\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []

    def test_augassign_counts_as_reread(self):
        src = (
            "class Room:\n"
            "    async def bump(self):\n"
            "        if self.count > 0:\n"
            "            await self.flush()\n"
            "        self.count += 1\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []

    def test_async_with_and_async_for_suspend(self):
        src = (
            "class Room:\n"
            "    async def drain(self):\n"
            "        n = self.count\n"
            "        async with self.lock:\n"
            "            pass\n"
            "        self.count = n - 1\n"
        )
        result = lint(src, path=SERVER_PATH, rule=self.RULE)
        assert len(result.findings) == 1

    def test_rule_is_scoped_to_server_package(self):
        src = (
            "class Room:\n"
            "    async def park(self):\n"
            "        n = self.count\n"
            "        await self.flush()\n"
            "        self.count = n + 1\n"
        )
        assert lint(src, path=CORE_PATH, rule=self.RULE).findings == []

    def test_rule_covers_the_faults_package(self):
        """The fault injector mutates shared counters from transport
        coroutines — the race rule's scope includes it."""
        src = (
            "class Injector:\n"
            "    async def throttle(self):\n"
            "        n = self.waits\n"
            "        await self.sleep()\n"
            "        self.waits = n + 1\n"
        )
        result = lint(src, path="src/repro/faults/fixture.py", rule=self.RULE)
        assert len(result.findings) == 1

    def test_sync_methods_and_free_coroutines_are_out_of_scope(self):
        src = (
            "class Room:\n"
            "    def sync_toggle(self):\n"
            "        n = self.count\n"
            "        self.count = n + 1\n"
            "async def free(worker):\n"
            "    n = worker.count\n"
            "    await worker.flush()\n"
            "    worker.count = n + 1\n"
        )
        assert lint(src, path=SERVER_PATH, rule=self.RULE).findings == []


class TestMutableDefaultArg:
    RULE = "mutable-default-arg"

    def test_flags_literal_and_constructor_defaults(self):
        src = (
            "def f(a=[], b={}, *, c=set()):\n"
            "    pass\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 3

    def test_none_and_immutable_defaults_are_clean(self):
        src = "def f(a=None, b=(), c='x', d=0):\n    pass\n"
        assert lint(src, rule=self.RULE).findings == []


class TestFrozenDataclassMutation:
    RULE = "frozen-dataclass-mutation"

    def test_flags_self_assignment_in_frozen_method(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Version:\n"
            "    ids: tuple\n"
            "    def clobber(self):\n"
            "        self.ids = ()\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 1
        assert "FrozenInstanceError" in result.findings[0].message

    def test_flags_object_setattr_outside_construction(self):
        src = (
            "def patch(event, text):\n"
            "    object.__setattr__(event.op, 'content', text)\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 1

    def test_construction_time_setattr_is_sanctioned(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Version:\n"
            "    ids: tuple\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'ids', tuple(self.ids))\n"
        )
        assert lint(src, rule=self.RULE).findings == []

    def test_unfrozen_dataclass_may_mutate(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cursor:\n"
            "    pos: int\n"
            "    def advance(self):\n"
            "        self.pos = self.pos + 1\n"
        )
        assert lint(src, rule=self.RULE).findings == []


class TestSlotsAttributeEscape:
    RULE = "slots-attribute-escape"

    def test_flags_attribute_outside_literal_slots(self):
        src = (
            "class Node:\n"
            "    __slots__ = ('left', 'right')\n"
            "    def __init__(self):\n"
            "        self.left = None\n"
            "        self.cache = {}\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 1
        assert "cache" in result.findings[0].message

    def test_flags_dataclass_slots_field_escape(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class Point:\n"
            "    x: int\n"
            "    def mark(self):\n"
            "        self.seen = True\n"
        )
        result = lint(src, rule=self.RULE)
        assert len(result.findings) == 1

    def test_inherited_slots_resolve_within_module(self):
        src = (
            "class Base:\n"
            "    __slots__ = ('a',)\n"
            "class Child(Base):\n"
            "    __slots__ = ('b',)\n"
            "    def both(self):\n"
            "        self.a = 1\n"
            "        self.b = 2\n"
        )
        assert lint(src, rule=self.RULE).findings == []

    def test_external_base_disables_the_check(self):
        # An imported base may provide a __dict__; cannot prove escape.
        src = (
            "class Child(SomeImportedBase):\n"
            "    __slots__ = ('b',)\n"
            "    def write(self):\n"
            "        self.other = 1\n"
        )
        assert lint(src, rule=self.RULE).findings == []

    def test_dict_in_slots_disables_the_check(self):
        src = (
            "class Loose:\n"
            "    __slots__ = ('a', '__dict__')\n"
            "    def write(self):\n"
            "        self.anything = 1\n"
        )
        assert lint(src, rule=self.RULE).findings == []


class TestSuppressions:
    def test_bare_disable_silences_every_rule(self):
        src = "def f(a=[]):  # lint: disable\n    pass\n"
        result = lint(src, rule="mutable-default-arg")
        assert result.findings == [] and len(result.suppressed) == 1

    def test_named_disable_leaves_other_rules_armed(self):
        src = "def f(a=[]):  # lint: disable=per-char-hot-path\n    pass\n"
        result = lint(src, rule="mutable-default-arg")
        assert len(result.findings) == 1 and result.suppressed == []

    def test_justification_text_after_rule_list_is_ignored(self):
        src = (
            "def f(a=[]):  "
            "# lint: disable=mutable-default-arg -- shared sentinel, never mutated\n"
            "    pass\n"
        )
        result = lint(src, rule="mutable-default-arg")
        assert result.findings == [] and len(result.suppressed) == 1

    def test_named_disable_silences_only_its_own_line(self):
        src = (
            "def f(a=[]):  # lint: disable=mutable-default-arg -- parity check\n"
            "    pass\n"
            "def g(a=[]):\n"
            "    pass\n"
        )
        result = lint(src, rule="mutable-default-arg")
        assert [f.line for f in result.findings] == [3]
        assert len(result.suppressed) == 1

    def test_directive_inside_string_literal_is_not_a_directive(self):
        src = (
            "DOC = '# lint: disable'\n"
            "def f(a=[]):\n"
            "    pass\n"
        )
        result = lint(src, rule="mutable-default-arg")
        assert len(result.findings) == 1


class TestDriverAndCli:
    def test_parse_error_is_a_loud_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = run_analysis([bad])
        assert rule_names(result) == ["parse-error"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(a=[]):\n    pass\n")
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a=None):\n    pass\n")
        assert cli_main([str(clean)]) == 0
        assert cli_main([str(dirty)]) == 1
        assert cli_main([str(tmp_path / "missing.py")]) == 2
        assert cli_main(["--select", "no-such-rule", str(clean)]) == 2
        capsys.readouterr()

    def test_cli_select_and_ignore(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(a=[]):\n    pass\n")
        args = [str(dirty)]
        assert cli_main(args + ["--select", "slots-attribute-escape"]) == 0
        assert cli_main(args + ["--ignore", "mutable-default-arg"]) == 0
        capsys.readouterr()

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(a=[]):\n    pass\n")
        assert cli_main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["rule"] for f in payload["findings"]] == ["mutable-default-arg"]

    def test_baseline_flags_are_usage_errors(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a=None):\n    pass\n")
        for flag in ("--baseline=baseline.json", "--no-baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as info:
                cli_main([str(clean), flag])
            assert info.value.code == 2, flag
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out


class TestRepositoryIsClean:
    """The meta-test: the linter must pass over the tree itself, every
    accepted finding suppressed inline with its justification.  A new
    violation anywhere fails here first."""

    def test_source_tree_has_no_findings(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        targets = [Path(p) for p in ("src", "tests", "benchmarks", "examples")]
        result = run_analysis([p for p in targets if p.exists()])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"findings:\n{rendered}"
        assert not (REPO_ROOT / "analysis-baseline.json").exists()

    def test_every_named_suppression_carries_its_reason(self):
        import io
        import tokenize

        bare = []
        for root in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / root).rglob("*.py")):
                source = path.read_text(encoding="utf-8")
                tokens = tokenize.generate_tokens(io.StringIO(source).readline)
                for token in tokens:
                    if token.type != tokenize.COMMENT or "lint: disable=" not in token.string:
                        continue
                    reason = token.string.partition(" -- ")[2].strip()
                    if not reason:
                        bare.append(f"{path.relative_to(REPO_ROOT)}:{token.start[0]}")
        assert bare == [], "suppressions without a reason:\n" + "\n".join(bare)

    @pytest.mark.parametrize(
        "rule,snippet",
        [
            ("per-char-hot-path", "zip(ops[index].content, mask)"),
            ("per-char-hot-path", "event.id_at(k) not in deleted_ids"),
            ("frozen-dataclass-mutation", 'object.__setattr__(event.op, "content"'),
        ],
        ids=["surviving-content-join", "survival-mask", "pruned-content-backfill"],
    )
    def test_accepted_storage_finding_is_suppressed_inline(self, rule, snippet, monkeypatch):
        """The pruned-mode helpers' three accepted findings: each is silenced
        on its own line, by name, with the reason it is accepted."""
        monkeypatch.chdir(REPO_ROOT)
        path = Path("src/repro/storage/columns.py")
        lines = path.read_text(encoding="utf-8").splitlines()
        result = run_analysis([path])
        assert result.findings == []
        (finding,) = [
            f for f in result.suppressed if f.rule == rule and snippet in lines[f.line - 1]
        ]
        directive = lines[finding.line - 1].partition("# lint: ")[2]
        assert directive.startswith(f"disable={rule} -- ")
        assert len(directive.partition(" -- ")[2]) > 40


class TestTypingGate:
    def test_mypy_strict_passes_over_typed_packages(self):
        mypy = pytest.importorskip(
            "mypy.api", reason="mypy is a CI-only dev dependency"
        )
        stdout, stderr, status = mypy.run(
            ["--config-file", str(REPO_ROOT / "mypy.ini")]
        )
        assert status == 0, f"mypy strict failed:\n{stdout}\n{stderr}"
