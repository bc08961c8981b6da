"""Tests for ``repro.devtools`` — the reprolint static analyzer (PR 8).

Every rule D1–D5 gets at least one flagged and one clean fixture, the
suppression grammar is exercised end to end (justified, unjustified,
unknown-rule, useless, and the X1 escape-hatch-stays-honest property), the
``--json`` schema is pinned, and the package self-check asserts that
``src/repro`` itself lints clean — the linter gate CI runs, run as a test.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.devtools import RULES, LintReport, check_registries, lint_paths
from repro.devtools.reprolint import lint_file, main


# --------------------------------------------------------------------- helpers
def _lint_source(tmp_path: Path, relpath: str, source: str):
    """Lint ``source`` as if it lived at ``relpath`` inside the package."""
    file_path = tmp_path / relpath
    file_path.parent.mkdir(parents=True, exist_ok=True)
    file_path.write_text(source, encoding="utf-8")
    return lint_file(file_path, tmp_path)


def _rules_of(findings) -> List[str]:
    return [f.rule for f in findings]


# ------------------------------------------------------------------- D1 fixtures
class TestD1UnseededRng:
    def test_flags_global_random_calls(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "import random\n"
            "x = random.random()\n"
            "y = random.randint(0, 10)\n",
        )
        assert _rules_of(findings) == ["D1", "D1"]

    def test_flags_unseeded_random_instance(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "from random import Random\nrng = Random()\n",
        )
        assert _rules_of(findings) == ["D1"]
        assert "unseeded" in findings[0].message

    def test_flags_unseeded_default_rng_and_legacy_state(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "sim/foo.py",
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "np.random.seed(42)\n"
            "b = np.random.rand(3)\n",
        )
        assert _rules_of(findings) == ["D1", "D1", "D1"]

    def test_clean_seeded_constructions(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "import numpy as np\n"
            "from random import Random\n"
            "a = np.random.default_rng(7)\n"
            "b = np.random.default_rng(seed=7)\n"
            "c = Random(42)\n"
            "d = np.random.Generator(np.random.PCG64(1))\n",
        )
        assert findings == []

    def test_rng_module_is_exempt(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "sim/rng.py",
            "import numpy as np\nroot = np.random.default_rng()\n",
        )
        assert findings == []

    def test_local_name_shadowing_is_not_flagged(self, tmp_path):
        # No ``import random`` — the name is a local, not the stdlib module.
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "def f(random):\n    return random.random()\n",
        )
        assert findings == []


# ------------------------------------------------------------------- D2 fixtures
class TestD2WallClock:
    def test_flags_wall_clock_in_core_scope(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "mobility/foo.py",
            "import time\nimport os\n"
            "t = time.time()\n"
            "e = os.getenv('HOME')\n"
            "v = os.environ['PATH']\n",
        )
        assert _rules_of(findings) == ["D2", "D2", "D2"]

    def test_flags_datetime_now(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "sim/foo.py",
            "import datetime\nstamp = datetime.datetime.now()\n",
        )
        assert _rules_of(findings) == ["D2"]

    def test_clean_outside_core_scope(self, tmp_path):
        # The stores and the CLI may read clocks for provenance.
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "import time\nimport os\n"
            "t = time.time()\n"
            "v = os.environ.get('CI')\n",
        )
        assert findings == []

    def test_service_is_in_scope(self, tmp_path):
        # The job server decides what runs and what it produces: run ids,
        # event sequences, status documents — all must replay bit-for-bit.
        findings, _ = _lint_source(
            tmp_path,
            "service/jobs.py",
            "import time\nsubmitted = time.time()\n",
        )
        assert _rules_of(findings) == ["D2"]

    def test_service_http_transport_is_exempt(self, tmp_path):
        # The one sanctioned wall-clock use in repro.service: keepalive
        # deadlines on idle NDJSON streams, which never reach a run or a
        # stored result.  The exemption is the file, not the package.
        findings, _ = _lint_source(
            tmp_path,
            "service/http.py",
            "import time\ndeadline = time.monotonic() + 15.0\n",
        )
        assert findings == []

    def test_clean_deterministic_time_use(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "import time\nsleepy = time.sleep\n",
        )
        assert findings == []


# ------------------------------------------------------------------- D3 fixtures
class TestD3UnsortedIteration:
    def test_flags_bare_set_iteration(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "for x in {1, 2, 3}:\n    pass\n"
            "ys = [y for y in set('ab')]\n",
        )
        assert _rules_of(findings) == ["D3", "D3"]

    def test_flags_set_algebra_over_keys(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "d, e = {}, {}\n"
            "for k in d.keys() | e.keys():\n    pass\n",
        )
        assert _rules_of(findings) == ["D3"]

    def test_flags_unsorted_fs_enumeration(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "import os\nimport glob\n"
            "names = os.listdir('.')\n"
            "hits = glob.glob('*.json')\n",
        )
        assert _rules_of(findings) == ["D3", "D3"]

    def test_flags_path_iterdir_method(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "from pathlib import Path\n"
            "for p in Path('.').iterdir():\n    pass\n",
        )
        assert "D3" in _rules_of(findings)

    def test_clean_sorted_wrappers(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "import os\n"
            "d, e = {}, {}\n"
            "names = sorted(os.listdir('.'))\n"
            "for k in sorted(d.keys() | e.keys()):\n    pass\n"
            "for k in d:\n    pass\n",  # dicts iterate in insertion order
        )
        assert findings == []


# ------------------------------------------------------------------- D4 fixtures
class TestD4FloatEquality:
    def test_flags_float_literal_comparison(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 0.1 + 0.2\n"
            "bad = x == 0.3\n"
            "also_bad = x != 1.0\n"
            "and_this = float(x) == float('0.3')\n",
        )
        assert _rules_of(findings) == ["D4", "D4", "D4"]

    def test_clean_isclose_and_int_comparison(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "import math\n"
            "x = 0.1 + 0.2\n"
            "ok = math.isclose(x, 0.3)\n"
            "n = 3\n"
            "counts = n == 3\n"
            "order = x < 0.3\n",  # inequalities are fine
        )
        assert findings == []


# ------------------------------------------------------------------- D5 fixtures
class TestD5RawWrite:
    def test_flags_raw_write_in_experiments(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "import json\n"
            "with open('out.json', 'w') as fh:\n"
            "    json.dump({}, fh)\n"
            "fh2 = open('log.txt', mode='x')\n",
        )
        assert _rules_of(findings) == ["D5", "D5"]

    def test_clean_reads_and_out_of_scope_writes(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "experiments/foo.py",
            "with open('in.json') as fh:\n    data = fh.read()\n"
            "with open('in.json', 'r') as fh:\n    data = fh.read()\n",
        )
        assert findings == []
        # A write outside experiments/ is not D5's business.
        findings, _ = _lint_source(
            tmp_path,
            "sim/foo.py",
            "with open('out.txt', 'w') as fh:\n    fh.write('x')\n",
        )
        assert findings == []


# ----------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_justified_suppression_silences_finding(self, tmp_path):
        findings, suppressed = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 0.0\n"
            "ok = x == 0.0  # repro-lint: ignore[D4] -- exact sentinel: 0.0 disables\n",
        )
        assert findings == []
        assert suppressed == 1

    def test_line_above_suppression_works(self, tmp_path):
        findings, suppressed = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 0.0\n"
            "# repro-lint: ignore[D4] -- exact sentinel: 0.0 disables\n"
            "ok = x == 0.0\n",
        )
        assert findings == []
        assert suppressed == 1

    def test_rule_name_token_is_accepted(self, tmp_path):
        findings, suppressed = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 0.0\n"
            "ok = x == 0.0  # repro-lint: ignore[float-equality] -- exact sentinel\n",
        )
        assert findings == []
        assert suppressed == 1

    def test_unjustified_suppression_is_x1_and_does_not_suppress(self, tmp_path):
        findings, suppressed = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 0.0\nok = x == 0.0  # repro-lint: ignore[D4]\n",
        )
        assert sorted(_rules_of(findings)) == ["D4", "X1"]
        assert suppressed == 0

    def test_unknown_rule_is_x1(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 1\n# repro-lint: ignore[D99] -- misremembered rule id\n",
        )
        assert _rules_of(findings) == ["X1"]
        assert "unknown rule" in findings[0].message

    def test_useless_suppression_is_x1(self, tmp_path):
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 1  # repro-lint: ignore[D4] -- nothing here to suppress\n",
        )
        assert _rules_of(findings) == ["X1"]
        assert "useless" in findings[0].message

    def test_x1_cannot_be_suppressed(self, tmp_path):
        # The escape hatch polices itself: a justified ignore[X1] with no
        # matching finding is still reported.
        findings, _ = _lint_source(
            tmp_path,
            "core/foo.py",
            "x = 1  # repro-lint: ignore[X1] -- trying to mute the police\n",
        )
        assert _rules_of(findings) == ["X1"]

    def test_unparseable_file_is_x1(self, tmp_path):
        findings, _ = _lint_source(tmp_path, "core/foo.py", "def broken(:\n")
        assert _rules_of(findings) == ["X1"]
        assert "does not parse" in findings[0].message


# -------------------------------------------------------------------- S1 checks
class TestS1RegistryRoundtrip:
    def test_package_registries_are_clean(self):
        assert check_registries() == []

    def test_broken_profile_is_reported(self):
        from repro.mobility import demand

        @dataclasses.dataclass(frozen=True)
        class LossyProfile(demand.DemandProfile):
            level: float = 1.0
            dropped: int = 3

            def rate_multiplier(self, t_s: float) -> float:
                return self.level

            def to_dict(self) -> Dict[str, Any]:
                out = super().to_dict()
                del out["dropped"]  # the bug under test: a non-total to_dict
                return out

        demand.register_profile("lossy-test", LossyProfile)
        try:
            findings = check_registries()
        finally:
            del demand._PROFILE_TYPES["lossy-test"]
            del demand._PROFILE_TAGS[LossyProfile]
        s1 = [f for f in findings if f.rule == "S1" and "LossyProfile" in f.message]
        assert s1, findings
        assert any("dropped" in f.message for f in s1)
        # Cleanup restores a clean registry.
        assert check_registries() == []


# ----------------------------------------------------------- report / CLI layer
class TestReportAndCli:
    def test_json_schema(self, tmp_path, capsys):
        bad = tmp_path / "core" / "foo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("x = 0.1\nbad = x == 0.3\n", encoding="utf-8")
        code = main(["--json", "--no-semantic", str(bad)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "reprolint-report/1"
        assert report["ok"] is False
        assert report["files_checked"] == 1
        assert report["suppressed"] == 0
        assert set(report["rules"]) == set(RULES) == {
            "D1", "D2", "D3", "D4", "D5", "S1", "X1"
        }
        (finding,) = report["findings"]
        assert set(finding) == {"rule", "name", "path", "line", "col", "message"}
        assert finding["rule"] == "D4"
        assert finding["name"] == "float-equality"
        assert finding["line"] == 2

    def test_exit_codes_and_render(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--no-semantic", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "clean in 1 file(s)" in out

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n", encoding="utf-8")
        assert main(["--no-semantic", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "D1[unseeded-rng]" in out
        assert "1 finding(s)" in out

    def test_findings_are_sorted_and_deterministic(self, tmp_path):
        for name, body in (
            ("b.py", "import random\nx = random.random()\ny = random.random()\n"),
            ("a.py", "z = 0.1 == 0.2\n"),
        ):
            (tmp_path / name).write_text(body, encoding="utf-8")
        report = lint_paths([tmp_path], package_root=tmp_path, semantic=False)
        keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
        assert keys == sorted(keys)
        again = lint_paths([tmp_path], package_root=tmp_path, semantic=False)
        assert report.findings == again.findings

    def test_cli_lint_verb_delegates(self, tmp_path):
        # The ``repro-count lint`` verb wires through to the same analyzer.
        from repro import cli

        dirty = tmp_path / "dirty.py"
        dirty.write_text("bad = 0.1 == 0.2\n", encoding="utf-8")
        assert cli.main(["lint", "--no-semantic", str(dirty)]) == 1
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert cli.main(["lint", "--no-semantic", str(clean)]) == 0


# ------------------------------------------------------------------- self-check
class TestSelfCheck:
    def test_package_lints_clean(self):
        """The gate CI enforces, as a test: src/repro has zero findings."""
        report = lint_paths()  # default target: the installed repro package
        assert isinstance(report, LintReport)
        assert report.files_checked > 40
        assert report.findings == [], report.render()

    def test_suppressions_in_package_are_all_used(self):
        # Every suppression in the real package must have matched a finding
        # (X1 would have fired otherwise) — pin the count so a stale
        # suppression left behind by a refactor shows up as a diff here.
        report = lint_paths(semantic=False)
        assert report.ok
        assert report.suppressed == 10


# ---------------------------------------------------------------- typing gate
@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate():
    """The CI typecheck job, run locally when mypy is available."""
    repo_root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(repo_root / "mypy.ini")],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_py_typed_marker_ships():
    import repro

    marker = Path(repro.__file__).resolve().parent / "py.typed"
    assert marker.exists()
