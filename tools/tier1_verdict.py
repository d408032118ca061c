"""Run the Tier-1 suite and check that exactly the stated red set fails.

    python tools/tier1_verdict.py

runs ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
from the repository root with a JUnit XML report in a temporary directory.
Exit status 0 means the failing tests are exactly ``test_c02``, ``test_c07``
and ``test_c10`` of ``tests/test_acceptance.py`` (their targets do not match
what the model gives; README "Acceptance suite").  Otherwise each failure
outside that set and each member of it that passed is named, and the status
is 1.  The suite's wall time, its five slowest test cases and the summed
time of each test module are printed from the same report's ``time``
attributes.  One tree's wall time spreads by seconds between runs on a shared
machine; a module's sum lets a change quote the cost of the tests it touched.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RED_SET = ("test_c02", "test_c07", "test_c10")
RED_MODULE = "tests.test_acceptance"


def case_id(case: ET.Element) -> str:
    return f"{case.get('classname')}::{case.get('name')}"


def failing_tests(report: ET.Element) -> list[str]:
    """Ids (classname::name) of the test cases with a failure or error in a JUnit report."""
    return [case_id(case) for case in report.iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None]


def timing(report: ET.Element, n_slowest: int = 5) -> tuple[float, list[tuple[float, str]]]:
    """The suite's wall time and its ``n_slowest`` slowest cases, (seconds, id), from ``time``."""
    wall = sum(float(suite.get("time", 0.0)) for suite in report.iter("testsuite"))
    cases = sorted(((float(case.get("time", 0.0)), case_id(case))
                    for case in report.iter("testcase")), reverse=True)
    return wall, cases[:n_slowest]


def module_times(report: ET.Element) -> list[tuple[float, str]]:
    """The summed ``time`` of each test module's cases, (seconds, module), slowest first."""
    totals = defaultdict(float)
    for case in report.iter("testcase"):
        parts = case.get("classname", "").split(".")
        # the module is the classname up to its test_*.py part, without a test class
        end = next((i for i, part in enumerate(parts) if part.startswith("test_")), len(parts) - 1)
        totals[".".join(parts[:end + 1])] += float(case.get("time", 0.0))
    return sorted(((seconds, module) for module, seconds in totals.items()), reverse=True)


def red_member(test_id: str) -> str | None:
    """The red-set name that ``test_id`` is, if any."""
    module, _, name = test_id.partition("::")
    if module == RED_MODULE:
        for red in RED_SET:
            if name == red or name.startswith(red + "_"):
                return red
    return None


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={report}"]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if not report.exists():
            print(f"tier1_verdict: pytest exited {code} without a report", file=sys.stderr)
            return 1
        junit = ET.parse(report).getroot()
    failed = failing_tests(junit)
    wall, slowest = timing(junit)
    print(f"tier1_verdict: suite wall time {wall:.1f} s; slowest cases:")
    for seconds, test_id in slowest:
        print(f"  {seconds:6.2f} s  {test_id}")
    print("tier1_verdict: summed case time per module:")
    for seconds, module in module_times(junit):
        print(f"  {seconds:6.2f} s  {module}")
    added = [t for t in failed if red_member(t) is None]
    missing = sorted(set(RED_SET) - {red_member(t) for t in failed})
    for test_id in added:
        print(f"tier1_verdict: fails outside the red set: {test_id}")
    for red in missing:
        print(f"tier1_verdict: red-set test did not fail: {RED_MODULE}::{red}")
    if added or missing:
        return 1
    print(f"tier1_verdict: ok, the failing set is exactly {', '.join(RED_SET)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
