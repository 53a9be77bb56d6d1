"""Lines of ``src/desimone`` that neither tier-1 nor the demos reach.

    PYTHONPATH=src python3 tests/line_coverage.py [PYTEST_ARGS...]

Runs the tier-1 suite in this process, then each script in ``demos/``,
under a ``sys.settrace`` line tracer limited to ``src/desimone``. Prints
each executable line that no run reached, as ``path:line: source``, and
then their count. PYTEST_ARGS replace the default selection, the whole
``tests/`` directory. Standard library only: the executable lines are the
line tables of the code objects compiled from each module. Code that runs
in a child process, such as the CLI subprocess tests, is not seen. The
tracer slows the suite about fivefold.

Python unsets a trace function that raises, as one does when a test runs
into the recursion limit, so the tracer is armed again before each test's
setup and call and before each demo.
"""

import contextlib
import io
import os
import runpy
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "desimone"
PREFIX = str(PACKAGE) + os.sep

reached = set()  # (absolute path, line)
_in_package = {}  # co_filename -> whether it lies in the package


def _line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _in_package.get(name)
    if inside is None:
        inside = _in_package[name] = os.path.abspath(name).startswith(PREFIX)
    if not inside:
        return None
    reached.add((name, frame.f_lineno))
    return _line


def arm():
    sys.settrace(_call)


class Rearm:
    """A pytest plugin that arms the tracer before each test's setup and call."""

    def pytest_runtest_setup(self, item):
        arm()

    def pytest_runtest_call(self, item):
        arm()


def executable_lines(path):
    """Every line in the line table of a code object compiled from ``path``."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: none
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    arm()  # before the suite imports the package, so module bodies count
    pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                plugins=[Rearm()])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        arm()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            runpy.run_path(str(demo), run_name="__main__")
    sys.settrace(None)

    seen = {(os.path.abspath(name), line) for name, line in reached}
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in seen:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines of src/desimone reached by no test or demo")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
