"""The deadline fixture fails one test and lets the session go on."""

import pathlib

import malcevlab

CONFTEST = pathlib.Path(__file__).with_name("conftest.py")


def test_a_test_past_its_deadline_fails_alone(pytester, monkeypatch):
    # the session runs in a directory of its own, so it finds the
    # package by an absolute path
    monkeypatch.setenv("PYTHONPATH",
                       str(pathlib.Path(malcevlab.__file__).parents[1]))
    pytester.makeconftest(CONFTEST.read_text())
    # a closure loop: on Python 3.11 the alarm lands on the loop's
    # backward jump, which has no line number
    pytester.makepyfile("""
        from itertools import repeat

        def test_closure_loop(deadline):
            deadline(1)
            seen = {0}
            for g in repeat(0):
                if g not in seen:
                    seen.add(g)

        def test_after():
            pass
        """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*the test ran past its deadline*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
