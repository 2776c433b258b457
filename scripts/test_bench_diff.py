#!/usr/bin/env python3
"""Checks for bench_diff.py's verdicts.

Pytest-style (plain asserts, test_* functions) but runnable directly:
`python3 scripts/test_bench_diff.py`.  Stdlib only.

A diff that compares nothing must fail: OLD or NEW given as a file, as a
missing path or as a directory with no *.json in it exits non-zero with a
one-line diagnosis.  Two equal trees pass, and a moved value fails.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def record(cycles):
    return {"bench": "fig1", "config": {"arch": "x86"},
            "metrics": {"cycles": cycles}}


def write_tree(root, name, records):
    tree = os.path.join(root, name)
    os.makedirs(tree, exist_ok=True)
    with open(os.path.join(tree, "fig1.json"), "w") as f:
        json.dump(records, f)
    return tree


def run_diff(*argv):
    return subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True, timeout=60)


def assert_refused(proc, label, needle):
    out = proc.stdout + proc.stderr
    assert proc.returncode != 0, f"{label}: expected nonzero exit\n{out}"
    assert "Traceback" not in out, f"{label}: leaked a traceback:\n{out}"
    assert needle in proc.stderr, f"{label}: no '{needle}' in\n{out}"
    assert "rows compared" not in proc.stdout, f"{label}: compared rows"


def test_equal_trees_pass():
    with tempfile.TemporaryDirectory() as root:
        old = write_tree(root, "old", [record(10)])
        new = write_tree(root, "new", [record(10)])
        proc = run_diff(old, new)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 rows compared, 0 differ" in proc.stdout


def test_moved_value_fails():
    with tempfile.TemporaryDirectory() as root:
        old = write_tree(root, "old", [record(10)])
        new = write_tree(root, "new", [record(11)])
        proc = run_diff(old, new, "--bound", "0")
        assert proc.returncode != 0, proc.stdout
        assert "EXCEEDS BOUND" in proc.stdout


def test_file_paths_refused():
    with tempfile.TemporaryDirectory() as root:
        old = write_tree(root, "old", [record(10)])
        path = os.path.join(old, "fig1.json")
        assert_refused(run_diff(path, path, "--bound", "0"),
                       "file paths", "not a directory")


def test_missing_directory_refused():
    with tempfile.TemporaryDirectory() as root:
        new = write_tree(root, "new", [record(10)])
        missing = os.path.join(root, "absent")
        assert_refused(run_diff(missing, new), "missing OLD",
                       "not a directory")
        assert_refused(run_diff(new, missing), "missing NEW",
                       "not a directory")


def test_tree_without_json_refused():
    with tempfile.TemporaryDirectory() as root:
        old = write_tree(root, "old", [record(10)])
        empty = os.path.join(root, "empty")
        os.makedirs(empty)
        with open(os.path.join(empty, "notes.txt"), "w") as f:
            f.write("no bench output here\n")
        assert_refused(run_diff(old, empty), "empty NEW", "no *.json")
        assert_refused(run_diff(empty, old), "empty OLD", "no *.json")


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
