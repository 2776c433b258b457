#!/usr/bin/env python3
"""Checks for check_experiments.py's verdicts.

Pytest-style (plain asserts, test_* functions) but runnable directly:
`python3 scripts/test_check_experiments.py`.  Stdlib only.

The real EXPERIMENTS.md must pass against the checked-in results/.  Each
case below edits a temporary copy of the doc or of results/ and must make
the checker exit non-zero with a one-line reason: a table cell off by one
in its last digit, a measured number with no declared source, a missing
results/ file, a broken shape claim and a claim reworded out of reach.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_check(root=ROOT):
    """Runs the checker of the tree at ROOT on that tree."""
    script = os.path.join(root, "scripts", "check_experiments.py")
    return subprocess.run([sys.executable, script],
                          capture_output=True, text=True, timeout=60)


def copy_tree(root):
    """Copies the checker, EXPERIMENTS.md and results/*.txt under ROOT;
    returns the copies' doc path and results directory."""
    os.makedirs(os.path.join(root, "scripts"))
    shutil.copy(os.path.join(HERE, "check_experiments.py"),
                os.path.join(root, "scripts"))
    doc = os.path.join(root, "EXPERIMENTS.md")
    shutil.copy(os.path.join(ROOT, "EXPERIMENTS.md"), doc)
    results = os.path.join(root, "results")
    os.makedirs(results)
    for name in os.listdir(os.path.join(ROOT, "results")):
        if name.endswith(".txt"):
            shutil.copy(os.path.join(ROOT, "results", name), results)
    return doc, results


def edit(path, old, new):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    assert text.count(old) == 1, f"'{old}' is not unique in {path}"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new))


def assert_reason(proc, label, needle, only=True):
    """Non-zero exit, no traceback, and a mismatch line that contains
    NEEDLE; with ONLY, that line is the one mismatch (plus the summary)."""
    out = proc.stdout + proc.stderr
    assert proc.returncode != 0, f"{label}: expected nonzero exit\n{out}"
    assert "Traceback" not in out, f"{label}: leaked a traceback:\n{out}"
    reasons = proc.stdout.splitlines()[:-1]
    assert not only or len(reasons) == 1, f"{label}: not one reason:\n{out}"
    assert any(needle in r for r in reasons), \
        f"{label}: no '{needle}' in\n{out}"


def test_real_doc_passes():
    proc = run_check()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "shape claims match" in proc.stdout, proc.stdout


def test_cell_off_by_one_in_last_digit_fails():
    with tempfile.TemporaryDirectory() as root:
        doc, results = copy_tree(root)
        edit(doc, "| EPK, trig | 102 (97) | 102 (101) | 133 (—) | 349 (350)",
             "| EPK, trig | 102 (97) | 102 (101) | 133 (—) | 348 (350)")
        assert_reason(run_check(root),
                      "cell", "[EPK, trig | 32]: doc says 348, "
                      "results/tab4_domain_access.txt gives 349")


def test_unsourced_number_fails():
    with tempfile.TemporaryDirectory() as root:
        doc, results = copy_tree(root)
        edit(doc, "- ARM 1KB original rises",
             "- VDom serves 18,507 req/s at 36 clients.\n"
             "- ARM 1KB original rises")
        assert_reason(run_check(root),
                      "unsourced", "'18,507' is a measured number with "
                      "no declared source")


def test_missing_results_file_fails():
    with tempfile.TemporaryDirectory() as root:
        doc, results = copy_tree(root)
        os.remove(os.path.join(results, "fig7_string_replace.txt"))
        assert_reason(run_check(root),
                      "missing", "results/fig7_string_replace.txt: "
                      "missing")


def test_broken_shape_claim_fails():
    with tempfile.TemporaryDirectory() as root:
        doc, results = copy_tree(root)
        # X86 libmpk at 8 clients drops below original.  No table cell or
        # claim cites that row, so only the shape claim sees it.
        edit(os.path.join(results, "fig6_mysql.txt"),
             "8        2845      2845  2699  2845 ",
             "8        2845      2845  2699  2800 ")
        assert_reason(run_check(root),
                      "shape", "shape claim broken: 'libmpk equals "
                      "original up to 12 clients")


def test_reworded_claim_fails():
    with tempfile.TemporaryDirectory() as root:
        doc, results = copy_tree(root)
        edit(doc, "ASID tagging 3.54×", "ASID-tagged TLB 3.54×")
        # Its numbers lose their source too, so they are named as well.
        assert_reason(run_check(root),
                      "reworded", "claim found 0 times: 'ASID tagging",
                      only=False)


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
