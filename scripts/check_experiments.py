#!/usr/bin/env python3
"""Checks EXPERIMENTS.md against the checked-in bench stdout in results/.

Usage: scripts/check_experiments.py

Reads EXPERIMENTS.md and results/ next to the scripts/ directory it
lives in, so a copy of the three in a scratch tree checks that tree.

Every bench has one size, and CI diffs its stdout byte for byte against
results/<bench>.txt.  This script closes the last gap, between those
files and the prose that cites them.  It checks three things:

- Table cells.  Each markdown table in the doc is declared in TABLES
  below: which bench's stdout table it shows, whether it is transposed,
  and how its labels map onto the stdout labels.  Every cell's measured
  value (the part before any "(paper)") must equal the stdout value
  rounded half-up to the precision the doc prints.
- Prose numbers.  Each measured number in the prose sits in one of the
  CLAIMS below: a phrase of the doc with "{}" at each measured number,
  and the results it must equal (a range "{}–{}" is min/max over the
  rows the phrase names).
- Shape claims.  Each phrase in SHAPES must appear in the doc, and its
  predicate over results/ must hold.

Any other number in the doc must be visibly not a measurement: part of
a name (Table 4, §7.5, X86, 2MB, 26-core), a count of a configured axis
("48 clients", "8 idle VDSes"), or a paper value (inside a parenthesis
that starts with "paper", or a sentence that starts with "Paper").
Anything else is a measured number with no declared source.

Prints one line per mismatch and exits 1 when there is any; exits 0
with a one-line summary when the doc matches.
"""

import argparse
import os
import re
import sys
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --- results/ ---------------------------------------------------------------


class Missing(Exception):
    """A results/ file, table, row or column the doc refers to is absent."""


class MissingFile(Missing):
    pass


def number(text):
    """Decimal value of a printed number ("1,593", "−1.18%", "3.54x"),
    or None when the text is not a number ("undefined", "n/a")."""
    text = text.strip().strip("*~").replace("−", "-").replace(",", "")
    text = re.sub(r"[%x×]$", "", text)
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


def measured(cell):
    """The measured part of a "measured (paper)" cell."""
    return cell.split(" (")[0].strip().strip("*")


def paper(cell):
    """The paper part of a "measured (paper)" cell, or None."""
    m = re.search(r"\(([^)]*)\)", cell)
    return number(m.group(1)) if m else None


class Table:
    """One sim::Table block of bench stdout: columns are separated by at
    least two spaces."""

    def __init__(self, where, header, rows):
        self.where = where
        self.header = header
        self.body = rows
        self.rows = {row[0]: row for row in rows}

    def labels(self):
        return list(self.rows)

    def cell(self, row, col):
        if row not in self.rows:
            raise Missing(f"{self.where}: no row '{row}'")
        if col not in self.header:
            raise Missing(f"{self.where}: no column '{col}'")
        return self.rows[row][self.header.index(col)]

    def value(self, row, col):
        return number(measured(self.cell(row, col)))

    def column(self, col):
        return [self.value(row, col) for row in self.labels()]


class Results:
    def __init__(self, root):
        self.root = root
        self.texts = {}

    def text(self, bench):
        if bench not in self.texts:
            path = os.path.join(self.root, bench + ".txt")
            if not os.path.isfile(path):
                raise MissingFile(f"results/{bench}.txt: missing")
            with open(path, encoding="utf-8") as f:
                self.texts[bench] = f.read()
        return self.texts[bench]

    def table(self, bench, title):
        """The one table of BENCH whose "== title ==" line starts with
        TITLE."""
        lines = self.text(bench).splitlines()
        found = []
        for i, line in enumerate(lines):
            if line.startswith("== " + title) and i + 2 < len(lines):
                rows = []
                for row in lines[i + 3:]:
                    if not row.strip():
                        break
                    rows.append(re.split(r"\s{2,}", row.strip()))
                header = re.split(r"\s{2,}", lines[i + 1].strip())
                found.append(Table(f"results/{bench}.txt '{title}'",
                                   header, rows))
        if len(found) != 1:
            raise Missing(f"results/{bench}.txt: {len(found)} tables "
                          f"titled '{title}'")
        return found[0]

    def line(self, bench, pattern):
        """Group 1 of PATTERN's match in BENCH's stdout, as a number."""
        m = re.search(pattern, self.text(bench))
        if not m:
            raise Missing(f"results/{bench}.txt: no line matching "
                          f"'{pattern}'")
        return number(m.group(1))


# --- what the doc cites -----------------------------------------------------


class DocTable:
    """A doc table and the stdout table it shows.  TRANSPOSE: the doc's
    rows are stdout columns.  ROWS/COLS map doc labels onto stdout labels
    where the wording differs."""

    def __init__(self, section, bench, title, transpose=False, rows=None,
                 cols=None):
        self.section, self.bench, self.title = section, bench, title
        self.transpose = transpose
        self.rows, self.cols = rows or {}, cols or {}


TABLES = [
    DocTable("Table 3", "tab3_micro_ops", "Table 3:",
             cols={"X86 measured (paper)": "X86 cycles",
                   "ARM measured (paper)": "ARM cycles"}),
    DocTable("Table 3", "tab3_micro_ops", "Section 7.5:",
             cols={"X86 measured (paper)": "X86 cycles",
                   "ARM measured (paper)": "ARM cycles"}),
    DocTable("Table 4", "tab4_domain_access", "Table 4:",
             rows={"VDom X86 fast, seq": "VDom X86f seq",
                   "VDom X86 fast, trig": "VDom X86f trig",
                   "VDom X86 secure, seq": "VDom X86s seq",
                   "VDom X86 secure, trig": "VDom X86s trig",
                   "VDom X86 eviction, seq": "VDom X86e seq",
                   "libmpk, seq": "libmpk seq",
                   "EPK, seq": "EPK seq",
                   "EPK, trig": "EPK trig",
                   "VDom ARM, seq": "VDom ARM seq",
                   "VDom ARM, trig": "VDom ARM trig",
                   "VDom ARM eviction, seq": "VDom ARMe seq"}),
    DocTable("Table 5", "tab5_memsync", "Table 5:",
             rows={"X86 measured (paper)": "X86 overhead (%)",
                   "ARM measured (paper)": "ARM overhead (%)"}),
    DocTable("Figure 1", "fig1_libmpk_breakdown", "Figure 1:",
             transpose=True,
             rows={"mem+metadata mgmt": "memory+metadata mgmt",
                   "total": "total overhead"}),
    DocTable("Figure 5", "fig5_httpd", "Figure 5: httpd throughput, X86 1KB",
             transpose=True, rows={"EPK (in VM)": "EPK"}),
    DocTable("Figure 6", "fig6_mysql", "Figure 6: MySQL throughput, X86",
             transpose=True),
    DocTable("Figure 7", "fig7_string_replace",
             "Figure 7: String Replace overhead vs original, X86"),
]


class Every:
    """Each of VALUES must round to the one number the doc prints."""

    def __init__(self, values):
        self.values = list(values)


def span(values):
    values = list(values)
    return [min(values), max(values)]


def pct(ratio):
    return Decimal(str(ratio)) * 100


def fig5(r, panel):
    return r.table("fig5_httpd", f"Figure 5: httpd throughput, {panel} ")


X86_FIG5 = ("X86 1KB", "X86 64KB", "X86 128KB")
ARM_FIG5 = ("ARM 1KB", "ARM 64KB", "ARM 128KB")


def fig5_overheads(r, panels):
    return [v for p in panels for v in fig5(r, p).column("VDom ovh")]


def fig6(r, arch):
    return r.table("fig6_mysql", f"Figure 6: MySQL throughput, {arch} ")


def fig7(r, arch):
    return r.table("fig7_string_replace",
                   f"Figure 7: String Replace overhead vs original, {arch} ")


def below(t, row, col, base="original"):
    """Percent by which COL trails BASE in ROW."""
    return pct(1 - t.value(row, col) / t.value(row, base))


def rows_from(t, lo=0, hi=None):
    """Numeric row labels of T in [lo, hi]."""
    return [row for row in t.labels()
            if lo <= int(row) and (hi is None or int(row) <= hi)]


def epk_trail(r, lo=0, hi=None):
    t = fig6(r, "X86")
    return [below(t, row, "EPK") for row in rows_from(t, lo, hi)]


def tab4(r, row, vdoms):
    return r.table("tab4_domain_access", "Table 4:").value(row, vdoms)


def ctx_extra(r, col):
    t = r.table("tab3_micro_ops", "Section 7.5:")
    return pct(t.value("switch_mm from VDom process", col) /
               t.value("switch_mm, plain process", col) - 1)


def unixbench_scores(r):
    t = r.table("tab_unixbench", "Section 7.3")
    return Every(t.value(row, col) for row in t.labels()
                 for col in t.header[1:])


def ablation(r, prefix):
    t = r.table("ablation_design", "Ablation:")
    rows = [row for row in t.labels() if row.startswith(prefix)]
    if len(rows) != 1:
        raise Missing(f"{t.where}: {len(rows)} rows start with '{prefix}'")
    return t.value(rows[0], "slowdown")


# (section, doc phrase with "{}" at each measured number, results -> values)
CLAIMS = [
    ("Table 3",
     "From a VDom process, switch_mm costs {}% (X86) and {}% (ARM) more",
     lambda r: [ctx_extra(r, "X86 cycles"), ctx_extra(r, "ARM cycles")]),
    ("Table 4", "libmpk's cliff at 16 keys is {}× its 15-key cost",
     lambda r: [tab4(r, "libmpk seq", "16") / tab4(r, "libmpk seq", "15")]),
    ("Table 4", "({} and {} cycles at 32 and 64 keys)",
     lambda r: [tab4(r, "EPK trig", n) for n in ("32", "64")]),
    ("Table 4", "one domain over costs {} cycles against the full thrash's {}",
     lambda r: [tab4(r, "VDom X86e seq", n) for n in ("16", "32")]),
    ("Table 4", "the X86-fast trig cell at 16 vdoms reads {} cycles",
     lambda r: [tab4(r, "VDom X86f trig", "16")]),
    ("Table 5", "8 idle VDSes measure {}% overhead",
     lambda r: [r.line("tab5_memsync",
                       r"8 idle VDSes, allocator-only: ([\d.]+)% overhead")]),
    ("Figure 1", "{}% total at 32 clients",
     lambda r: [r.table("fig1_libmpk_breakdown", "Figure 1:").value(
         "32", "total overhead")]),
    ("Figure 5", "VDom overhead: {}–{}% across all X86 panels",
     lambda r: span(fig5_overheads(r, X86_FIG5))),
    ("Figure 5", "On ARM it spans {}% to {}%",
     lambda r: span(fig5_overheads(r, ARM_FIG5))),
    ("Figure 5", "ARM 64KB reads {}% at 24 clients",
     lambda r: [fig5(r, "ARM 64KB").value("24", "VDom ovh")]),
    ("Figure 5", "Lowerbound (all keys in ONE domain): {}–{}% on X86",
     lambda r: span(pct(fig5(r, p).value(row, "original") /
                        fig5(r, p).value(row, "lowerbound") - 1)
                    for p in X86_FIG5 for row in fig5(r, p).labels())),
    ("Figure 5", "{}–{}% below original in the 1KB panel",
     lambda r: span(below(fig5(r, "X86 1KB"), row, "EPK")
                    for row in fig5(r, "X86 1KB").labels())),
    ("Figure 5", "trails original by at most {}% up to 16 clients",
     lambda r: [max(below(fig5(r, "X86 1KB"), row, "libmpk")
                    for row in rows_from(fig5(r, "X86 1KB"), hi=16))]),
    ("Figure 5", "collapses to {}× slower at 48 clients",
     lambda r: [fig5(r, "X86 1KB").value("48", "original") /
                fig5(r, "X86 1KB").value("48", "libmpk")]),
    ("Figure 5", "ARM 1KB original rises {} → {} req/s across 4–24 clients",
     lambda r: [fig5(r, "ARM 1KB").value(n, "original")
                for n in ("4", "24")]),
    ("Figure 6", "VDom: {}–{}% overhead",
     lambda r: span(fig6(r, "X86").column("VDom ovh"))),
    ("Figure 6", "and {}% to {}% on ARM",
     lambda r: span(fig6(r, "ARM").column("VDom ovh"))),
    ("Figure 6", "decays to {}% below original at 48 clients",
     lambda r: [below(fig6(r, "X86"), "48", "libmpk")]),
    ("Figure 6", "EPK: {}–{}% below original",
     lambda r: span(epk_trail(r))),
    ("Figure 6", "EPK trails by {}–{}% from 16 clients on and by {}% below",
     lambda r: span(epk_trail(r, lo=16)) + [Every(epk_trail(r, hi=12))]),
    ("Figure 6", "ARM original rises {} → {} q/s over 4–24 clients",
     lambda r: [fig6(r, "ARM").value(n, "original") for n in ("4", "24")]),
    ("Figure 7", "VDS switch reads {}–{}% (paper 7.03%) and VDom evict {}% "
     "(paper 16.21%) on X86",
     lambda r: span(fig7(r, "X86").column("VDS switch")) +
     [Every(fig7(r, "X86").column("VDom evict"))]),
    ("Figure 7", "with 4KB pages it runs {}× slower than unprotected at 8 "
     "threads",
     lambda r: [1 + fig7(r, "X86").value("8", "libmpk 4KB") / 100]),
    ("Figure 7", "ARM: lowerbound {}% (paper 4.97%), VDS switch {}–{}% "
     "(paper 6.15%), eviction {}% (paper 13.31%)",
     lambda r: [Every(fig7(r, "ARM").column("lowerbound"))] +
     span(fig7(r, "ARM").column("VDS switch")) +
     [Every(fig7(r, "ARM").column("VDom evict"))]),
    ("Ablation", "ASID tagging {}×, PMD fast path {}×, CPU-bitmap shootdown "
     "narrowing {}×, HLRU remap-to-same-pdom {}×",
     lambda r: [ablation(r, p) for p in ("ASID-tagged TLB", "PMD fast path",
                                         "CPU-bitmap shootdown",
                                         "HLRU remap")]),
    ("Scaling", "From 100 to 100,000 live vdoms: vdom_alloc stays at {} "
     "cycles, vdom_mprotect at {}, hot-set wrvdr at {}",
     lambda r: [Every(r.table("scaling_unlimited", "Scaling:").column(c))
                for c in ("vdom_alloc cy", "vdom_mprotect cy",
                          "hot wrvdr cy")]),
    ("Scaling", "({} leaves at 100k vdoms)",
     lambda r: [r.table("scaling_unlimited", "Scaling:").value(
         "100000", "VDT leaves")]),
    ("Summary of known deviations", "EPK's in-VM loss at saturation is "
     "{}–{}%",
     lambda r: span(epk_trail(r, lo=16))),
    ("Summary of known deviations", "every suite scores exactly {}%",
     lambda r: [unixbench_scores(r)]),
]


def composites_within(r, bound):
    """Every eviction and VDS-switch row is within BOUND of the paper."""
    t = r.table("tab3_micro_ops", "Table 3:")
    worst = []
    for row in t.labels():
        if "eviction" in row or "VDS switch" in row:
            for col in ("X86 cycles", "ARM cycles"):
                got, want = number(measured(t.cell(row, col))), paper(
                    t.cell(row, col))
                if abs(got / want - 1) > bound:
                    worst.append(f"{row}, {col}: {got} vs {want}")
    return "; ".join(worst) or None


def x86f_seq_jump(r):
    v = {n: tab4(r, "VDom X86f seq", n) for n in ("3", "4", "15", "16")}
    if not (v["3"] == v["4"] == v["15"] and v["16"] >= Decimal("1.5") *
            v["15"]):
        return f"3/4/15/16 vdoms read {v['3']}/{v['4']}/{v['15']}/{v['16']}"
    return None


def arm_seq_rise(r):
    v = {n: tab4(r, "VDom ARM seq", n) for n in ("3", "4", "15")}
    if not v["3"] == v["4"] < v["15"]:
        return f"3/4/15 vdoms read {v['3']}/{v['4']}/{v['15']}"
    return None


def fig1_wedges(r):
    t = r.table("fig1_libmpk_breakdown", "Figure 1:")
    wedges = ("busy waiting", "TLB shootdown", "memory+metadata mgmt")
    for row in t.labels():
        largest = max(wedges, key=lambda w: t.value(row, w))
        want = "TLB shootdown" if int(row) <= 16 else "busy waiting"
        if largest != want:
            return f"{row} clients: largest wedge is {largest}"
    return None


def fig1_knee(r):
    """The steepest step of the total overhead is from 20 to 24 clients."""
    t = r.table("fig1_libmpk_breakdown", "Figure 1:")
    rows = t.labels()
    steps = [(t.value(b, "total overhead") / t.value(a, "total overhead"),
              a, b) for a, b in zip(rows, rows[1:])]
    _, a, b = max(steps)
    if (a, b) != ("20", "24"):
        return f"the steepest step is {a} -> {b} clients"
    return None


def fig5_x86_under(r, bound):
    over = [f"{p} {row}: {t.cell(row, 'VDom ovh')}" for p in X86_FIG5
            for t in [fig5(r, p)] for row in t.labels()
            if t.value(row, "VDom ovh") >= bound]
    return "; ".join(over) or None


def fig5_no_file_size_growth(r):
    """No larger-file X86 panel peaks above the 1KB panel."""
    top = {p: max(fig5(r, p).column("VDom ovh")) for p in X86_FIG5}
    grew = [f"{p} peaks at {v}% > {top['X86 1KB']}%"
            for p, v in top.items() if v > top["X86 1KB"]]
    return "; ".join(grew) or None


def fig6_libmpk_collapse(r):
    t = fig6(r, "X86")
    for row in t.labels():
        lib, orig = t.value(row, "libmpk"), t.value(row, "original")
        if (int(row) <= 12 and lib != orig) or (int(row) >= 16 and
                                                lib >= orig):
            return f"{row} clients: libmpk {lib} vs original {orig}"
    return None


def fig7_evict_flat(r):
    for arch in ("X86", "ARM"):
        values = set(fig7(r, arch).column("VDom evict"))
        if len(values) != 1:
            return f"{arch} VDom evict takes {sorted(values)}"
    return None


def fig7_libmpk_superlinear(r):
    t = fig7(r, "X86")
    for col in ("libmpk 4KB", "libmpk 2MB"):
        if t.value("8", col) <= 8 * t.value("1", col):
            return f"{col}: {t.value('1', col)}% -> {t.value('8', col)}%"
    return None


def unixbench_parity(r):
    scores = set(unixbench_scores(r).values)
    return None if scores == {Decimal("100.0")} else f"scores {sorted(scores)}"


def sandbox_all_blocked(r):
    t = r.table("tab2_sandbox", "Table 2:")
    result = t.header.index("Result")
    open_rows = [" ".join(row) for row in t.body
                 if row[result] != "attack blocked"]
    return "; ".join(open_rows) or None


# (section, doc phrase, results -> None when it holds, else why not)
SHAPES = [
    ("Table 3", "All within ±7% of the paper",
     lambda r: composites_within(r, Decimal("0.07"))),
    ("Table 4", "the X86-fast seq row jumps between 15 and 16 vdoms",
     x86f_seq_jump),
    ("Table 4", "on ARM the seq row first rises at 15 vdoms", arm_seq_rise),
    ("Table 2", "All three ported defense classes block their attacks",
     sandbox_all_blocked),
    ("§7.3", "score 100.0% of the stock kernel on both architectures",
     unixbench_parity),
    ("Figure 1", "TLB shootdown is the largest wedge up to 16 clients and "
     "busy waiting from 20 on", fig1_wedges),
    ("Figure 1", "The knee falls between 20 and 24 clients", fig1_knee),
    ("Figure 5", "VDom overhead stays under 0.3% in every X86 row",
     lambda r: fig5_x86_under(r, Decimal("0.3"))),
    ("Figure 5", "do not grow with file size", fig5_no_file_size_growth),
    ("Figure 6", "libmpk equals original up to 12 clients and falls below "
     "it from 16 on", fig6_libmpk_collapse),
    ("Figure 7", "on X86, libmpk's overhead grows superlinearly with threads "
     "in both page configurations", fig7_libmpk_superlinear),
    ("Figure 7", "VDom evict is flat in thread count", fig7_evict_flat),
]

# --- the doc ----------------------------------------------------------------

# A sign is "−" or "+": an ASCII hyphen is a range ("5-6%") or a name.
NUM = r"[−+]?\d{1,3}(?:,\d{3})+(?:\.\d+)?|[−+]?\d+(?:\.\d+)?"
# Counted inputs: "48 clients", "8 idle VDSes", "4–24 clients".
AXES = (r"vdoms|clients|threads|keys|VDSes|cores|domains|pdoms|requests|"
        r"stacks|ids|PMOs|connections")
AXIS_COUNT = re.compile(r"(?:\s*(?:–|to)\s*" + NUM + r")?\s+(?:\w+\s+)?(?:"
                        + AXES + r")\b")
NAME_PREFIX = re.compile(r"(?:[\w§#^.]|Table |Figure |Fig\. )$")


class Doc:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.text = f.read()
        self.sections = []  # (heading, start, end)
        heads = [m for m in re.finditer(r"^##+ (.*)$", self.text, re.M)]
        for i, m in enumerate(heads):
            end = heads[i + 1].start() if i + 1 < len(heads) else len(
                self.text)
            self.sections.append((m.group(1), m.start(), end))
        self.tables = []  # (section, start, end, [(line, [cells])])
        for m in re.finditer(r"(?:^\|.*\n?)+", self.text, re.M):
            first = self.line_of(m.start())
            rows = [(first + i, [c.strip() for c in
                                 line.strip().strip("|").split("|")])
                    for i, line in enumerate(m.group(0).splitlines())]
            rows = [(n, r) for n, r in rows
                    if not all(set(c) <= set("-:") for c in r)]
            self.tables.append((self.section_at(m.start()), m.start(),
                                m.end(), rows))

    def line_of(self, offset):
        return self.text.count("\n", 0, offset) + 1

    def where(self, offset):
        return f"{os.path.basename(self.path)}:{self.line_of(offset)}"

    def section_at(self, offset):
        for heading, start, end in self.sections:
            if start <= offset < end:
                return heading
        return ""

    def section(self, name):
        hits = [(s, e) for h, s, e in self.sections if h.startswith(name)]
        if len(hits) != 1:
            raise Missing(f"{len(hits)} sections headed '{name}'")
        return hits[0]

    def find(self, section, phrase):
        """Matches of PHRASE in SECTION, whitespace-insensitive, with a
        number group at each "{}"."""
        parts = []
        for piece in re.split(r"(\{\}|\s+)", phrase):
            if piece == "{}":
                parts.append(f"({NUM})")
            elif piece.isspace():
                parts.append(r"\s+")
            elif piece:
                parts.append(re.escape(piece))
        start, end = self.section(section)
        return list(re.compile("".join(parts)).finditer(self.text, start,
                                                        end))


def rounds_to(doc_number, value):
    """True when VALUE rounded half-up to DOC_NUMBER's precision equals
    DOC_NUMBER."""
    fraction = re.search(r"\.(\d+)", doc_number)
    places = len(fraction.group(1)) if fraction else 0
    got = Decimal(str(value)).quantize(Decimal(1).scaleb(-places),
                                       rounding=ROUND_HALF_UP)
    return number(doc_number) == got


def shown(value):
    """VALUE as a mismatch line prints it: at most four decimals."""
    value = Decimal(str(value))
    if value.as_tuple().exponent < -4:
        value = value.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
    return f"{value:f}"


class Checker:
    def __init__(self, doc, results):
        self.doc, self.results = doc, results
        self.name = os.path.basename(doc.path)
        self.errors = []
        self.covered = []  # (start, end) spans whose numbers are sourced
        self.counts = {"cells": 0, "claims": 0, "shapes": 0}

    def fail(self, line):
        if line not in self.errors:
            self.errors.append(line)

    def missing(self, where, e):
        """A missing results/ file is one line however often it is cited."""
        self.fail(str(e) if isinstance(e, MissingFile) else f"{where}: {e}")

    def check_tables(self):
        declared, seen = {}, {}
        for decl in TABLES:
            declared.setdefault(decl.section, []).append(decl)
        for section, start, end, rows in self.doc.tables:
            self.covered.append((start, end))
            key = next((k for k in declared if section.startswith(k)), None)
            n = seen[key] = seen.get(key, -1) + 1
            if key is None or n >= len(declared[key]):
                self.fail(f"{self.doc.where(start)}: table in '{section}' "
                          "has no declared source")
                continue
            self.check_table(declared[key][n], start, rows)

    def check_table(self, decl, start, rows):
        try:
            table = self.results.table(decl.bench, decl.title)
        except Missing as e:
            self.missing(self.doc.where(start), e)
            return
        header = rows[0][1]
        for line, row in rows[1:]:
            label = row[0].strip("*")
            for col, cell in zip(header[1:], row[1:]):
                col = col.strip("*")
                r, c = decl.rows.get(label, label), decl.cols.get(col, col)
                if decl.transpose:
                    r, c = c, r
                where = (f"{self.name}:{line}: {decl.section} "
                         f"[{label} | {col}]")
                try:
                    source = measured(table.cell(r, c))
                except Missing as e:
                    self.missing(where, e)
                    continue
                self.counts["cells"] += 1
                doc_value = measured(cell).rstrip("*")
                ok = (rounds_to(doc_value, number(source))
                      if number(doc_value) is not None and
                      number(source) is not None else doc_value == source)
                if not ok:
                    self.fail(f"{where}: doc says {doc_value}, "
                              f"results/{decl.bench}.txt gives {source}")

    def find_once(self, kind, section, phrase):
        """The one match of PHRASE in SECTION, now counted as sourced."""
        try:
            hits = self.doc.find(section, phrase)
        except Missing as e:
            self.fail(f"{self.name}: {kind} '{phrase}': {e}")
            return None
        if len(hits) != 1:
            self.fail(f"{self.name} '{section}': {kind} found {len(hits)} "
                      f"times: '{phrase}'")
            return None
        self.covered.append(hits[0].span())
        self.counts[kind + "s"] += 1
        return hits[0]

    def check_claims(self):
        for section, phrase, source in CLAIMS:
            m = self.find_once("claim", section, phrase)
            if m is None:
                continue
            try:
                values = source(self.results)
            except Missing as e:
                self.missing(f"{self.doc.where(m.start())}: '{phrase}'", e)
                continue
            for k, value in enumerate(values, start=1):
                doc_value = m.group(k)
                wanted = value.values if isinstance(value, Every) else [value]
                bad = [v for v in wanted if not rounds_to(doc_value, v)]
                if bad:
                    self.fail(f"{self.doc.where(m.start(k))}: {section}: "
                              f"doc says {doc_value}, results/ give "
                              f"{shown(bad[0])} in '{phrase}'")

    def check_shapes(self):
        for section, phrase, predicate in SHAPES:
            m = self.find_once("shape", section, phrase)
            if m is None:
                continue
            try:
                broken = predicate(self.results)
            except Missing as e:
                self.missing(f"{self.doc.where(m.start())}: '{phrase}'", e)
                continue
            if broken:
                self.fail(f"{self.doc.where(m.start())}: shape claim "
                          f"broken: '{phrase}' ({broken})")

    def check_unsourced(self):
        chars = list(self.doc.text)
        code = [m.span() for m in re.finditer(r"`[^`\n]*`", self.doc.text)]
        for lo, hi in self.covered + code + paper_spans(self.doc.text):
            chars[lo:hi] = " " * (hi - lo)
        text = "".join(chars)
        for m in re.finditer(NUM, text):
            if not is_name_or_input(text, m):
                self.fail(f"{self.doc.where(m.start())}: '{m.group()}' is a "
                          "measured number with no declared source")

    def run(self):
        self.check_tables()
        self.check_claims()
        self.check_shapes()
        self.check_unsourced()
        return self.errors


def is_name_or_input(text, m):
    """True when the number M is part of a name (X86, §7.5, Table 4, 2MB,
    26-core, a list item's "1.") or counts a configured axis."""
    line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
    after = text[m.end():]
    return bool(NAME_PREFIX.search(text[max(0, m.start() - 7):m.start()])
                or re.match(r"-?(?!pp\b|x\b|cy\b)[A-Za-z]", after)
                or (not line.strip() and after.startswith(". "))
                or AXIS_COUNT.match(after))


def paper_spans(text):
    """Spans that quote the paper: a parenthesis whose text starts with
    "paper" or "the paper", and a sentence that starts with "Paper"."""
    spans = []
    stack = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")" and stack:
            start = stack.pop()
            if re.match(r"\((?:the )?paper", text[start:start + 11], re.I):
                spans.append((start, i + 1))
    for m in re.finditer(r"(?:^|(?<=[.:!?] )|(?<=\n))Paper\b.*?"
                         r"(?:\.(?=\s)|\Z)", text, re.S):
        spans.append(m.span())
    return spans


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    checker = Checker(Doc(os.path.join(ROOT, "EXPERIMENTS.md")),
                      Results(os.path.join(ROOT, "results")))
    errors = checker.run()
    for line in errors:
        print(line)
    if errors:
        print(f"check_experiments: {len(errors)} mismatch(es) between "
              "EXPERIMENTS.md and results/")
        return 1
    c = checker.counts
    print(f"check_experiments: {c['cells']} table cells, {c['claims']} "
          f"claims and {c['shapes']} shape claims match results/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
