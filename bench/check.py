"""Output checks against the pinned references in ``refs.json``.

Exact outputs must equal the reference; float outputs must lie within
``FLOAT_TOL`` of it; exact channel CSVs must match byte for byte.  A
``check`` task passes only with exit 0 and no FAIL line, a malformed
input only with exit 1 and no exception, and a sweep repeated within a
run must print the same bytes each time.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import abo_key, value_key

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def histogram_counts(label: str, k: int) -> tuple:
    """Histogram of a dataset label ("aab") or a histogram label ("a2:b1")."""
    if ":" in label:
        return tuple(int(part[1:]) for part in label.split(":"))
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(label.count(letters[j]) for j in range(k))


class Checker:
    """Checks one task's output; remembers sweep outputs across a run."""

    def __init__(self, refs: dict, tol: float):
        self.refs = refs
        self.tol = tol
        self.sweeps = {}

    def missing(self, task) -> list:
        return [key for key in task.refs if key not in self.refs]

    def __call__(self, task, rc, out: str, value=None) -> str:
        """Empty string when the output is right, else what is wrong."""
        kind = task.expect[0]
        if kind == "usage":
            return "" if rc == 1 else "exit %r, want 1" % rc
        if kind == "check":
            if rc != 0:
                return "exit %r, want 0" % rc
            fails = [line for line in out.splitlines() if line.startswith("FAIL")]
            return "; ".join(fails)
        if kind.startswith("lib") or kind == "wide":
            return self._lib(task, value)
        if rc != 0:
            return "exit %r, want 0" % rc
        return getattr(self, "_" + kind.replace("-", "_"))(task, out)

    # -- scalars -----------------------------------------------------------

    def _value(self, key: str, text: str, exact: bool, scale=1) -> str:
        ref = self.refs[key]
        if exact:
            want = str(Fraction(ref["x"]) * scale)
            return "" if text == want else "%s: got %s, want %s" % (key, text, want)
        got = float(text)
        want = float(ref["f"]) * scale
        if math.isfinite(got) and abs(got - want) <= self.tol * abs(scale):
            return ""
        return "%s: got %r, want %r" % (key, got, want)

    def _vuln(self, task, out):
        _, key, k = task.expect
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        exact = task.mode == "exact"
        errors = [
            self._value(key, fields["posterior_v"], exact),
            self._value(key, fields["mult_leakage"], exact, scale=k),
        ]
        ref = self.refs[key]
        prior = Fraction(1, k)
        if exact:
            want = str(Fraction(ref["x"]) - prior)
            if fields["add_leakage"] != want:
                errors.append("add_leakage %s, want %s" % (fields["add_leakage"], want))
        elif abs(float(fields["add_leakage"]) - (float(ref["f"]) - 1 / k)) > self.tol:
            errors.append("add_leakage %s off" % fields["add_leakage"])
        return "; ".join(e for e in errors if e)

    def _sweep(self, task, out):
        digest = sha256(out)
        previous = self.sweeps.setdefault(task.argv, digest)
        if previous != digest:
            return "repeated sweep printed different bytes"
        lines = out.splitlines()
        if lines[0] != "mechanism,n,k,p,method,posterior_v":
            return "bad header"
        if len(lines) - 1 != len(task.refs):
            return "%d rows, want %d" % (len(lines) - 1, len(task.refs))
        for line in lines[1:]:
            mech, n, k, p, _, v = line.split(",")
            key = value_key(mech, int(k), int(n), Fraction(p) if p else None)
            error = self._value(key, v, task.mode == "exact")
            if error:
                return error
        return ""

    def _abo(self, task, out):
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        return self._value(task.expect[1], fields["abo_posterior_v"], task.mode == "exact")

    def _abo_sweep(self, task, out):
        n = task.expect[1]
        lines = out.splitlines()[1:]
        if len(lines) != n:
            return "%d rows, want %d" % (len(lines), n)
        for known_a, line in enumerate(lines):
            _, p, v = line.split(",")
            error = self._value(abo_key(n, Fraction(p), known_a), v,
                                task.mode == "exact")
            if error:
                return error
        return ""

    # -- channels ----------------------------------------------------------

    def _csv(self, task, out):
        want = self.refs[task.expect[1]]["sha256"]
        return "" if sha256(out) == want else "CSV differs from the pinned exact dump"

    def _csv_float(self, task, out):
        """Entry (x, y) of ns and sn is R[h(x), h(y)] / #h(y), where R is the
        exact histogram-level noise channel; krr-reduced is R itself."""
        _, key, kind, k, n = task.expect
        ref = self.refs[key]
        hists = [tuple(h) for h in ref["hists"]]
        index = {h: i for i, h in enumerate(hists)}
        R = [[Fraction(e) for e in row] for row in ref["x"]]
        sizes = [math.factorial(n) // math.prod(math.factorial(c) for c in h)
                 for h in hists]
        reduced = kind == "krr-reduced"
        want = [[float(R[i][j] if reduced else R[i][j] / sizes[j])
                 for j in range(len(hists))] for i in range(len(hists))]
        lines = out.splitlines()
        cols = [index[histogram_counts(c, k)] for c in lines[0].split(",")[1:]]
        expected_rows = len(hists) if reduced else k**n
        if len(lines) - 1 != expected_rows or len(cols) != expected_rows:
            return "shape %dx%d, want %dx%d" % (len(lines) - 1, len(cols),
                                                 expected_rows, expected_rows)
        for line in lines[1:]:
            label, *entries = line.split(",")
            row = want[index[histogram_counts(label, k)]]
            for j, text in zip(cols, entries):
                if not abs(float(text) - row[j]) <= self.tol:
                    return "entry (%s, %d) = %s, want %r" % (label, j, text, row[j])
        return ""

    # -- library calls -----------------------------------------------------

    def _lib(self, task, value):
        kind = task.expect[0]
        if kind == "lib-bool":
            want = self.refs[task.expect[1]]["bool"]
            return "" if value is want else "got %r, want %r" % (value, want)
        if kind == "lib-value":
            want = float(self.refs[task.expect[1]]["f"])
        else:  # wide
            want = 2 / 3 if task.expect[1] == "two-thirds" else 0.5
            if task.expect[1] == "independent-pair":
                return "" if value is True else "got %r, want True" % (value,)
        canonical, direct = value
        errors = []
        for name, got in (("canonical", canonical), ("direct", direct)):
            if not abs(got - want) <= self.tol:
                errors.append("%s V %r, want %r" % (name, got, want))
        return "; ".join(errors)
