"""Factored-solve discipline for the thermal linear system.

The thermal network's conductance matrix is constant for a network's
lifetime, so ThermalNetwork factors it once (partial-pivoted LU in
the constructor) and every production solve is an O(n^2) substitution
through ``solveLinear``/``solveLinearInto`` — bit-identical to dense
elimination by construction. A from-scratch dense elimination outside
the solver re-pays the O(n^3) factorization per call and, worse,
forks the arithmetic the bit-identity contract is proven against.
The same holds for transients: production marches go through the
exact propagator in ``advance``, and the forward-Euler stepper is kept
only as an accuracy oracle. This rule flags the reference escape
hatches outside their sanctioned homes:

  * ``solveDense`` — the file-local reference eliminator inside
    src/thermal/thermal.cc (nothing else may grow one);
  * ``solveLinearReference`` — its public face, exposed only so tests
    and benchmarks can prove the factored path bit-identical and
    price the pre-factorization cost;
  * ``advanceEulerReference`` — the forward-Euler oracle, exposed only
    so tests can bound the exact propagator and benchmarks can price
    the pre-propagator march.

Sanctioned homes: src/thermal/ owns all three; tests/ may call the
reference oracles freely (that is what they are for).

Escape hatch for a deliberate use elsewhere (e.g. a benchmark's
pre-factorization replica): `// lint: thermal-solve-ok(<reason>)`
above the line.
"""

from __future__ import annotations

import re

from lint_common import Finding, line_of_offset

RULE = "thermal-solve"
KIND = "thermal-solve-ok"

_REFERENCE_RE = re.compile(
    r"\b(solveDense|solveLinearReference|advanceEulerReference)\b")

# Directories where the reference solvers are the sanctioned idiom.
_EXEMPT_PREFIXES = ("src/thermal/", "tests/")


def check(files):
    findings = []
    for path, sf in sorted(files.items()):
        if path.startswith(_EXEMPT_PREFIXES):
            continue
        for m in _REFERENCE_RE.finditer(sf.code):
            line = line_of_offset(sf.code, m.start())
            if sf.annotated(KIND, line):
                continue
            findings.append(Finding(
                path, line, RULE,
                "thermal reference solver (%s) outside src/thermal; "
                "solve through the factored ThermalNetwork::"
                "solveLinear / advance, or annotate with lint: "
                "thermal-solve-ok(reason)" % m.group(1)))
    return findings
