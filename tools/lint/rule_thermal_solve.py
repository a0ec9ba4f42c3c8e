"""Factored-solve discipline for the thermal linear system.

The thermal network's conductance matrix is constant for a network's
lifetime, so ThermalNetwork factors it once (partial-pivoted LU in
the constructor) and every production solve is an O(n^2) substitution
through ``solveLinear``/``solveLinearInto`` — bit-identical to dense
elimination by construction. A from-scratch dense elimination re-pays
the O(n^3) factorization per call and, worse, forks the arithmetic the
bit-identity contract is proven against. The same holds for
transients: production marches go through the exact propagator in
``advance``, and the forward-Euler stepper is only an accuracy oracle.

The historical solvers live in tests/thermal_reference.hh as test
oracles, and this rule flags their names anywhere else — the library
(src/thermal/ included), benchmarks and examples alike:

  * ``solveDense`` — the one-shot dense eliminator;
  * ``solveLinearReference`` — the bit-identity oracle of
    ``solveLinear``;
  * ``advanceEulerReference`` — the accuracy oracle of ``advance``;
  * ``solveSteadyReference`` — the scalar fixed point every lane of
    the lockstep ``solveSteady`` must match.

Sanctioned home: tests/ only. There is no annotation escape hatch.
"""

from __future__ import annotations

import re

from lint_common import Finding, line_of_offset

RULE = "thermal-solve"

_REFERENCE_RE = re.compile(
    r"\b(solveDense|solveLinearReference|advanceEulerReference|"
    r"solveSteadyReference)\b")

# The only directory where the reference solvers may appear.
_EXEMPT_PREFIX = "tests/"


def check(files):
    findings = []
    for path, sf in sorted(files.items()):
        if path.startswith(_EXEMPT_PREFIX):
            continue
        for m in _REFERENCE_RE.finditer(sf.code):
            findings.append(Finding(
                path, line_of_offset(sf.code, m.start()), RULE,
                "thermal reference solver (%s) outside tests/; solve "
                "through the factored ThermalNetwork::solveLinear / "
                "advance" % m.group(1)))
    return findings
