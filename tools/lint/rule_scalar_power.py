"""One power evaluator: counter-to-power arithmetic lives in one body.

Every power number the simulator reports comes from
``BatchedPowerEvaluator`` (src/power/batched.cc): sparse quad-dot
products over packed activity rows, then one per-(interval, variant)
assembly. A second evaluator — a scalar dense dot product over the
counters, or the per-interval ``evaluateImpl`` the batched one
replaced — forks the arithmetic the bit-identity contract is proven
against, and only comments would keep the two in step.

The scalar evaluator lives in tests/power_tree_reference.hh as the
oracle, and this rule flags its names anywhere else — the library,
benchmarks and examples alike:

  * ``dotCountersRow`` — the dense four-chain counter dot product;
  * ``dotCounters`` — its per-record wrapper;
  * ``evaluateImpl`` — the scalar per-interval evaluation.

Sanctioned home: tests/ only. There is no annotation escape hatch.
"""

from __future__ import annotations

import re

from lint_common import Finding, line_of_offset

RULE = "scalar-power"

_SCALAR_RE = re.compile(r"\b(dotCountersRow|dotCounters|evaluateImpl)\b")

# The only directory where the scalar evaluator may appear.
_EXEMPT_PREFIX = "tests/"


def check(files):
    findings = []
    for path, sf in sorted(files.items()):
        if path.startswith(_EXEMPT_PREFIX):
            continue
        for m in _SCALAR_RE.finditer(sf.code):
            findings.append(Finding(
                path, line_of_offset(sf.code, m.start()), RULE,
                "scalar power evaluator (%s) outside tests/; compute "
                "power through BatchedPowerEvaluator" % m.group(1)))
    return findings
