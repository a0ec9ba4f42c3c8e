"""X-macro counter-layout contract.

The activity counter layout (perf/activity.hh) is the ABI between the
performance simulator, the store record, and the flat power model
with its batched evaluator: coefficients are dense rows indexed in the
X-macro declaration order. This rule enforces that the contract has a
single source of truth:

  * exactly one definition each of GSP_CORE_ACTIVITY_FIELDS and
    GSP_MEM_ACTIVITY_FIELDS in the scanned tree;
  * no duplicate counter names inside a field list;
  * CoreCounterIndex / MemCounterIndex must be generated by expanding
    the corresponding X-macro, never hand-enumerated;
  * dotCountersRow() must never be called with a hard-coded integer
    count — the row length comes from core_activity_fields /
    mem_activity_fields (or a variable derived from them);
  * the store record's activity layout (activityRecord in
    src/store/entry.cc, which both the writer and the reader run)
    must carry both field-count constants as record fields
    (`io.constant(core_activity_fields, ...)`), so the reader's
    schema check detects writer/reader drift. A tree holding
    src/store/entry.cc must define it, so a rename cannot leave this
    check with nothing to check.
"""

from __future__ import annotations

import re

from lint_common import (Finding, line_of_offset, matching_brace,
                         matching_paren, split_top_level_args)

RULE = "xmacro-contract"

_MACROS = {
    "GSP_CORE_ACTIVITY_FIELDS": "CoreCounterIndex",
    "GSP_MEM_ACTIVITY_FIELDS": "MemCounterIndex",
}

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(GSP_\w+_ACTIVITY_FIELDS)\(")
_ENTRY_RE = re.compile(r"\bX\(\s*(\w+)\s*\)")
_INT_LITERAL_RE = re.compile(r"^\d+[uUlL]*$")


def _macro_body(raw_lines, start_idx):
    """Collect the backslash-continued body of a #define."""
    body = []
    i = start_idx
    while i < len(raw_lines):
        line = raw_lines[i]
        body.append(line.rstrip("\\"))
        if not line.rstrip().endswith("\\"):
            break
        i += 1
    return "\n".join(body), i


def _check_definitions(files, findings):
    """Locate the X-macro definitions; returns {macro: field list}."""
    sites = {name: [] for name in _MACROS}
    for path, sf in sorted(files.items()):
        for idx, line in enumerate(sf.raw_lines):
            m = _DEFINE_RE.match(line)
            if not m or m.group(1) not in sites:
                continue
            body, _ = _macro_body(sf.raw_lines, idx)
            fields = _ENTRY_RE.findall(body)
            sites[m.group(1)].append((path, idx + 1, fields))

    field_lists = {}
    for macro, found in sites.items():
        if not found:
            continue  # fixture trees may define only one list
        if len(found) > 1:
            for path, line, _ in found[1:]:
                findings.append(Finding(
                    path, line, RULE,
                    "%s defined more than once (also at %s:%d); the "
                    "counter layout must have a single source of truth"
                    % (macro, found[0][0], found[0][1])))
        path, line, fields = found[0]
        seen = set()
        for name in fields:
            if name in seen:
                findings.append(Finding(
                    path, line, RULE,
                    "duplicate counter '%s' in %s: every consumer of "
                    "the dense row layout would double-count it"
                    % (name, macro)))
            seen.add(name)
        field_lists[macro] = fields
    return field_lists


def _check_counter_index(files, findings):
    """CoreCounterIndex/MemCounterIndex must expand the X-macro."""
    for path, sf in sorted(files.items()):
        for macro, struct in _MACROS.items():
            for m in re.finditer(r"\bstruct\s+%s\b" % struct, sf.code):
                open_brace = sf.code.find("{", m.end())
                if open_brace < 0:
                    continue
                close = matching_brace(sf.code, open_brace)
                if close < 0:
                    continue
                body = sf.code[open_brace:close]
                if macro not in body:
                    findings.append(Finding(
                        path, line_of_offset(sf.code, m.start()), RULE,
                        "%s does not expand %s — a hand-maintained "
                        "index will drift from the X-macro layout"
                        % (struct, macro)))


def _check_row_length_literals(files, findings):
    """dotCountersRow(values, coeff, <literal>) is a layout landmine."""
    for path, sf in sorted(files.items()):
        for m in re.finditer(r"\bdotCountersRow\s*\(", sf.code):
            open_paren = sf.code.find("(", m.start())
            close = matching_paren(sf.code, open_paren)
            if close < 0:
                continue
            args = split_top_level_args(sf.code[open_paren + 1:close])
            if len(args) != 3:
                continue
            if _INT_LITERAL_RE.match(args[2]):
                findings.append(Finding(
                    path, line_of_offset(sf.code, m.start()), RULE,
                    "dotCountersRow called with hard-coded count %s; "
                    "use core_activity_fields / mem_activity_fields so "
                    "the call tracks the X-macro layout" % args[2]))


_CODEC_FNS = ("activityRecord",)
_CODEC_FILE = "src/store/entry.cc"


def _check_serializer_embeds_counts(files, findings):
    defined = set()
    for path, sf in sorted(files.items()):
        # Only definitions are bound by the schema-embed contract: a
        # definition has a `{` after its parameter list, a call site a
        # `;`/`,`/operator instead.
        for m in re.finditer(r"\b(%s)\s*\(" % "|".join(_CODEC_FNS),
                             sf.code):
            close = matching_paren(sf.code, sf.code.find("(", m.start()))
            if close < 0:
                continue
            j = close + 1
            while j < len(sf.code) and sf.code[j] not in "{;,)":
                j += 1
            if j >= len(sf.code) or sf.code[j] != "{":
                continue
            end = matching_brace(sf.code, j)
            body = sf.code[j:end if end >= 0 else len(sf.code)]
            defined.add(m.group(1))
            for const in ("core_activity_fields", "mem_activity_fields"):
                if not re.search(r"\bconstant\s*\(\s*(?:perf::)?%s\b"
                                 % const, body):
                    findings.append(Finding(
                        path, line_of_offset(sf.code, m.start()), RULE,
                        "%s does not carry %s as a record field "
                        "(constant(%s, ...)) — the record schema check "
                        "cannot detect field-count drift"
                        % (m.group(1), const, const)))
    if _CODEC_FILE in files:
        for fn in _CODEC_FNS:
            if fn not in defined:
                findings.append(Finding(
                    _CODEC_FILE, 1, RULE,
                    "%s is not defined: the schema-embed check has no "
                    "activity codec to check" % fn))


def check(files):
    findings = []
    _check_definitions(files, findings)
    _check_counter_index(files, findings)
    _check_row_length_literals(files, findings)
    _check_serializer_embeds_counts(files, findings)
    return findings
