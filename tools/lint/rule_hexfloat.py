"""Hex-float discipline at serialization boundaries.

Bit-identical snapshot replay depends on doubles round-tripping
exactly through the text serializations: writers must use the C99
hex-float form (strformat("%a", v) + TextCursor::f64), never decimal
formatting, which rounds. This rule scans the bodies of serializer
functions (any function whose name contains `serialize`) in src/ and
flags decimal float formatting:

  * %e / %f / %g conversions in format strings (hex %a is fine);
  * std::to_string (decimal, locale-independent but rounding);
  * std::setprecision / std::fixed / std::scientific stream state.

Escape hatch for a serializer that intentionally writes approximate
decimal text: `// lint: float-text-ok(<reason>)` above the line.
"""

from __future__ import annotations

import re

from lint_common import Finding, line_of_offset, matching_brace

RULE = "hexfloat-serialization"
KIND = "float-text-ok"

_FN_RE = re.compile(r"\b(\w*serialize\w*)\s*\(", re.IGNORECASE)
# A decimal float conversion inside a literal: % flags width .prec [efg]
_DECIMAL_FMT_RE = re.compile(r"%[-+ #0]*[\d*]*(?:\.[\d*]+)?[hlL]*[efgEFG]\b")
_BAD_CALL_RES = [
    (re.compile(r"\bstd\s*::\s*to_string\s*\("),
     "std::to_string rounds to decimal; write doubles with "
     "strformat(\"%a\", v)"),
    (re.compile(r"\bsetprecision\s*\("),
     "setprecision implies decimal formatting; serialize doubles as "
     "hex floats"),
    (re.compile(r"\bstd\s*::\s*(fixed|scientific)\b"),
     "decimal stream formatting in a serializer; use hex floats"),
]


def _serializer_bodies(sf):
    """(name, body_start_offset, body_text_raw, body_text_code)."""
    bodies = []
    for m in _FN_RE.finditer(sf.code):
        # Definition = parameter list followed by `{` before any `;`.
        open_paren = sf.code.find("(", m.start())
        depth = 0
        i = open_paren
        while i < len(sf.code):
            if sf.code[i] == "(":
                depth += 1
            elif sf.code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(sf.code) and sf.code[j] not in "{;":
            j += 1
        if j >= len(sf.code) or sf.code[j] != "{":
            continue
        close = matching_brace(sf.code, j)
        if close < 0:
            continue
        bodies.append((m.group(1), j, sf.raw[j:close], sf.code[j:close]))
    return bodies


def check(files):
    findings = []
    for path, sf in sorted(files.items()):
        if not path.startswith("src/"):
            continue
        for name, start, raw_body, code_body in _serializer_bodies(sf):
            base = line_of_offset(sf.code, start)

            def _report(offset_in_body, message, in_raw):
                text = raw_body if in_raw else code_body
                line = base + text.count("\n", 0, offset_in_body)
                if not sf.annotated(KIND, line):
                    findings.append(Finding(
                        path, line, RULE,
                        "in %s(): %s" % (name, message)))

            # Format strings live inside literals: scan the raw body
            # but skip its comments by masking them out first.
            masked = _mask_comments(raw_body)
            for fm in _DECIMAL_FMT_RE.finditer(masked):
                _report(fm.start(),
                        "decimal float conversion '%s' in a "
                        "serializer format string; use %%a so the "
                        "value round-trips bit-exactly"
                        % fm.group(0), True)
            for rex, msg in _BAD_CALL_RES:
                for cm in rex.finditer(code_body):
                    _report(cm.start(), msg, False)
    return findings


def _mask_comments(text):
    """Blank // and /* */ comments, keep strings (format specifiers)."""
    out = []
    i, n = 0, len(text)
    in_line = in_block = in_str = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_line:
            out.append(c if c == "\n" else " ")
            if c == "\n":
                in_line = False
            i += 1
        elif in_block:
            if c == "*" and nxt == "/":
                out.append("  ")
                in_block = False
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif in_str:
            out.append(c)
            if c == "\\" and nxt:
                out.append(nxt)
                i += 2
            else:
                if c == '"':
                    in_str = False
                i += 1
        else:
            if c == "/" and nxt == "/":
                in_line = True
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                in_block = True
                out.append("  ")
                i += 2
            else:
                if c == '"':
                    in_str = True
                out.append(c)
                i += 1
    return "".join(out)
