#!/usr/bin/env python3
"""Validate the observability artifacts a sweep emits.

Checks the Chrome trace JSON written by ``--trace-out`` and the
metrics JSON written by ``--metrics-json`` against the contracts
documented in docs/observability.md:

Trace (``--trace FILE``):
  * top level is ``{"displayTimeUnit": ..., "traceEvents": [...]}``;
  * every event is an ``X`` (complete) or ``M`` (metadata) event with
    the required fields; ``ts``/``dur`` are non-negative numbers;
  * per thread, spans nest properly: sorted by (start, -duration),
    each span lies entirely inside the enclosing open span. The ring
    stores spans in *completion* order, so per-thread *end* times must
    be monotonically non-decreasing in file order;
  * every named thread (``M``/``thread_name``) is unique per tid;
  * no span lies inside an enclosing span it must never run under
    (FORBIDDEN_NESTING): a ``sim/replay`` inside ``engine/capture``
    means a capture unit computed power, which only the replay group
    may do; a ``sim/capture`` inside ``engine/replay`` means the
    replay group ran timing, which only a unit's capture and the
    governor's clamps (under ``engine/govern``) may do.

Metrics (``--metrics FILE``):
  * schema is ``gpusimpow-metrics-1``;
  * the full ``engine/*`` counter set and the timing core's
    ``perf/*`` counters are present (the engine registers every
    instrument up front, so even unused paths report zeros);
  * ``0 < perf/chip_steps <= perf/core_steps`` when the run captured,
    both 0 when it did not;
  * ``--expect name=value`` asserts an exact counter value;
  * ``--expect-min name=value`` asserts a counter is at least value;
  * ``--require-counter NAME`` asserts a counter is present. Unlike
    the engine set, subsystem counters (e.g. ``thermal/*``) register
    on first use, so only runs that exercise the subsystem assert
    them;
  * ``--require-span NAME`` (with --trace) asserts at least one span.

Exit status 0 = all checks pass, 1 = any violation (each printed).
"""

from __future__ import annotations

import argparse
import json
import sys

# Counters the engine registers unconditionally at the top of every
# sweep; their absence means the producer and this checker drifted.
REQUIRED_COUNTERS = (
    "engine/batch_groups",
    "engine/scenarios",
    "engine/scenarios_captured",
    "engine/scenarios_governed",
    "engine/scenarios_replayed",
    "engine/simulator_builds",
    "engine/tail_idle_ns",
    "engine/worker_busy_ns",
    "engine/worker_idle_ns",
    "perf/chip_steps",
    "perf/core_steps",
    "perf/quiet_core_cycles",
    "perf/warp_insts",
    "power/model_builds",
    "sim/timing_model_builds",
)

# (outer, inner) span pairs that must never nest, at any depth: the
# capture phase only captures, every replay runs in the group, and
# the group never runs timing.
FORBIDDEN_NESTING = (
    ("engine/capture", "sim/replay"),
    ("engine/replay", "sim/capture"),
)


class Checker:
    def __init__(self):
        self.errors = []

    def fail(self, message):
        self.errors.append(message)

    def require(self, cond, message):
        if not cond:
            self.fail(message)
        return cond


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_trace(doc, chk, require_spans):
    if not chk.require(isinstance(doc, dict), "trace: top level not an object"):
        return
    events = doc.get("traceEvents")
    if not chk.require(isinstance(events, list),
                       "trace: missing traceEvents array"):
        return
    chk.require("displayTimeUnit" in doc, "trace: missing displayTimeUnit")

    spans_by_tid = {}
    names_by_tid = {}
    last_end_by_tid = {}
    span_names = set()
    for i, ev in enumerate(events):
        where = "trace: event %d" % i
        if not chk.require(isinstance(ev, dict), where + ": not an object"):
            continue
        ph = ev.get("ph")
        if ph == "M":
            chk.require(ev.get("name") == "thread_name",
                        where + ": unknown metadata event %r" % ev.get("name"))
            tid = ev.get("tid")
            label = ev.get("args", {}).get("name")
            chk.require(isinstance(label, str) and label,
                        where + ": thread_name without a label")
            chk.require(tid not in names_by_tid,
                        where + ": duplicate thread_name for tid %r" % tid)
            names_by_tid[tid] = label
            continue
        if not chk.require(ph == "X",
                           where + ": unexpected phase %r" % ph):
            continue
        for field in ("name", "pid", "tid", "ts", "dur"):
            if not chk.require(field in ev, where + ": missing %r" % field):
                break
        else:
            name, tid = ev["name"], ev["tid"]
            ts, dur = ev["ts"], ev["dur"]
            ok = chk.require(_is_number(ts) and ts >= 0,
                             where + ": bad ts %r" % ts)
            ok = chk.require(_is_number(dur) and dur >= 0,
                             where + ": bad dur %r" % dur) and ok
            if not ok:
                continue
            span_names.add(name)
            end = ts + dur
            # Ring order is span *completion* order: per-thread end
            # times must never go backwards in file order.
            prev_end = last_end_by_tid.get(tid)
            if prev_end is not None:
                chk.require(end >= prev_end,
                            where + ": tid %r end time %s precedes the "
                            "previous span's end %s (ring order broken)"
                            % (tid, end, prev_end))
            last_end_by_tid[tid] = end
            spans_by_tid.setdefault(tid, []).append((ts, end, name, i))

    # Proper nesting per thread: sweep spans sorted by (start, -dur)
    # with a stack of open end-times; every span must close before the
    # span that encloses it does.
    for tid, spans in sorted(spans_by_tid.items(), key=lambda kv: str(kv[0])):
        stack = []
        for ts, end, name, i in sorted(spans,
                                       key=lambda s: (s[0], -(s[1] - s[0]))):
            while stack and ts >= stack[-1][0]:
                stack.pop()
            if stack and end > stack[-1][0]:
                chk.fail("trace: event %d (%s) on tid %r overlaps the "
                         "enclosing span %s without nesting inside it"
                         % (i, name, tid, stack[-1][1]))
            for outer, inner in FORBIDDEN_NESTING:
                if name == inner and any(n == outer for _, n in stack):
                    chk.fail("trace: event %d (%s) on tid %r runs inside "
                             "%s" % (i, name, tid, outer))
            stack.append((end, name))

    for required in require_spans:
        chk.require(required in span_names,
                    "trace: no span named %r (saw: %s)"
                    % (required, ", ".join(sorted(span_names)) or "none"))


def check_metrics(doc, chk, expectations, min_expectations,
                  require_counters):
    if not chk.require(isinstance(doc, dict),
                       "metrics: top level not an object"):
        return
    chk.require(doc.get("schema") == "gpusimpow-metrics-1",
                "metrics: bad schema %r" % doc.get("schema"))
    counters = doc.get("counters")
    if not chk.require(isinstance(counters, dict),
                       "metrics: missing counters object"):
        return
    for section in ("gauges", "histograms"):
        chk.require(isinstance(doc.get(section), dict),
                    "metrics: missing %s object" % section)
    for name in REQUIRED_COUNTERS:
        chk.require(name in counters,
                    "metrics: required counter %r missing" % name)
    steps = counters.get("perf/core_steps")
    chip_steps = counters.get("perf/chip_steps")
    if _is_number(steps) and _is_number(chip_steps):
        # Each chip step steps at least one core; a run that captured
        # nothing reports both as 0.
        chk.require(chip_steps <= steps and (chip_steps > 0) == (steps > 0),
                    "metrics: perf/chip_steps = %s, expected 0 < chip_steps"
                    " <= perf/core_steps = %s (both 0 without a capture)"
                    % (chip_steps, steps))
    for name in require_counters:
        chk.require(name in counters,
                    "metrics: required counter %r missing" % name)
    for name, value in counters.items():
        chk.require(_is_number(value) and value >= 0,
                    "metrics: counter %r has bad value %r" % (name, value))
    for name, expected in expectations:
        if not chk.require(name in counters,
                           "metrics: expected counter %r absent" % name):
            continue
        chk.require(counters[name] == expected,
                    "metrics: %s = %s, expected %s"
                    % (name, counters[name], expected))
    for name, minimum in min_expectations:
        if not chk.require(name in counters,
                           "metrics: expected counter %r absent" % name):
            continue
        chk.require(counters[name] >= minimum,
                    "metrics: %s = %s, expected at least %s"
                    % (name, counters[name], minimum))


def _load_json(path, what, chk):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        chk.fail("%s: cannot load %s: %s" % (what, path, exc))
        return None


def main(argv):
    parser = argparse.ArgumentParser(
        description="validate gpusimpow trace/metrics artifacts")
    parser.add_argument("--trace", help="Chrome trace JSON (--trace-out)")
    parser.add_argument("--metrics", help="metrics JSON (--metrics-json)")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="assert an exact counter value "
                             "(repeatable; requires --metrics)")
    parser.add_argument("--expect-min", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="assert a counter value of at least VALUE "
                             "(repeatable; requires --metrics)")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="assert a counter is present "
                             "(repeatable; requires --metrics)")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="assert the trace contains a span "
                             "(repeatable; requires --trace)")
    args = parser.parse_args(argv)

    if not args.trace and not args.metrics:
        parser.error("nothing to check: pass --trace and/or --metrics")

    def parse_value_args(items, flag):
        parsed = []
        for item in items:
            name, sep, value = item.partition("=")
            if not sep:
                parser.error("%s takes NAME=VALUE, got %r" % (flag, item))
            try:
                parsed.append((name, int(value)))
            except ValueError:
                parser.error("%s value must be an integer: %r"
                             % (flag, item))
        return parsed

    expectations = parse_value_args(args.expect, "--expect")
    min_expectations = parse_value_args(args.expect_min, "--expect-min")
    if ((expectations or min_expectations or args.require_counter)
            and not args.metrics):
        parser.error("counter assertions require --metrics")
    if args.require_span and not args.trace:
        parser.error("--require-span requires --trace")

    chk = Checker()
    if args.trace:
        doc = _load_json(args.trace, "trace", chk)
        if doc is not None:
            check_trace(doc, chk, args.require_span)
    if args.metrics:
        doc = _load_json(args.metrics, "metrics", chk)
        if doc is not None:
            check_metrics(doc, chk, expectations, min_expectations,
                          args.require_counter)

    for err in chk.errors:
        print(err)
    if chk.errors:
        print("check_trace: %d violation(s)" % len(chk.errors),
              file=sys.stderr)
        return 1
    checked = [w for w, p in (("trace", args.trace),
                              ("metrics", args.metrics)) if p]
    print("check_trace: %s ok" % " + ".join(checked))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
