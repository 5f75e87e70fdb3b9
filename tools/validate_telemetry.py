#!/usr/bin/env python3
"""Schema-check a telemetry artifact directory.

Usage:
    tools/validate_telemetry.py DIR [--require METRIC]... \
                                    [--forbid-nonzero PREFIX]...

Validates whichever artifacts exist in DIR (at least manifest.json must):

  manifest.json   ethsim-run-manifest-v1: required keys, hex digests
  metrics.jsonl   one JSON object per line; counter/gauge/histogram schemas
  trace.json      Chrome trace-event JSON: traceEvents list, per-event keys
  profile.jsonl   sample / callback_histogram records
  provenance.bin  ETHPROV1 columnar relay-edge log: header, column sizes,
                  enum ranges, arrival/drop consistency
  timeseries.bin  ETHTS1 columnar state-sample log: header, name table,
                  exact file size, nondecreasing time column
  txprov.bin      ETHTX1 columnar tx-lifecycle stage log: header, exact
                  file size, stage enum range, per-tx monotone times

--require METRIC (repeatable) additionally asserts that metrics.jsonl
contains at least one metric whose name equals METRIC or starts with
"METRIC{" (the labeled form, e.g. --require fault.injected matches
fault.injected{kind=node_crash}). Used by the fault-smoke CI job to prove
a faulted run really recorded fault.injected / net.msg.dropped_reason
counters, not just an empty registry.

--forbid-nonzero PREFIX (repeatable) fails when any counter whose name
equals PREFIX or starts with "PREFIX{" has a non-zero value. The
provenance-smoke CI job uses --forbid-nonzero provenance.violation to
assert the run was invariant-clean.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/IO error.
"""

import json
import os
import string
import struct
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"  FAIL: {msg}")


def is_hex(value, digits=None):
    return (isinstance(value, str)
            and (digits is None or len(value) == digits)
            and all(c in string.hexdigits for c in value))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest(path):
    doc = load_json(path)
    if doc.get("schema") != "ethsim-run-manifest-v1":
        fail(f"manifest schema is {doc.get('schema')!r}")
    for key in ("tool", "seed", "config_digest", "determinism_digest",
                "events_executed", "head_number", "head_hash",
                "sim_duration_s", "telemetry", "build"):
        if key not in doc:
            fail(f"manifest missing key {key!r}")
    for key in ("config_digest", "determinism_digest", "head_hash"):
        if key in doc and not is_hex(doc[key], 64):
            fail(f"manifest {key} is not a 64-digit hex string: {doc[key]!r}")
    telemetry = doc.get("telemetry", {})
    for key in ("metrics", "trace", "profile", "provenance"):
        if not isinstance(telemetry.get(key), bool):
            fail(f"manifest telemetry.{key} is not a bool")
    # telemetry.sample and the watermarks object are rendered only for
    # sampled runs (byte-compat with pre-sampler manifests), so both are
    # optional -- but must be well-formed when present.
    if "sample" in telemetry and not isinstance(telemetry["sample"], bool):
        fail("manifest telemetry.sample is not a bool")
    # telemetry.txprov is likewise rendered only for tx-provenance runs.
    if "txprov" in telemetry and not isinstance(telemetry["txprov"], bool):
        fail("manifest telemetry.txprov is not a bool")
    if "watermarks" in doc:
        marks = doc["watermarks"]
        if not isinstance(marks, dict) or not marks:
            fail("manifest watermarks is not a non-empty object")
        else:
            for name, mark in marks.items():
                if (not isinstance(mark, dict)
                        or not isinstance(mark.get("peak"), int)
                        or not isinstance(mark.get("at_us"), int)):
                    fail(f"manifest watermarks[{name!r}] is malformed")
        if not telemetry.get("sample"):
            fail("manifest has watermarks but telemetry.sample is not true")
    build = doc.get("build", {})
    for key in ("git_sha", "build_type", "compiler"):
        if not isinstance(build.get(key), str):
            fail(f"manifest build.{key} is not a string")
    return doc


def check_metrics(path):
    names = set()
    counters = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                fail(f"metrics.jsonl:{lineno}: not JSON ({exc})")
                continue
            kind = record.get("type")
            name = record.get("name")
            if not isinstance(name, str) or not name:
                fail(f"metrics.jsonl:{lineno}: missing name")
                continue
            if name in names:
                fail(f"metrics.jsonl:{lineno}: duplicate metric {name!r}")
            names.add(name)
            if kind == "counter":
                ok = isinstance(record.get("value"), int)
                if ok:
                    counters[name] = record["value"]
            elif kind == "gauge":
                ok = (isinstance(record.get("value"), int)
                      and isinstance(record.get("high_water"), int))
            elif kind == "histogram":
                buckets = record.get("buckets")
                ok = (isinstance(record.get("count"), int)
                      and isinstance(record.get("sum"), int)
                      and isinstance(buckets, list)
                      and all(isinstance(b, list) and len(b) == 2
                              for b in buckets)
                      and buckets and buckets[-1][0] is None)
                if ok and sum(b[1] for b in buckets) != record["count"]:
                    fail(f"metrics.jsonl:{lineno}: bucket counts do not sum "
                         f"to count for {name!r}")
            else:
                ok = False
            if not ok:
                fail(f"metrics.jsonl:{lineno}: malformed {kind!r} record")
    if not names:
        fail("metrics.jsonl contains no metrics")
    return names, counters


def check_trace(path):
    doc = load_json(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("trace.json has no traceEvents list")
        return
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"traceEvents[{i}] is not an object")
            continue
        for key, kind in (("name", str), ("cat", str), ("ph", str),
                          ("ts", int), ("pid", int), ("tid", int)):
            if not isinstance(event.get(key), kind):
                fail(f"traceEvents[{i}] missing/invalid {key!r}")
                break
        else:
            if event["ph"] == "X" and not isinstance(event.get("dur"), int):
                fail(f"traceEvents[{i}]: complete event without dur")
            if event["ph"] not in ("X", "i"):
                fail(f"traceEvents[{i}]: unexpected phase {event['ph']!r}")
    other = doc.get("otherData", {})
    if not isinstance(other.get("emitted"), int):
        fail("trace.json otherData.emitted missing")
    elif other["emitted"] < len(events):
        fail("trace.json emitted < retained event count")


def check_profile(path):
    with open(path, "r", encoding="utf-8") as fh:
        kinds = set()
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                fail(f"profile.jsonl:{lineno}: not JSON ({exc})")
                continue
            kind = record.get("type")
            kinds.add(kind)
            if kind not in ("sample", "callback_histogram"):
                fail(f"profile.jsonl:{lineno}: unknown record type {kind!r}")
    if "callback_histogram" not in kinds:
        fail("profile.jsonl has no callback_histogram record")


PROV_MAGIC = b"ETHPROV1"
# Per-edge column widths in layout order (see ProvenanceLog::WriteBinary):
# send_us i64, arrival_us i64, from u32, to u32, object u64, parent u64,
# number u64, bytes u32, hop u16, kind u8, drop u8.
PROV_COLUMNS = (("send_us", 8), ("arrival_us", 8), ("from", 4), ("to", 4),
                ("object", 8), ("parent", 8), ("number", 8), ("bytes", 4),
                ("hop", 2), ("kind", 1), ("drop", 1))
PROV_KIND_COUNT = 6
PROV_DROP_COUNT = 5


def check_provenance(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<8sIIqq")
    if len(blob) < header:
        fail("provenance.bin shorter than its header")
        return
    magic, version, host_count, edge_count, end_us = struct.unpack_from(
        "<8sIIqq", blob)
    if magic != PROV_MAGIC:
        fail(f"provenance.bin bad magic {magic!r}")
        return
    if version != 1:
        fail(f"provenance.bin unsupported version {version}")
        return
    expected = header + host_count + edge_count * sum(
        width for _, width in PROV_COLUMNS)
    if len(blob) != expected:
        fail(f"provenance.bin is {len(blob)} bytes, expected {expected} "
             f"({edge_count} edges, {host_count} hosts)")
        return
    offset = header + host_count  # skip the host-region table
    columns = {}
    for name, width in PROV_COLUMNS:
        fmt = {8: "q", 4: "I", 2: "H", 1: "B"}[width]
        if name in ("from", "to", "bytes"):
            fmt = "I"
        columns[name] = struct.unpack_from(f"<{edge_count}{fmt}", blob, offset)
        offset += edge_count * width
    bad_kind = sum(1 for k in columns["kind"] if k >= PROV_KIND_COUNT)
    bad_drop = sum(1 for d in columns["drop"] if d >= PROV_DROP_COUNT)
    if bad_kind:
        fail(f"provenance.bin has {bad_kind} out-of-range kind bytes")
    if bad_drop:
        fail(f"provenance.bin has {bad_drop} out-of-range drop bytes")
    # A censored edge must not carry an arrival; a scheduled one must.
    inconsistent = sum(
        1 for a, d in zip(columns["arrival_us"], columns["drop"])
        if (d != 0 and a != -1) or (d == 0 and a < -1))
    if inconsistent:
        fail(f"provenance.bin has {inconsistent} edges with inconsistent "
             "arrival/drop")
    # Rows are globally ordered by send sequence (send_us non-decreasing).
    send = columns["send_us"]
    if any(send[i - 1] > send[i] for i in range(1, edge_count)):
        fail("provenance.bin rows are not in send order")
    print(f"  ok: provenance.bin ({edge_count} edges, {host_count} hosts, "
          f"end_us {end_us})")


TS_MAGIC = b"ETHTS1\x00\x00"


def check_timeseries(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<8sIIQq")
    if len(blob) < header:
        fail("timeseries.bin shorter than its header")
        return
    magic, version, series_count, sample_count, interval_us = (
        struct.unpack_from("<8sIIQq", blob))
    if magic != TS_MAGIC:
        fail(f"timeseries.bin bad magic {magic!r}")
        return
    if version != 1:
        fail(f"timeseries.bin unsupported version {version}")
        return
    if interval_us <= 0:
        fail(f"timeseries.bin interval_us {interval_us} is not positive")
    names = []
    offset = header
    for _ in range(series_count):
        if offset + 4 > len(blob):
            fail("timeseries.bin truncated in the series name table")
            return
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            fail("timeseries.bin truncated in the series name table")
            return
        names.append(blob[offset:offset + length].decode("utf-8"))
        offset += length
    if len(set(names)) != len(names):
        fail("timeseries.bin has duplicate series names")
    if any(not n for n in names):
        fail("timeseries.bin has an empty series name")
    # One shared time column + one value column per series, all i64.
    expected = offset + 8 * sample_count * (1 + series_count)
    if len(blob) != expected:
        fail(f"timeseries.bin is {len(blob)} bytes, expected {expected} "
             f"({series_count} series, {sample_count} samples)")
        return
    t_us = struct.unpack_from(f"<{sample_count}q", blob, offset)
    if any(t_us[i - 1] > t_us[i] for i in range(1, sample_count)):
        fail("timeseries.bin time column is not nondecreasing")
    if sample_count and t_us[0] != 0:
        fail(f"timeseries.bin first sample at t={t_us[0]}, expected the "
             "t=0 baseline row")
    print(f"  ok: timeseries.bin ({series_count} series, {sample_count} "
          f"samples, every {interval_us} us)")


TXPROV_MAGIC = b"ETHTX1\x00\x00"
# Per-record column widths in layout order (see TxProvLog::WriteBinary):
# t_us i64, tx u64, host u32, stage u8, info u16, aux u64, number u64.
TXPROV_COLUMNS = (("t_us", "q"), ("tx", "Q"), ("host", "I"), ("stage", "B"),
                  ("info", "H"), ("aux", "Q"), ("number", "Q"))
TXPROV_STAGE_COUNT = 9


def check_txprov(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<8sIIIQq")
    if len(blob) < header:
        fail("txprov.bin shorter than its header")
        return
    magic, version, host_count, depth_count, record_count, end_us = (
        struct.unpack_from("<8sIIIQq", blob))
    if magic != TXPROV_MAGIC:
        fail(f"txprov.bin bad magic {magic!r}")
        return
    if version != 1:
        fail(f"txprov.bin unsupported version {version}")
        return
    widths = {"q": 8, "Q": 8, "I": 4, "H": 2, "B": 1}
    expected = (header + host_count + 8 * depth_count
                + record_count * sum(widths[f] for _, f in TXPROV_COLUMNS))
    if len(blob) != expected:
        fail(f"txprov.bin is {len(blob)} bytes, expected {expected} "
             f"({record_count} records, {host_count} hosts, "
             f"{depth_count} depths)")
        return
    offset = header + host_count  # skip the host-region table
    depths = struct.unpack_from(f"<{depth_count}Q", blob, offset)
    offset += 8 * depth_count
    if list(depths) != sorted(set(depths)):
        fail(f"txprov.bin depth table is not strictly increasing: {depths}")
    columns = {}
    for name, fmt in TXPROV_COLUMNS:
        columns[name] = struct.unpack_from(f"<{record_count}{fmt}", blob,
                                           offset)
        offset += record_count * widths[fmt]
    bad_stage = sum(1 for s in columns["stage"] if s >= TXPROV_STAGE_COUNT)
    if bad_stage:
        fail(f"txprov.bin has {bad_stage} out-of-range stage bytes")
    # Per-tx record times never go backwards (the global column can: legacy
    # bursts record their future submit timestamps at scheduling time).
    last = {}
    backwards = 0
    for tx, t in zip(columns["tx"], columns["t_us"]):
        if t < last.get(tx, t):
            backwards += 1
        elif t > last.get(tx, -2**63):
            last[tx] = t
    if backwards:
        fail(f"txprov.bin has {backwards} per-tx time regressions")
    # Commit depths must come from the header's depth table.
    depth_set = set(depths)
    bad_depth = sum(1 for s, i in zip(columns["stage"], columns["info"])
                    if s == 8 and i not in depth_set)
    if bad_depth:
        fail(f"txprov.bin has {bad_depth} commits at unswept depths")
    print(f"  ok: txprov.bin ({record_count} records, {host_count} hosts, "
          f"depths {list(depths)}, end_us {end_us})")


def check_required(names, required):
    for metric in required:
        labeled = metric + "{"
        if not any(n == metric or n.startswith(labeled) for n in names):
            fail(f"metrics.jsonl has no metric matching {metric!r}")
        else:
            print(f"  ok: required metric {metric}")


def check_forbidden(counters, forbidden):
    for prefix in forbidden:
        labeled = prefix + "{"
        hits = {n: v for n, v in counters.items()
                if n == prefix or n.startswith(labeled)}
        if not hits:
            fail(f"--forbid-nonzero {prefix}: no matching counter recorded")
            continue
        nonzero = {n: v for n, v in hits.items() if v != 0}
        for name, value in sorted(nonzero.items()):
            fail(f"counter {name} = {value} (required zero)")
        if not nonzero:
            print(f"  ok: {len(hits)} counter(s) matching {prefix!r} "
                  "are all zero")


def parse_args(argv):
    directory, required, forbidden = None, [], []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--require", "--forbid-nonzero"):
            if i + 1 >= len(argv):
                print(__doc__, file=sys.stderr)
                sys.exit(2)
            (required if arg == "--require" else forbidden).append(argv[i + 1])
            i += 2
        elif directory is None:
            directory = arg
            i += 1
        else:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
    if directory is None:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    return directory, required, forbidden


def main():
    directory, required, forbidden = parse_args(sys.argv[1:])
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        print(f"validate_telemetry: {manifest_path} not found", file=sys.stderr)
        sys.exit(2)

    print(f"validating {directory}/")
    manifest = check_manifest(manifest_path)
    telemetry = manifest.get("telemetry", {})

    metric_names = set()
    counter_values = {}
    checks = (("metrics.jsonl", telemetry.get("metrics"), check_metrics),
              ("trace.json", telemetry.get("trace"), check_trace),
              ("profile.jsonl", telemetry.get("profile"), check_profile),
              ("provenance.bin", telemetry.get("provenance"),
               check_provenance),
              ("timeseries.bin", telemetry.get("sample"), check_timeseries),
              ("txprov.bin", telemetry.get("txprov"), check_txprov))
    for filename, enabled, check in checks:
        path = os.path.join(directory, filename)
        present = os.path.exists(path)
        if enabled and not present:
            fail(f"manifest says {filename} enabled but the file is missing")
        elif present:
            result = check(path)
            if filename == "metrics.jsonl" and result:
                metric_names, counter_values = result
            if filename not in ("provenance.bin", "timeseries.bin",
                                "txprov.bin"):
                print(f"  ok: {filename}")  # .bin checks print their own line
    if required:
        if not metric_names:
            fail("--require given but no metrics.jsonl was validated")
        else:
            check_required(metric_names, required)
    if forbidden:
        if not counter_values:
            fail("--forbid-nonzero given but no metrics.jsonl was validated")
        else:
            check_forbidden(counter_values, forbidden)
    print("  ok: manifest.json" if not FAILURES else "")

    if FAILURES:
        print(f"validate_telemetry: {len(FAILURES)} failure(s)",
              file=sys.stderr)
        sys.exit(1)
    print("validate_telemetry: all artifacts valid")


if __name__ == "__main__":
    main()
