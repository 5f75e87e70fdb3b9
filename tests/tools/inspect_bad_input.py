#!/usr/bin/env python3
"""Feeds ethsim_inspect crafted inputs whose headers claim more data than the
file holds (2^58 edges / records / samples, 2^32-1 series) and a manifest
whose workload source count is 2^64-1. Every query must exit 1 with exactly
one stderr line: a one-line diagnostic, never an abort.

usage: inspect_bad_input.py <path-to-ethsim_inspect>
"""
import os
import struct
import subprocess
import sys
import tempfile

HUGE = 1 << 58

CASES = [
    ("provenance-2^58-edges",
     {"provenance.bin": b"ETHPROV1" + struct.pack("<IIQq", 1, 0, HUGE, 0)},
     [["--summary"]]),
    ("txprov-2^58-records",
     {"txprov.bin": b"ETHTX1\0\0" + struct.pack("<IIIQq", 1, 0, 0, HUGE, 0)},
     [["--stages"]]),
    ("timeseries-2^58-samples",
     {"timeseries.bin": b"ETHTS1\0\0" + struct.pack("<IIQq", 1, 0, HUGE, 0)},
     [["--timeseries"], ["--watermarks"]]),
    ("timeseries-2^32-1-series",
     {"timeseries.bin":
      b"ETHTS1\0\0" + struct.pack("<IIQq", 1, 0xFFFFFFFF, 0, 0)},
     [["--timeseries"], ["--watermarks"]]),
    ("manifest-2^64-1-sources",
     {"manifest.json":
      b'{\n  "extra": {"workload_sources": "18446744073709551615"}\n}\n'},
     [["--demand"]]),
]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    tool = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory(prefix="ethsim_inspect_bad_") as root:
        for name, files, queries in CASES:
            run_dir = os.path.join(root, name)
            os.mkdir(run_dir)
            for file_name, data in files.items():
                with open(os.path.join(run_dir, file_name), "wb") as fh:
                    fh.write(data)
            for query in queries:
                proc = subprocess.run([tool, run_dir] + query,
                                      capture_output=True, text=True,
                                      check=False)
                lines = proc.stderr.splitlines()
                label = f"{name} {' '.join(query)}"
                if proc.returncode != 1 or len(lines) != 1:
                    failures.append(f"{label}: exit {proc.returncode}, "
                                    f"{len(lines)} stderr lines:\n"
                                    f"{proc.stderr}")
                else:
                    print(f"ok   {label}: {lines[0]}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
