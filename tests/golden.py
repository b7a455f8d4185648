"""Pinned CLI artefacts: run the scenarios, check them, regenerate the pins.

`tests/golden/manifest.json` pins, for each scenario in SCENARIOS, the
SHA-256 of every CSV it writes and the `results` and `derived` blocks of
its summary.json, with the Python, numpy and libc versions it was made
with.  Next to each file hash it keeps an 8-hex digest of every line, so a
mismatch names the first line that differs.  `test_golden.py` runs the
scenarios in process and compares.  oracle-compare is left out: it takes
about 3 s, more than the rest together.

From the root of a checkout:

    PYTHONPATH=src python tests/golden.py
        run the scenarios and check them against the manifest
    PYTHONPATH=src python tests/golden.py --write
        regenerate the manifest (say why in CHANGES.md: it changes a check)
    PYTHONPATH=src python tests/golden.py --out NEW [--against OLD]
        keep the outputs in NEW; with --against, report for each CSV
        column and summary field how many values moved against the
        outputs kept in OLD, and the largest move in ulps

OLD is made the same way from another checkout, for instance
`PYTHONPATH=<parent>/src python tests/golden.py --out OLD`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy

MANIFEST = Path(__file__).with_name("golden") / "manifest.json"

# tag, CLI arguments before --out; the perfbench scenarios workload runs
# the same seven
SCENARIOS = (
    ("baseline", ["baseline"]),
    ("contributions", ["contributions"]),
    ("baseline-codata", ["baseline", "--constants", "codata"]),
    ("short-protocol", ["short-protocol"]),
    ("q0-sweep", ["q0-sweep"]),
    ("radius-sweep", ["radius-sweep"]),
    ("baseline-nuclear", ["baseline", "--config", "{nuclear_cfg}"]),
)

# nuclear boost active: the packet starts below the nucleon scale
NUCLEAR_CFG = "nuclear_correction = true\ninitial.sqrtQ0_m = 1e-13\n"

SUMMARY_BLOCKS = ("results", "derived")


def environment() -> dict:
    """The versions that decide the last bits of the outputs."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "libc": " ".join(platform.libc_ver())}


def run(out_root: Path) -> None:
    """Run every scenario through `sgphase.cli.main` into out_root/<tag>."""
    from sgphase.cli import EXIT_OK, main

    out_root.mkdir(parents=True, exist_ok=True)
    nuclear_cfg = out_root / "nuclear.cfg"
    nuclear_cfg.write_text(NUCLEAR_CFG)
    for tag, args in SCENARIOS:
        argv = [a.format(nuclear_cfg=nuclear_cfg) for a in args]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out", str(out_root / tag)])
        if rc != EXIT_OK:
            raise RuntimeError(f"scenario {tag} exited with {rc}")


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def _line_digests(path: Path) -> str:
    return "".join(hashlib.sha256(line).hexdigest()[:8]
                   for line in _lines(path))


def _summary(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text())
    return {block: summary[block] for block in SUMMARY_BLOCKS}


def record(out_root: Path) -> dict:
    """The manifest entries of the scenario outputs under out_root."""
    scenarios = {}
    for tag, _ in SCENARIOS:
        out = out_root / tag
        scenarios[tag] = {
            "csv": {p.name: {"sha256": hashlib.sha256(p.read_bytes())
                             .hexdigest(),
                             "lines": _line_digests(p)}
                    for p in sorted(out.glob("*.csv"))},
            **_summary(out),
        }
    return {"environment": environment(), "scenarios": scenarios}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _flatten(node, prefix: str = "") -> dict:
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(_flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: node}


def compare(manifest: dict, out_root: Path) -> list[str]:
    """One line per difference between the manifest and the outputs under
    out_root: each CSV that differs with its first differing line, each
    summary block with its first differing field."""
    problems = []
    for tag, pinned in manifest["scenarios"].items():
        out = out_root / tag
        written = {p.name: p for p in out.glob("*.csv")}
        if set(written) != set(pinned["csv"]):
            problems.append(f"{tag}: CSVs {sorted(written)}, manifest has "
                            f"{sorted(pinned['csv'])}")
        for name, pin in sorted(pinned["csv"].items()):
            path = written.get(name)
            if path is None or hashlib.sha256(
                    path.read_bytes()).hexdigest() == pin["sha256"]:
                continue
            lines = _lines(path)
            digests = _line_digests(path)
            n = next((i for i in range(0, len(pin["lines"]), 8)
                      if digests[i:i + 8] != pin["lines"][i:i + 8]),
                     len(pin["lines"]))
            k = n // 8
            found = (lines[k].decode().rstrip("\r\n") if k < len(lines)
                     else "<end of file>")
            problems.append(f"{tag}/{name}: line {k + 1} differs from the "
                            f"manifest; it reads {found!r}")
        summary = _summary(out)
        for block in SUMMARY_BLOCKS:
            if _canonical(summary[block]) == _canonical(pinned[block]):
                continue
            new, old = _flatten(summary[block]), _flatten(pinned[block])
            field = next(k for k in sorted(new.keys() | old.keys())
                         if _canonical(new.get(k)) != _canonical(old.get(k)))
            problems.append(f"{tag}/summary.json {block}.{field}: "
                            f"{new.get(field)!r}, manifest "
                            f"{old.get(field)!r}")
    return problems


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps across zero."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _move(old, new) -> tuple[bool, float]:
    """(moved, distance in ulps) of two cells or summary values; the
    distance is 0 for text and nan when either side is not a number."""
    if isinstance(old, str) or isinstance(new, str):
        try:
            old, new = float(old), float(new)
        except (TypeError, ValueError):
            return old != new, 0.0
    if not (isinstance(old, float) and isinstance(new, float)):
        return _canonical(old) != _canonical(new), 0.0
    moved = old.hex() != new.hex()
    if math.isnan(old) or math.isnan(new):
        return moved, math.nan if moved else 0.0
    return moved, float(abs(_ordered(old) - _ordered(new)))


def report(old_root: Path, new_root: Path) -> list[str]:
    """How many values moved from old_root to new_root, per CSV column and
    summary field, with the largest move in ulps; only what moved is
    listed, then one line with the totals."""
    lines = []
    n_values = n_moved = 0
    for tag, _ in SCENARIOS:
        old, new = old_root / tag, new_root / tag
        columns = {}
        for path in sorted(new.glob("*.csv")):
            with open(old / path.name, newline="") as f:
                old_rows = list(csv.reader(f))
            with open(path, newline="") as f:
                new_rows = list(csv.reader(f))
            if old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
                lines.append(f"{tag}/{path.name}: header or row count "
                             f"changed")
                continue
            for j, name in enumerate(new_rows[0]):
                columns[f"{path.name} {name}"] = [
                    (a[j], b[j]) for a, b in zip(old_rows[1:], new_rows[1:])]
        old_sum, new_sum = _summary(old), _summary(new)
        for block in SUMMARY_BLOCKS:
            o, n = _flatten(old_sum[block]), _flatten(new_sum[block])
            for field in sorted(o.keys() | n.keys()):
                columns[f"summary.json {block}.{field}"] = [
                    (o.get(field), n.get(field))]
        for label, pairs in columns.items():
            moves = [_move(a, b) for a, b in pairs]
            moved = sum(m for m, _ in moves)
            n_values += len(pairs)
            n_moved += moved
            if moved:
                worst = max(u for m, u in moves if m)
                lines.append(f"{tag}/{label}: {moved} of {len(pairs)} "
                             f"moved, largest {worst:g} ulps")
    lines.append(f"{n_values} values in the CSV columns and summary fields "
                 f"of {len(SCENARIOS)} scenarios: {n_moved} moved")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the manifest")
    parser.add_argument("--out", type=Path,
                        help="keep the outputs here (default: a temp dir)")
    parser.add_argument("--against", type=Path,
                        help="report what moved against the outputs kept "
                             "in this directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        run(out)
        if args.write:
            MANIFEST.parent.mkdir(exist_ok=True)
            MANIFEST.write_text(json.dumps(record(out), indent=1,
                                           sort_keys=True) + "\n")
            print(f"wrote {MANIFEST}")
            return 0
        if args.against:
            print("\n".join(report(args.against, out)))
        manifest = json.loads(MANIFEST.read_text())
        problems = compare(manifest, out)
        if manifest["environment"] != environment():
            problems.insert(0, f"manifest made with "
                               f"{manifest['environment']}, this run has "
                               f"{environment()}")
        print("\n".join(problems) or "outputs match the manifest")
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
