"""Command-line harness: synthesis, verification, benchmarking, conversion.

Exit codes are part of the contract:
  0  success (for verify: the result passed every check)
  1  input error (bad file, bad flag, malformed circuit/device/result)
  2  no satisfiable horizon up to the cap; for verify: violations found
  3  the call's time budget passed

`synth` prints one summary line "depth=<d> swaps=<c> fidelity=<f>" and
writes the full result JSON when --out is given. `verify` prints each
violation as a JSON object on its own line. `bench` runs every manifest
row and emits a CSV table. In qaoa mode, `synth`, `bench` and `verify`
load the circuit as commuting: its gates have no dependencies. `convert`
rewrites an OpenQASM-2 subset into the native gate-list format.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from importlib import resources
from pathlib import Path

from .circuit import Circuit, CircuitError, load_circuit
from .device import Device, DeviceError, load_device
from .exact import OBJECTIVES, EncodingConfig, SynthesisTimeout, TCapExceeded, synthesize
from .qaoa import synthesize_qaoa
from .results import ResultError, result_from_json
from .transition import synthesize_tb
from .verify import check_result

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSAT = 2
EXIT_TIMEOUT = 3

MODES = ("exact", "tb", "qaoa")


class InputError(ValueError):
    """Any user-input problem the CLI reports with exit code 1."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _resolve(name: str, suffix: str) -> str:
    """Return file text for a path, falling back to the bundled data set."""
    if Path(name).exists():
        return _read_text(name)
    bundled = resources.files("qlayout") / "data" / f"{name}{suffix}"
    if bundled.is_file():
        return bundled.read_text()
    raise InputError(f"{name!r} is neither a file nor a bundled name")


def _load_inputs(circuit_name: str, device_name: str,
                 commuting: bool = False) -> tuple[Circuit, Device]:
    """Load both inputs; a commuting circuit (qaoa mode) gets no
    dependencies, any other one a dependency per pair of gates sharing a
    qubit."""
    try:
        circuit = load_circuit(_resolve(circuit_name, ".gates"),
                               [] if commuting else None)
        device = load_device(_resolve(device_name, ".json"))
    except (CircuitError, DeviceError) as exc:
        raise InputError(str(exc)) from None
    return circuit, device


def _run_synth(circuit: Circuit, device: Device, mode: str, objective: str,
               S: int, timeout: float | None, extra_t: int):
    try:
        if mode == "exact":
            cfg = EncodingConfig(T=1, S=S, objective=objective, timeout=timeout)
            return synthesize(circuit, device, objective, config=cfg,
                              extra_t=extra_t)
        if mode == "tb":
            _, result = synthesize_tb(circuit, device, objective=objective, S=S,
                                      timeout=timeout)
            return result
        return synthesize_qaoa(circuit, device, objective=objective, S=S,
                               timeout=timeout)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cmd_synth(args) -> int:
    if args.mode != "exact" and args.extra_t != 0:
        raise InputError(f"--extra-t applies to exact mode only, not {args.mode}")
    circuit, device = _load_inputs(args.circuit, args.device, args.mode == "qaoa")
    result = _run_synth(circuit, device, args.mode, args.objective,
                        args.swap_duration, args.timeout, args.extra_t)
    if args.out:
        try:
            Path(args.out).write_text(result.to_json())
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    print(f"depth={result.depth_slots} swaps={result.swap_count} "
          f"fidelity={result.fidelity_scaled}")
    return EXIT_OK


def cmd_verify(args) -> int:
    circuit, device = _load_inputs(args.circuit, args.device, args.mode == "qaoa")
    try:
        result = result_from_json(_read_text(args.result))
        violations = check_result(circuit, device, result,
                                  S=args.swap_duration)
    except (ResultError, ValueError) as exc:
        raise InputError(str(exc)) from None
    for item in violations:
        print(json.dumps(item, sort_keys=True))
    return EXIT_OK if not violations else EXIT_UNSAT


def _manifest_rows(path: str) -> list[dict]:
    text = _read_text(path)
    if path.endswith(".json"):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad manifest JSON: {exc}") from None
        if not isinstance(rows, list):
            raise InputError("manifest JSON must be a list of row objects")
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for i, row in enumerate(rows):
        try:
            entry = {
                "circuit": row["circuit"],
                "device": row["device"],
                "mode": row["mode"],
                "objective": row["objective"],
            }
        except (KeyError, TypeError):
            raise InputError(
                f"manifest row {i}: need circuit, device, mode, objective"
            ) from None
        for key, value in entry.items():
            if not isinstance(value, str):
                raise InputError(f"manifest row {i}: {key} must be a string, not {value!r}")
        if entry["mode"] not in MODES:
            raise InputError(f"manifest row {i}: unknown mode {entry['mode']!r}")
        if entry["objective"] not in OBJECTIVES:
            raise InputError(
                f"manifest row {i}: unknown objective {entry['objective']!r}")
        out.append(entry)
    return out


def cmd_bench(args) -> int:
    rows = _manifest_rows(args.suite)
    sink = io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(["benchmark", "device", "mode", "objective",
                     "swaps", "depth", "fidelity", "runtime"])
    for row in rows:
        circuit, device = _load_inputs(row["circuit"], row["device"],
                                       row["mode"] == "qaoa")
        start = time.perf_counter()
        result = _run_synth(circuit, device, row["mode"], row["objective"],
                            args.swap_duration, args.timeout, extra_t=0)
        elapsed = time.perf_counter() - start
        writer.writerow([row["circuit"], row["device"], row["mode"],
                         row["objective"], result.swap_count,
                         result.depth_slots, result.fidelity_scaled,
                         f"{elapsed:.2f}"])
    table = sink.getvalue()
    if args.out:
        try:
            Path(args.out).write_text(table)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(table)
    return EXIT_OK


# OpenQASM-2 subset: version/include lines, one qreg, gate calls with one
# or two indexed operands, // comments. Everything else is rejected.
_QASM_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_QASM_CALL_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*(\([^()]*\))?\s+(.+)$")
_QASM_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_QASM_REJECT = {
    "creg": "classical registers",
    "measure": "measurement",
    "if": "classical control flow",
    "reset": "reset",
    "barrier": "barriers",
    "gate": "gate definitions",
    "opaque": "opaque declarations",
}


def convert_qasm_subset(text: str) -> str:
    """Rewrite an OpenQASM-2 subset as gate-list text.

    Accepted: the OPENQASM version line, include lines, a single qreg,
    and 1- or 2-operand gate calls over that register (parameters are
    dropped; layout synthesis never reads them). Classical registers,
    measurement, and control flow are rejected, as is anything else
    outside the subset.
    """
    reg_name = None
    reg_size = 0
    lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            head = stmt.split(None, 1)[0]
            if head == "OPENQASM" or head == "include":
                continue
            reason = _QASM_REJECT.get(head) or (
                _QASM_REJECT.get("if") if head.startswith("if(") else None)
            if reason:
                raise CircuitError(f"line {lineno}: unsupported feature: {reason}")
            m = _QASM_QREG_RE.match(stmt)
            if m:
                if reg_name is not None:
                    raise CircuitError(
                        f"line {lineno}: only one quantum register is supported")
                reg_name, reg_size = m.group(1), int(m.group(2))
                continue
            m = _QASM_CALL_RE.match(stmt)
            if not m:
                raise CircuitError(f"line {lineno}: cannot parse {stmt!r}")
            name, _, operand_text = m.groups()
            if reg_name is None:
                raise CircuitError(f"line {lineno}: gate call before qreg")
            operands = [tok.strip() for tok in operand_text.split(",")]
            if len(operands) > 2:
                raise CircuitError(
                    f"line {lineno}: {name} has {len(operands)} operands, max 2")
            indices = []
            for tok in operands:
                om = _QASM_OPERAND_RE.match(tok)
                if not om:
                    raise CircuitError(
                        f"line {lineno}: operand {tok!r} is not reg[index]")
                if om.group(1) != reg_name:
                    raise CircuitError(
                        f"line {lineno}: unknown register {om.group(1)!r}")
                idx = int(om.group(2))
                if idx >= reg_size:
                    raise CircuitError(
                        f"line {lineno}: index {idx} outside {reg_name}[{reg_size}]")
                indices.append(idx)
            lines.append(name + " " + " ".join(f"q{i}" for i in indices))
    if reg_name is None:
        raise CircuitError("no quantum register declared")
    return "\n".join([f"qubits {reg_size}"] + lines) + "\n"


def cmd_convert(args) -> int:
    try:
        converted = convert_qasm_subset(_read_text(args.input))
    except CircuitError as exc:
        raise InputError(str(exc)) from None
    if args.out:
        try:
            Path(args.out).write_text(converted)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(converted)
    return EXIT_OK


def _add_io_flags(p, with_timeout=True):
    p.add_argument("--circuit", required=True,
                   help="gate-list file path or bundled benchmark name")
    p.add_argument("--device", required=True,
                   help="device JSON file path or bundled device name")
    p.add_argument("--swap-duration", type=int, default=3, metavar="S")
    if with_timeout:
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget of one synthesis call, in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlayout", description="Optimal quantum circuit layout synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a layout for a circuit")
    _add_io_flags(p)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--objective", choices=OBJECTIVES, default="swap")
    p.add_argument("--extra-t", type=int, default=0, metavar="N",
                   help="extra satisfiable horizons after the first, unless the "
                        "result already meets its proven bound (exact mode)")
    p.add_argument("--out", help="write result JSON here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a result file against a circuit")
    _add_io_flags(p, with_timeout=False)
    p.add_argument("--mode", choices=MODES, default="exact",
                   help="the mode that wrote the result; qaoa checks the "
                        "circuit as commuting")
    p.add_argument("--result", required=True, help="result JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a manifest of synthesis rows")
    p.add_argument("--suite", required=True,
                   help="manifest: CSV (circuit,device,mode,objective) or JSON list")
    p.add_argument("--swap-duration", type=int, default=3, metavar="S")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget of one synthesis call, in seconds")
    p.add_argument("--out", help="write the CSV table here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("convert", help="convert OpenQASM-2 subset to gate-list")
    p.add_argument("input", help="QASM file to convert")
    p.add_argument("--out", help="write gate-list text here instead of stdout")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage and an error line and exits 2 on a
        # bad command line (exit 2 means "no satisfiable horizon" here), 0
        # after --help
        if exc.code:
            return EXIT_INPUT
        raise
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except SynthesisTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT


if __name__ == "__main__":
    sys.exit(main())
