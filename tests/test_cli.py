"""CLI harness: subcommands, exit codes, formats."""

import json
from importlib import resources

import pytest

from qlayout import cli
from qlayout.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNSAT,
    convert_qasm_subset,
    main,
)
from qlayout.circuit import CircuitError, load_circuit
from qlayout.device import load_device
from qlayout.verify import check_result


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_summary_line(capsys, tmp_path):
    out = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "synth", "--circuit", "or", "--device", "qx2",
                          "--objective", "swap", "--out", str(out))
    assert code == EXIT_OK
    assert stdout.strip() == "depth=9 swaps=0 fidelity=-170"
    obj = json.loads(out.read_text())
    assert obj["swap_count"] == 0


def test_synth_depth_objective(capsys):
    code, stdout, _ = run(capsys, "synth", "--circuit", "or", "--device", "qx2",
                          "--objective", "depth")
    assert code == EXIT_OK
    assert "depth=9" in stdout


def test_synth_empty_circuit(capsys, tmp_path):
    f = tmp_path / "empty.gates"
    f.write_text("qubits 3\n")
    code, stdout, _ = run(capsys, "synth", "--circuit", str(f),
                          "--device", "qx2")
    assert code == EXIT_OK
    assert stdout.startswith("depth=0 swaps=0")


def test_synth_missing_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--circuit", "nosuch", "--device", "qx2")
    assert code == EXIT_INPUT and "nosuch" in err
    bad = tmp_path / "bad.gates"
    bad.write_text("qubits two\n")
    code, _, err = run(capsys, "synth", "--circuit", str(bad), "--device", "qx2")
    assert code == EXIT_INPUT


def test_synth_timeout_exit(capsys):
    code, _, err = run(capsys, "synth", "--circuit", "adder", "--device", "qx2",
                       "--timeout", "0.01")
    assert code == EXIT_TIMEOUT


def test_synth_unsat_at_cap_exit(capsys, tmp_path):
    dev = tmp_path / "edgeless.json"
    dev.write_text('{"num_qubits": 2, "edges": []}')
    circ = tmp_path / "pair.gates"
    circ.write_text("qubits 2\ncx q0 q1\n")
    code, _, err = run(capsys, "synth", "--circuit", str(circ),
                       "--device", str(dev))
    assert code == EXIT_UNSAT


@pytest.mark.parametrize("flags", [
    ("--swap-duration", "0"),
    ("--t-growth", "0"),
    ("--mode", "tb", "--swap-duration", "0"),
])
def test_synth_bad_value_is_input_error(capsys, flags):
    code, _, err = run(capsys, "synth", "--circuit", "or", "--device", "qx2",
                       *flags)
    assert code == EXIT_INPUT
    assert err.startswith("error:")


@pytest.mark.parametrize("mode", ["tb", "qaoa"])
@pytest.mark.parametrize("flags", [
    ("--extra-t", "5"),
    ("--t-growth", "9"),
    ("--extra-t", "5", "--t-growth", "9"),
])
def test_synth_exact_only_flags_rejected_in_other_modes(capsys, tmp_path, mode, flags):
    # the TB and QAOA flows have no horizon growth to set: a non-default
    # value is refused, not silently ignored
    circuit = tmp_path / "pair.gates"
    circuit.write_text("qubits 2\nzz q0 q1\n")
    code, stdout, err = run(capsys, "synth", "--circuit", str(circuit), "--device", "qx2",
                            "--mode", mode, *flags)
    assert (code, stdout) == (EXIT_INPUT, "")
    assert err.startswith("error:") and "exact mode only" in err
    # the default values run as before
    code, stdout, _ = run(capsys, "synth", "--circuit", str(circuit), "--device", "qx2",
                          "--mode", mode, "--extra-t", "0", "--t-growth", "0.3")
    assert code == EXIT_OK and stdout.startswith("depth=")


@pytest.mark.parametrize("argv", [
    ("synth", "--circuit", "or", "--device", "qx2", "--bogus"),
    ("synth", "--circuit", "or", "--device", "qx2", "--objective", "nope"),
    ("synth", "--circuit", "or", "--device", "qx2", "--timeout", "abc"),
    ("synth", "--circuit", "or"),
    ("bench", "--suite", "SUITE", "--t-growth", "9"),  # an exact-mode synth flag
    (),
], ids=["unknown-flag", "bad-choice", "bad-float", "missing-flag", "bench-t-growth",
        "no-command"])
def test_usage_errors_are_input_errors(capsys, tmp_path, argv):
    # exit 2 means "no satisfiable horizon"; a mistyped command line is exit 1
    manifest = tmp_path / "suite.csv"
    manifest.write_text("circuit,device,mode,objective\nor,qx2,tb,swap\n")
    argv = [str(manifest) if arg == "SUITE" else arg for arg in argv]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (EXIT_INPUT, "")
    assert err.startswith("usage: qlayout") and ": error: " in err.splitlines()[-1]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0


def test_bench_malformed_circuit_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.gates"
    bad.write_text("qubits two\n")
    manifest = tmp_path / "suite.csv"
    manifest.write_text(f"circuit,device,mode,objective\n{bad},qx2,exact,swap\n")
    code, _, err = run(capsys, "bench", "--suite", str(manifest))
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_verify_pipeline_output(capsys, tmp_path):
    out = tmp_path / "r.json"
    run(capsys, "synth", "--circuit", "or", "--device", "qx2",
        "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--circuit", "or",
                          "--device", "qx2", "--result", str(out))
    assert code == EXIT_OK
    assert stdout.strip() == ""


def test_verify_corrupted_result(capsys, tmp_path):
    out = tmp_path / "r.json"
    run(capsys, "synth", "--circuit", "or", "--device", "qx2",
        "--out", str(out))
    obj = json.loads(out.read_text())
    obj["mapping_trajectory"][0][0] = obj["mapping_trajectory"][0][1]
    out.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", "--circuit", "or",
                          "--device", "qx2", "--result", str(out))
    assert code == EXIT_UNSAT
    lines = [json.loads(line) for line in stdout.splitlines()]
    assert any(v["family"] == "eq1" for v in lines)


def test_verify_wrong_dimension_is_input_error(capsys, tmp_path):
    out = tmp_path / "r.json"
    run(capsys, "synth", "--circuit", "or", "--device", "qx2",
        "--out", str(out))
    obj = json.loads(out.read_text())
    obj["mapping_trajectory"] = [row[:-1] for row in obj["mapping_trajectory"]]
    out.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "--circuit", "or", "--device", "qx2",
                       "--result", str(out))
    assert code == EXIT_INPUT


def _verify_edited_pair_result(capsys, tmp_path, edit, *flags):
    """synth `cx q0 q1; cx q0 q1` on qx2, edit its result, verify it."""
    circ = tmp_path / "pair.gates"
    circ.write_text("qubits 2\ncx q0 q1\ncx q0 q1\n")
    out = tmp_path / "r.json"
    run(capsys, "synth", "--circuit", str(circ), "--device", "qx2", "--out", str(out))
    obj = json.loads(out.read_text())
    edit(obj)
    out.write_text(json.dumps(obj))
    return run(capsys, "verify", "--circuit", str(circ), "--device", "qx2",
               "--result", str(out), *flags)


def _two_swaps_on_edge_0(obj):
    obj["swaps"] = [{"edge": 0, "finish_time": 3}, {"edge": 0, "finish_time": 4}]
    obj["swap_count"] = 2
    obj["fidelity_scaled"] -= 2 * 3 * 20  # two SWAPs of three 0.98 gates


def test_verify_swap_duration_below_one_is_input_error(capsys, tmp_path):
    code, stdout, _ = _verify_edited_pair_result(
        capsys, tmp_path, _two_swaps_on_edge_0, "--swap-duration", "3")
    assert code == EXIT_UNSAT
    assert any(json.loads(line)["family"] == "eq6" for line in stdout.splitlines())
    for S in ("0", "-2"):
        code, _, err = _verify_edited_pair_result(
            capsys, tmp_path, _two_swaps_on_edge_0, "--swap-duration", S)
        assert code == EXIT_INPUT
        assert err.startswith("error:")


def test_verify_non_integral_result_is_input_error(capsys, tmp_path):
    def edit(obj):
        obj["gates"][0]["time"] = 0.5
    code, _, err = _verify_edited_pair_result(capsys, tmp_path, edit)
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_synth_non_integral_device_is_input_error(capsys, tmp_path):
    dev = tmp_path / "dev.json"
    dev.write_text('{"num_qubits": 2.7, "edges": [[0, 1]]}')
    code, _, err = run(capsys, "synth", "--circuit", "or", "--device", str(dev))
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_bench_rows(capsys, tmp_path):
    manifest = tmp_path / "suite.csv"
    manifest.write_text(
        "circuit,device,mode,objective\nor,qx2,exact,swap\nor,qx2,tb,swap\n")
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "bench", "--suite", str(manifest),
                     "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "benchmark,device,mode,objective,swaps,depth,fidelity,runtime"
    assert len(lines) == 3
    assert lines[1].startswith("or,qx2,exact,swap,0,")


def test_bench_json_manifest(capsys, tmp_path):
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps([
        {"circuit": "or", "device": "qx2", "mode": "qaoa", "objective": "swap"},
    ]))
    code, stdout, err = run(capsys, "bench", "--suite", str(manifest))
    # the or circuit has 1q gates: qaoa refuses them, an input error
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_qaoa_mode_takes_a_commuting_circuit(capsys, tmp_path, monkeypatch, command):
    # a ZZ triangle: every pair of gates shares a qubit, and in qaoa mode
    # they still commute
    text = "qubits 3\nzz q0 q1\nzz q1 q2\nzz q0 q2\n"
    circ = tmp_path / "tri.gates"
    circ.write_text(text)
    results = []
    synthesize_qaoa = cli.synthesize_qaoa

    def spy(*args, **kwargs):
        results.append(synthesize_qaoa(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "synthesize_qaoa", spy)
    if command == "synth":
        args = ("synth", "--circuit", str(circ), "--device", "qx2", "--mode", "qaoa")
    else:
        manifest = tmp_path / "suite.csv"
        manifest.write_text(f"circuit,device,mode,objective\n{circ},qx2,qaoa,swap\n")
        args = ("bench", "--suite", str(manifest))
    code, _, err = run(capsys, *args)
    assert code == EXIT_OK, err
    commuting = load_circuit(text, user_deps=[])
    device = load_device((resources.files("qlayout") / "data" / "qx2.json").read_text())
    assert len(results) == 1
    assert check_result(commuting, device, results[0]) == []


def test_verify_qaoa_mode_takes_a_synth_qaoa_result(capsys, tmp_path):
    # gates 1 and 2 share q2 and run out of index order; only qaoa mode
    # loads them as commuting
    circ = tmp_path / "ring.gates"
    circ.write_text("qubits 4\nzz q0 q1\nzz q1 q2\nzz q2 q3\nzz q3 q0\nzz q0 q2\n")
    out = tmp_path / "r.json"
    io = ("--circuit", str(circ), "--device", "grid2x3")
    code, _, err = run(capsys, "synth", *io, "--mode", "qaoa", "--out", str(out))
    assert code == EXIT_OK, err
    code, stdout, err = run(capsys, "verify", *io, "--mode", "qaoa", "--result", str(out))
    assert (code, stdout) == (EXIT_OK, ""), err
    code, stdout, _ = run(capsys, "verify", *io, "--result", str(out))
    assert code == EXIT_UNSAT
    assert {json.loads(line)["family"] for line in stdout.splitlines()} == {"eq2"}


def test_bench_empty_manifest(capsys, tmp_path):
    manifest = tmp_path / "suite.csv"
    manifest.write_text("circuit,device,mode,objective\n")
    code, stdout, _ = run(capsys, "bench", "--suite", str(manifest))
    assert code == EXIT_OK
    assert stdout.strip() == "benchmark,device,mode,objective,swaps,depth,fidelity,runtime"


def test_bench_bad_manifest(capsys, tmp_path):
    manifest = tmp_path / "suite.csv"
    manifest.write_text("circuit,device\nor,qx2\n")
    code, _, err = run(capsys, "bench", "--suite", str(manifest))
    assert code == EXIT_INPUT


def test_convert_basic():
    text = convert_qasm_subset(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "h q[0];\ncx q[0],q[1];\nrz(pi/8) q[1];\n")
    assert text == "qubits 2\nh q0\ncx q0 q1\nrz q1\n"


def test_convert_comments_and_layout():
    text = convert_qasm_subset(
        "qreg r[3]; // register\n// full comment line\ncx r[2],r[0];\n")
    assert text == "qubits 3\ncx q2 q0\n"


@pytest.mark.parametrize("src,needle", [
    ("qreg q[2];\ncreg c[2];\n", "classical registers"),
    ("qreg q[1];\nmeasure q[0] -> c[0];\n", "measurement"),
    ("qreg q[1];\nif(c==1) x q[0];\n", "control flow"),
    ("qreg q[1];\nbarrier q[0];\n", "barriers"),
    ("qreg q[1];\nreset q[0];\n", "reset"),
    ("qreg q[3];\nccx q[0],q[1],q[2];\n", "operands"),
    ("qreg q[2];\nh q[5];\n", "outside"),
    ("qreg q[2];\nh p[0];\n", "unknown register"),
    ("qreg a[2];\nqreg b[2];\n", "one quantum register"),
    ("h q[0];\n", "before qreg"),
    ("", "no quantum register"),
])
def test_convert_rejects(src, needle):
    with pytest.raises(CircuitError) as exc:
        convert_qasm_subset(src)
    assert needle in str(exc.value)


def test_convert_cli(capsys, tmp_path):
    src = tmp_path / "a.qasm"
    src.write_text("qreg q[2];\ncx q[0],q[1];\n")
    code, stdout, _ = run(capsys, "convert", str(src))
    assert code == EXIT_OK
    assert stdout == "qubits 2\ncx q0 q1\n"
    code, _, err = run(capsys, "convert", str(tmp_path / "missing.qasm"))
    assert code == EXIT_INPUT


def test_converted_output_parses():
    from qlayout.circuit import parse_program
    text = convert_qasm_subset("qreg q[4];\n" + "".join(
        f"cx q[{i}],q[{i + 1}];\n" for i in range(3)))
    circ = parse_program(text)
    assert circ.num_qubits == 4
    assert circ.num_gates == 3
