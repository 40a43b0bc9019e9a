"""Command-line front end: exit codes, report channels, config resolution."""

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cotwist
from cotwist.cli import InputError, main, make_parser, parse_gamma
from cotwist.errors import CotwistError
from cotwist.exactlin import CycArray, cyc_tensordot, ga_mul, invert_in_group_algebra
from cotwist.groups import build_elementary_abelian_symplectic
from cotwist.twist import TwistData, save_twist_file, symplectic_twist
from instances import CRITERION_10, DEGENERATE, WREATH, write_instance


def run_cli(argv, capsys):
    """Invoke main() in-process; returns (exit_code, stdout, stderr)."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_table_instance(tmp_path, corrupt=False, twist=None):
    """Write group/twist files for G = H = (Z/3)^2 with its symplectic twist
    (or with ``twist``)."""
    h_group, sigma = build_elementary_abelian_symplectic(3, 1)
    t = twist or symplectic_twist(h_group, sigma)
    if corrupt:
        counts = t.J.counts.copy()
        counts[1, 2, 0] += 1
        t = TwistData(subgroup=t.subgroup, order=t.order,
                      J=CycArray(t.J.order, Fraction(t.J.scale), counts))
    group_file = tmp_path / "group.txt"
    twist_file = tmp_path / "twist.txt"
    h_group.to_file(group_file)
    save_twist_file(twist_file, t)
    cfg = {
        "construction": {
            "type": "table",
            "group_file": str(group_file),
            "subgroup": list(range(9)),
            "twist_file": str(twist_file),
        }
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg))
    return cfg_file


# ---------------------------------------------------------------------------
# happy paths


def test_spectrum_diagonal_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, stdout, stderr = run_cli(
        ["spectrum", "--p", "3", "--gamma", "1,0,0,2", "--out", str(out)], capsys)
    assert rc == 0
    report = json.loads(out.read_text())
    assert [c["dims_direct"] for c in report["cosets"]] == [[1] * 9, [3]]
    assert report["totals"]["group_order"] == 18
    assert stdout == ""  # JSON went to the file, not stdout
    assert "all checks passed" in stderr  # table always lands on stderr


def test_verify_unipotent(capsys):
    rc, stdout, stderr = run_cli(["verify", "--p", "3", "--gamma", "1,1,0,1"], capsys)
    assert rc == 0
    report = json.loads(stdout)
    assert report["cosets"] == []  # verify audits the instance only
    assert all(report["global_checks"].values())
    assert stderr


def test_verify_p7_global_checks(capsys):
    rc, stdout, _ = run_cli(["verify", "--p", "7", "--gamma", "1,0,0,6"], capsys)
    assert rc == 0
    checks = json.loads(stdout)["global_checks"]
    assert checks["minimality_rank"] == 49
    assert checks["triangularity"] and checks["q_identity"]


def test_table_config_spectrum(tmp_path, capsys):
    cfg_file = write_table_instance(tmp_path)
    rc, stdout, _ = run_cli(["spectrum", "--config", str(cfg_file)], capsys)
    assert rc == 0
    report = json.loads(stdout)
    assert len(report["cosets"]) == 1  # H = G: a single double coset
    assert report["cosets"][0]["dims_direct"] == [1] * 9


def write_wreath_config(tmp_path) -> str:
    write_instance(tmp_path, *WREATH)
    return str(tmp_path / "config.json")


def test_wreath_table_totals_line(tmp_path, capsys):
    """The table's last line counts the 10 double cosets of the wreath table
    and labels the sums of the coset sizes and of the squared block dimensions."""
    cfg_file = write_wreath_config(tmp_path)
    rc, _, stderr = run_cli(["spectrum", "--config", cfg_file,
                             "--out", str(tmp_path / "report.json")], capsys)
    assert rc == 0
    assert stderr.splitlines()[-1] == "totals: |G|=162 |H|=9 cosets=10 Σ|Z|=162 Σd²=162"


def test_wreath_report_identical_under_jobs(tmp_path, capsys):
    """Three coset workers write the wreath report and table byte for byte as one does."""
    cfg_file = write_wreath_config(tmp_path)
    runs = [run_cli(["spectrum", "--config", cfg_file, "--jobs", jobs], capsys)
            for jobs in ("1", "3")]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_spectrum_gathers_no_dense_constants(tmp_path, capsys, monkeypatch):
    """With ``dual_algebras.gather_slice`` raising, ``spectrum`` on p = 5
    unipotent, the wreath table, p = 3 with n = 2 and criterion 10's second
    twist writes the report, the table and the exit code of an unpatched
    run, byte for byte: no CLI run gathers the n^3 constants of an algebra
    in slice form."""
    from cotwist import dual_algebras

    (tmp_path / "c10").mkdir()
    write_instance(tmp_path / "c10", *CRITERION_10[1])

    def no_gather(S, perms):
        raise AssertionError(f"gather_slice called on {S.shape}")

    for argv in (["spectrum", "--p", "5", "--gamma", "1,1,0,1"],
                 ["spectrum", "--config", write_wreath_config(tmp_path)],
                 ["spectrum", "--p", "3", "--n", "2"],
                 ["spectrum", "--config", str(tmp_path / "c10" / "config.json")]):
        plain = run_cli(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(dual_algebras, "gather_slice", no_gather)
            assert run_cli(argv, capsys) == plain
        assert plain[0] == 0 and "all checks passed" in plain[2]


# ---------------------------------------------------------------------------
# failure exit code 1: checks fail but the report is still written


def test_corrupted_twist_exits_1_and_names_axiom(tmp_path, capsys):
    cfg_file = write_table_instance(tmp_path, corrupt=True)
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["verify", "--config", str(cfg_file), "--out", str(out)], capsys)
    assert rc == 1
    report = json.loads(out.read_text())  # report written despite failure
    assert report["global_checks"]["twist_axioms"] is False
    assert any("2-cocycle" in line for line in report["failures"])
    assert "2-cocycle" in stderr


def test_uncertifiable_inverse_exits_1_with_report(tmp_path, capsys):
    """An inverse whose exact counts overflow int64 is an uncertified check.

    The gauge-transformed twist J' = (u x u) J Delta0(u)^-1 with 1/7 added to
    J'[e, e] has an inverse whose common denominator is beyond int64 counts.
    """
    h_group, sigma = build_elementary_abelian_symplectic(3, 1)
    t = symplectic_twist(h_group, sigma)
    m = 9
    u = CycArray.zeros((m,), 3)
    u.counts[0, 0], u.counts[0, 1], u.counts[1, 1] = 1, -1, 1  # (1 - zeta) e + zeta g
    uinv = invert_in_group_algebra(u, h_group.mul.astype(np.int64))
    diag = CycArray.zeros((m * m,), 3)
    diag.counts[np.arange(m) * m + np.arange(m)] = uinv.counts
    diag.scale = uinv.scale
    uu = cyc_tensordot(u, u, axes=0).reshape(m * m)
    gauged = ga_mul(ga_mul(uu, t.J.reshape(m * m), t.pair_mul), diag, t.pair_mul)
    bump = CycArray.zeros((m, m), 3)
    bump.counts[0, 0, 0] = 1
    gauged_counts, bump_counts, scale = gauged.reshape(m, m)._aligned(bump.scale_by(Fraction(1, 7)))
    J = CycArray(3, scale, gauged_counts + bump_counts)  # the sum on a common scale
    cfg_file = write_table_instance(
        tmp_path, twist=TwistData(subgroup=t.subgroup, order=3, J=J))
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["verify", "--config", str(cfg_file), "--out", str(out)], capsys)
    assert rc == 1
    report = json.loads(out.read_text())
    assert "twist axiom failed: invertibility" in report["failures"]
    assert "invertibility" in stderr


def test_overflowing_axiom_check_exits_1_with_report(tmp_path, capsys):
    """A valid twist whose counts near 2**32 would overflow an exact product.

    The gauge-transformed twist J' = (u x u) J Delta0(u)^-1 with
    u = (255 e + g) / 256 satisfies every axiom, but over its common
    denominator its counts reach ~2**32, so the 2-cocycle products cannot be
    formed in int64: the check is recorded as failed, not left to wrap.
    """
    h_group, sigma = build_elementary_abelian_symplectic(3, 1)
    t = symplectic_twist(h_group, sigma)
    m = 9
    mul = h_group.mul.astype(np.int64)
    u = CycArray.zeros((m,), 3)
    u.counts[0, 0], u.counts[1, 0] = 255, 1
    u = u.scale_by(Fraction(1, 256))
    uinv = invert_in_group_algebra(u, mul)
    diag = CycArray.zeros((m, m), 3)
    diag.counts[np.arange(m), np.arange(m)] = uinv.counts
    diag = diag.scale_by(uinv.scale)
    J = ga_mul(ga_mul(cyc_tensordot(u, u, axes=0), t.J, mul), diag, mul).reduced()
    assert 1 << 31 < int(np.abs(J.counts).max()) < 1 << 32
    cfg_file = write_table_instance(
        tmp_path, twist=TwistData(subgroup=t.subgroup, order=3, J=J))
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["verify", "--config", str(cfg_file), "--out", str(out)], capsys)
    assert rc == 1
    report = json.loads(out.read_text())
    assert "twist axiom failed: 2-cocycle equation" in report["failures"]
    assert "2-cocycle equation" in stderr


def test_corrupted_twist_spectrum_skips_cosets(tmp_path, capsys):
    cfg_file = write_table_instance(tmp_path, corrupt=True)
    rc, stdout, _ = run_cli(["spectrum", "--config", str(cfg_file)], capsys)
    assert rc == 1
    report = json.loads(stdout)
    assert report["cosets"] == []
    assert any("skipped" in line for line in report["failures"])


def test_failed_preparation_exits_1_with_report(monkeypatch, tmp_path, capsys):
    """A numeric failure while preparing the cosets is a failed check, not bad input."""
    import cotwist.correspondence as correspondence

    def exhausted(*args, **kwargs):
        raise CotwistError("still failing after 10 seeds: no clean split")

    monkeypatch.setattr(correspondence, "prepare_instance", exhausted)
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["spectrum", "--p", "3", "--gamma", "1,0,0,2", "--out", str(out)], capsys)
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["cosets"] == []
    assert all(report["global_checks"].values())
    assert report["failures"] == [
        "instance preparation failed: still failing after 10 seeds: no clean split; "
        "coset analysis skipped"]
    assert "instance preparation failed" in stderr


def test_out_of_memory_coset_exits_1_with_report(monkeypatch, tmp_path, capsys):
    """An allocation numpy cannot make on one coset (numpy's
    ``_ArrayMemoryError`` is a MemoryError) is a failed check named for its
    coset, and the only one: the other cosets are reported, the partition
    sum they fall short of is no second failure, the report is written,
    exit 1."""
    import cotwist.correspondence as correspondence

    build = correspondence.build_block_algebra

    def exhausted(t, coset):
        if coset.representative != 0:
            raise MemoryError("Unable to allocate 8.66 GiB for an array")
        return build(t, coset)

    monkeypatch.setattr(correspondence, "build_block_algebra", exhausted)
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["spectrum", "--p", "3", "--gamma", "1,0,0,2", "--out", str(out)], capsys)
    assert rc == 1
    report = json.loads(out.read_text())
    assert [c["rep"] for c in report["cosets"]] == [0]
    (lost,) = report["failures"]
    assert re.fullmatch(r"coset [1-9]\d*: out of memory: Unable to allocate 8\.66 GiB for an array",
                        lost)
    assert lost in stderr


@pytest.mark.parametrize("construction, patched", [
    ("symplectic", "audit"), ("table", "audit"), ("symplectic", "triangularity")])
def test_out_of_memory_exits_1_with_report(construction, patched, monkeypatch, tmp_path, capsys):
    """An allocation that does not fit in the twist audit, on either
    construction, or in the global checks fails the checks that read it by
    name, as out of memory: the report is written and the exit code is 1."""
    import cotwist.correspondence as correspondence
    from cotwist import twist

    text = "Unable to allocate 17.3 GiB for an array"

    def exhausted(*args):
        raise MemoryError(text)

    source = (["--p", "3", "--gamma", "1,1,0,1"] if construction == "symplectic"
              else ["--config", str(write_table_instance(tmp_path))])
    if patched == "audit":  # the 2-cocycle check, whose outcome two more checks reuse
        monkeypatch.setattr(twist, "_cocycle_holds", exhausted)  # pointwise
        monkeypatch.setattr(twist, "_sides_agree", exhausted)    # contracted
        named = [f"twist axiom failed: {name} (out of memory: {text})" for name in (
            "2-cocycle equation", "coassociativity of the first deformed coproduct",
            "coassociativity of the second deformed coproduct")]
        named.append("twist failed verification; remaining global checks skipped")
    else:
        monkeypatch.setattr(correspondence, "triangular_structure", exhausted)
        named = [f"triangularity failed: out of memory: {text}"]
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(["spectrum", *source, "--out", str(out)], capsys)
    report = json.loads(out.read_text())
    assert rc == 1 and report["global_checks"]["twist_axioms"] is (patched != "audit")
    assert report["failures"] == [*named, "coset analysis skipped: global checks failed"]
    assert named[0] in stderr


def test_verify_p5_forms_no_dense_product(monkeypatch, tmp_path, capsys):
    """verify on the symplectic p = 5 instance audits the twist and runs the
    global checks pointwise: no contraction in C[H]^(x 3) (``_sides_agree``)
    and no dense product in C[H x H], nor any other ``pair_sums``, runs."""
    from cotwist import exactlin, twist

    calls = []
    for module, name in ((twist, "_sides_agree"), (exactlin, "pair_sums")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    out = tmp_path / "report.json"
    rc, _, _ = run_cli(["verify", "--p", "5", "--gamma", "1,0,0,4", "--out", str(out)], capsys)
    checks = json.loads(out.read_text())["global_checks"]
    assert rc == 0 and checks["minimality_rank"] == 25 and checks["q_identity"]
    assert calls == []


def test_degenerate_twist_at_composite_order_fails_minimality(tmp_path, capsys):
    """J = zeta_4^(x.y' - y.x') / 16 on (Z/4)^2 is a twist, but R's form
    2 (x.y' - y.x') is degenerate mod 4: the exact rank of R is 4, named, exit 1."""
    write_instance(tmp_path, *DEGENERATE)
    out = tmp_path / "report.json"
    rc, _, stderr = run_cli(
        ["spectrum", "--config", str(tmp_path / "config.json"), "--out", str(out)], capsys)
    report = json.loads(out.read_text())
    assert rc == 1 and report["global_checks"]["twist_axioms"] is True
    assert report["failures"] == ["twist is not minimal: rank 4 != |H| = 16",
                                  "coset analysis skipped: global checks failed"]
    assert report["failures"][0] in stderr


def test_h_without_characters_exits_2(monkeypatch, capsys):
    """An H whose characters the predicted route cannot read is refused as input:
    here the character routine is asked for values in mu_4 on (Z/3)^2."""
    import cotwist.correspondence as correspondence

    real = correspondence.character_exponents
    monkeypatch.setattr(correspondence, "character_exponents",
                        lambda H, order: real(H, order + 1))
    rc, _, stderr = run_cli(["spectrum", "--p", "3", "--gamma", "1,0,0,2"], capsys)
    assert rc == 2
    assert "the exponent of H does not divide the twist's order N = 4" in stderr


# ---------------------------------------------------------------------------
# input errors: exit code 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--p", "4", "--gamma", "1,0,0,1"],       # 4 is not prime
    ["spectrum", "--p", "2", "--gamma", "1,0,0,1"],       # p must be odd
    ["spectrum"],                                          # neither --p nor --config
    ["spectrum", "--p", "3", "--gamma", "1,0,0"],          # wrong entry count
    ["spectrum", "--p", "3", "--gamma", "1,0,0,x"],        # non-integer entry
    ["spectrum", "--p", "3", "--gamma", "1,1,0,1", "--config", "anything.json"],
    ["spectrum", "--config", "/nonexistent/config.json"],
])
def test_input_errors_exit_2(argv, capsys):
    rc, stdout, stderr = run_cli(argv, capsys)
    assert rc == 2
    assert stdout == ""
    assert "error:" in stderr


@pytest.mark.parametrize("target, old, new, message", [
    ("twist.txt", "\n1/9*E(3)^1\n", "\nnonsense\n", "bad cyclotomic term 'nonsense'"),
    ("twist.txt", "\n1/9*E(3)^1\n", "\n0;1/9*E(3)^1\n", "bad cyclotomic term '0'"),
    ("twist.txt", "\n1/9*E(3)^1\n", "\n1/9*E(5)^1\n", "term order 5 != expected 3"),
    ("twist.txt", "3 9", "3 nine", "invalid literal for int() with base 10: 'nine'"),
    ("group.txt", "0 1 2", "0 one 2", "invalid literal for int() with base 10: 'one'"),
    ("group.txt", "0 1 2", f"0 {1 << 64} 2", "too large"),
    ("group.txt", "9\n", "-9\n", "expected -9 rows of -9 entries, got 81 entries"),
    ("group.txt", "0 1 2", f"0 {(1 << 32) + 1} 2",
     "table entry 4294967297 is out of range for a group of order 9"),
    ("config.json", "8]", "8, 9]", "subgroup index 9 is out of range for a group of order 9"),
    ("config.json", "8]", "8, 4294967296]",
     "subgroup index 4294967296 is out of range for a group of order 9"),
], ids=["literal", "bare-zero-joined", "term-order", "twist-header", "cayley-token",
        "cayley-int64", "cayley-order", "cayley-int32", "subgroup-index", "subgroup-int32"])
def test_malformed_table_instance_exits_2(tmp_path, capsys, target, old, new, message):
    cfg_file = write_table_instance(tmp_path)
    path = tmp_path / target
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    rc, stdout, stderr = run_cli(["verify", "--config", str(cfg_file)], capsys)
    assert rc == 2
    assert stdout == ""
    assert message in stderr
    if target != "config.json":
        assert str(path) in stderr  # the message names the file


def test_non_associative_table_exits_2(tmp_path, capsys):
    """An order-5 loop, with an identity and inverses but not associative,
    with H = {e} and the order-1 twist: refused as a malformed table."""
    group_file = tmp_path / "loop.txt"
    group_file.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    twist_file = tmp_path / "twist.txt"
    twist_file.write_text("1 1\n1/1*E(1)^0\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"construction": {
        "type": "table", "group_file": str(group_file), "subgroup": [0],
        "twist_file": str(twist_file)}}))
    rc, stdout, stderr = run_cli(["spectrum", "--config", str(cfg)], capsys)
    assert rc == 2
    assert stdout == ""
    assert f"Cayley file {group_file}: table is not associative" in stderr


def test_bad_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc, _, stderr = run_cli(["spectrum", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "not valid JSON" in stderr


def test_unknown_construction_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "weird.json"
    cfg.write_text(json.dumps({"construction": {"type": "quantum"}}))
    rc, _, stderr = run_cli(["spectrum", "--config", str(cfg)], capsys)
    assert rc == 2
    assert "quantum" in stderr


def test_config_missing_construction_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    rc, _, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
    assert rc == 2


@pytest.mark.parametrize("text, message", [
    ("5", "config file lacks a 'construction' object"),
    ('"construction"', "config file lacks a 'construction' object"),
    ('["construction"]', "config file lacks a 'construction' object"),
    ("null", "config file lacks a 'construction' object"),
    ('{"construction": 5}', "bad construction in config file: 'int' object has no attribute"),
    ('{"construction": ["symplectic"]}', "bad construction in config file: 'list' object has no"),
])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    rc, stdout, stderr = run_cli(["spectrum", "--config", str(cfg)], capsys)
    assert rc == 2 and stdout == ""
    assert message in stderr


# ---------------------------------------------------------------------------
# the seed: recorded in the report, settable by --seed only

P3_UNIPOTENT = ["--p", "3", "--gamma", "1,1,0,1"]


def write_config(tmp_path, **fields):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "construction": {"type": "symplectic", "p": 3, "gamma_generators": [[[1, 1], [0, 1]]]},
        **fields}))
    return str(cfg)


def test_default_seed_is_zero(capsys):
    rc, stdout, _ = run_cli(["verify", "--p", "3", "--gamma", "1,1,0,1"], capsys)
    assert rc == 0
    assert json.loads(stdout)["seed"] == 0


def test_negative_seed_flag_exits_2(capsys):
    rc, stdout, stderr = run_cli(["spectrum", *P3_UNIPOTENT, "--seed", "-1"], capsys)
    assert rc == 2 and stdout == ""
    assert "--seed must be a nonnegative integer, got -1" in stderr


def test_seed_flag_beats_env(monkeypatch, capsys):
    """COTWIST_SEED is not read: the report records ``--seed``."""
    monkeypatch.setenv("COTWIST_SEED", "7")
    rc, stdout, _ = run_cli(
        ["verify", "--p", "3", "--gamma", "1,1,0,1", "--seed", "3"], capsys)
    assert rc == 0
    assert json.loads(stdout)["seed"] == 3


@pytest.mark.parametrize("route", ["flags", "config"])
def test_seed_flag_skips_malformed_env(tmp_path, monkeypatch, capsys, route):
    """A malformed COTWIST_SEED stops no run: nothing reads it, so the report
    records ``--seed``, or 0 without it."""
    monkeypatch.setenv("COTWIST_SEED", "x")
    instance = P3_UNIPOTENT if route == "flags" else ["--config", write_config(tmp_path)]
    for extra, seed in (([], 0), (["--seed", "3"], 3)):
        rc, stdout, stderr = run_cli(["verify", *instance, *extra], capsys)
        assert rc == 0, stderr
        assert json.loads(stdout)["seed"] == seed


def test_parser_has_two_subcommands_and_seven_options():
    parser = make_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == ["spectrum", "verify"]
    for sub in subs.choices.values():
        options = [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        assert options == ["--p", "--n", "--gamma", "--config", "--seed", "--jobs", "--out"]


def usage_error(argv, capsys) -> str:
    """The stderr of a command line argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: cotwist" in captured.err
    return captured.err


@pytest.mark.parametrize("argv", [["example"], ["example", *P3_UNIPOTENT]])
def test_example_is_not_a_subcommand(argv, capsys):
    assert "invalid choice: 'example'" in usage_error(argv, capsys)


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_malformed_tol_flag_exits_2(capsys, command, tol):
    """There is no ``--tol``: any value of it is a usage error."""
    assert "unrecognized arguments: --tol" in usage_error(
        [command, *P3_UNIPOTENT, "--tol", tol], capsys)


@pytest.mark.parametrize("seed", [-5, "x", "5", 1.5, True])
def test_malformed_config_seed_exits_2(tmp_path, capsys, seed):
    """A config file with a ``seed``, well-formed or not, is refused by name
    rather than run with the key dropped."""
    rc, stdout, stderr = run_cli(["spectrum", "--config", write_config(tmp_path, seed=seed)],
                                 capsys)
    assert rc == 2 and stdout == ""
    assert "config file has unknown key(s) 'seed'" in stderr


@pytest.mark.parametrize("tol", ["abc", -1e-8, 0, True])
def test_malformed_config_tol_exits_2(tmp_path, capsys, tol):
    rc, stdout, stderr = run_cli(["verify", "--config", write_config(tmp_path, tol=tol)], capsys)
    assert rc == 2 and stdout == ""
    assert "config file has unknown key(s) 'tol'" in stderr


@pytest.mark.parametrize("fields, named", [
    ({"seed": 4, "tol": 1e-6, "out": "-"}, "'seed', 'tol'"),
    ({"jobs": 2}, "'jobs'"),
])
def test_config_key_other_than_construction_and_out_exits_2(tmp_path, capsys, fields, named):
    rc, stdout, stderr = run_cli(["verify", "--config", write_config(tmp_path, **fields)],
                                 capsys)
    assert rc == 2 and stdout == ""
    assert f"config file has unknown key(s) {named}; " in stderr


def test_config_out_is_read(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc, stdout, _ = run_cli(["verify", "--config", write_config(tmp_path, out=str(out))], capsys)
    assert rc == 0 and stdout == ""
    assert json.loads(out.read_text())["seed"] == 0


# ---------------------------------------------------------------------------
# determinism of the written artifact


def test_out_files_byte_identical(tmp_path, capsys):
    args = ["spectrum", "--p", "3", "--gamma", "1,1,0,1", "--seed", "11"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_flag_is_transparent(tmp_path, capsys):
    base = ["spectrum", "--p", "3", "--gamma", "1,0,0,2"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(base + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(base + ["--jobs", "3", "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# gamma parsing unit checks


def test_parse_gamma_multiple_generators():
    gens = parse_gamma("1,1,0,1; 1,0,0,2", 1)
    assert gens == [[[1, 1], [0, 1]], [[1, 0], [0, 2]]]


def test_parse_gamma_n2_needs_16_entries():
    gens = parse_gamma(",".join("1" if i % 5 == 0 else "0" for i in range(16)), 2)
    assert gens == [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    with pytest.raises(InputError):
        parse_gamma("1,0,0,1", 2)


def test_parse_gamma_empty_blocks_ignored():
    assert parse_gamma(";;", 1) == []


# ---------------------------------------------------------------------------
# the installed module is runnable as a subprocess


def _child_env() -> dict:
    """The environment of a child that imports the same cotwist as this
    process, installed or not."""
    src = str(Path(cotwist.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_subprocess_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cotwist.cli", "spectrum", "--p", "3", "--gamma", "1,1,0,1",
         "--out", "-"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["totals"]["group_order"] == 27
    assert "spectrum" in proc.stderr or "coset" in proc.stderr


@pytest.mark.parametrize("instance, order", [
    (["--p", "1000000000000000003"], "1000000000000000003^2"),
    (["--p", "3", "--n", "1000000000"], "3^2000000000"),
])
def test_huge_prime_or_rank_exits_2_at_the_order_cap(instance, order):
    """p^(2n) is checked against the order cap before p is tested for
    primality, and 2n against the cap's bit length before p^(2n) is formed,
    so a 19-digit p or a 10-digit n is refused at once."""
    proc = subprocess.run(
        [sys.executable, "-m", "cotwist.cli", "verify", *instance],
        capture_output=True, text=True, timeout=30, env=_child_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"error: group order {order} exceeds cap 10000" in proc.stderr


def test_spectrum_imports_no_numpy_random(tmp_path):
    """The seed is recorded only, so a spectrum run loads no ``numpy.random``."""
    code = ("import sys; from cotwist import cli; "
            "rc = cli.main(['spectrum', '--p', '3', '--gamma', '1,1,0,1', '--seed', '5', "
            f"'--out', {str(tmp_path / 'r.json')!r}]); "
            "print(rc, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["seed"] == 5
