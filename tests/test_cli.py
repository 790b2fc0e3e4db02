import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from satake import cli
from satake.cli import main
from satake.hecke import A_BASIS, HeckeAlgebra
from satake.laurent import LaurentPoly
from satake.rep_ring import RepRing
from satake.root_datum import PRESETS, build_root_datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tensor_golden_dual_sl2(capsys):
    code, out, _ = run(capsys, "tensor", "--datum", "PGL2", "1", "1")
    assert code == 0
    assert out == '{"0":1,"2":1}\n'


def test_tensor_dual_pgl2(capsys):
    code, out, _ = run(capsys, "tensor", "--datum", "SL2", "1", "1")
    assert code == 0
    assert out == '{"0":1,"1":1,"2":1}\n'


def test_tensor_rank2(capsys):
    code, out, _ = run(capsys, "tensor", "--datum", "SL3", "1,0", "0,1")
    assert code == 0
    assert json.loads(out) == {"0,0": 1, "1,1": 1}


def test_weights_table(capsys):
    code, out, _ = run(capsys, "weights", "--datum", "PGL2", "2")
    assert code == 0
    assert json.loads(out) == {"-2": 1, "0": 1, "2": 1}


def test_predict_golden(capsys):
    code, out, _ = run(capsys, "predict", "--datum", "PGL2", "2", "0", "2")
    assert code == 0
    assert json.loads(out) == {"vanishes": False, "k": 2, "dim": 1, "frob": 2}


def test_predict_rejects_bad_hypothesis(capsys):
    code, _, err = run(capsys, "predict", "--datum", "PGL2", "2", "1", "-2")
    assert code == 2
    assert "not dominant" in err


def test_satake_golden(capsys):
    code, out, _ = run(capsys, "satake", "--datum", "PGL2", "2")
    assert code == 0
    assert json.loads(out) == {
        "basis": "C",
        "terms": [
            {"coeff": {"v": {"-2": 1}}, "coweight": [0]},
            {"coeff": {"v": {"-2": 1}}, "coweight": [2]},
        ],
    }


def test_satake_pretty_mentions_convention(capsys):
    code, out, _ = run(capsys, "satake", "--datum", "PGL2", "2", "--format", "pretty")
    assert code == 0
    assert "(q = v^2)" in out


def test_hecke_mul(capsys):
    code, out, _ = run(capsys, "hecke-mul", "--datum", "SL3", "1,0", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "A"
    assert [term["coweight"] for term in data["terms"]] == [[0, 0], [1, 1]]


def test_strata(capsys):
    code, out, _ = run(capsys, "strata", "--datum", "SL3", "1")
    assert code == 0
    assert json.loads(out) == [
        {"codim": 0, "gamma": [0, 0]},
        {"codim": 2, "gamma": [-2, 1]},
        {"codim": 2, "gamma": [1, -2]},
    ]


def test_whittaker_eval_csv(capsys):
    code, out, _ = run(capsys, "whittaker-eval", "--datum", "PGL2", "--gamma", "2/1", "--cutoff", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,numerator,denominator,v_power"
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,5,2,-1"
    assert lines[3] == "2,21,4,-2"


def test_whittaker_eval_rank2_quotes_coordinates(capsys):
    code, out, _ = run(
        capsys, "whittaker-eval", "--datum", "SL3", "--gamma", "2/1,3/1", "--cutoff", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == '"0,0",1,1,0'
    # trace of the dual fundamental at (2,3): 3 + 2/3 + 1/2 = 25/6
    assert '"1,0",25,6,-2' in lines


def test_whittaker_eval_with_q_value(capsys):
    code, out, _ = run(
        capsys, "whittaker-eval", "--datum", "PGL2", "--gamma", "2/1", "--cutoff", "2", "--q", "9"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,5,6,0"  # (2 + 1/2) / 3
    assert lines[3] == "2,7,12,0"  # (21/4) / 9


def test_whittaker_eval_rejects_non_square_q(capsys):
    code, _, err = run(capsys, "whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--q", "3")
    assert code == 2
    assert "square" in err


def test_verify_eq2_pass(capsys):
    code, out, _ = run(capsys, "verify-eq2", "--datum", "PGL2", "2", "3")
    assert code == 0
    assert out == "PASS 18/18\n"


def test_verify_eq2_json_report(capsys):
    code, out, _ = run(capsys, "verify-eq2", "--datum", "PGL2", "1", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert all(record["pass"] for record in records)
    assert records[0].keys() == {"lambda", "mu", "nu", "q", "lhs", "rhs", "pass"}


def test_verify_eq2_rejects_composite_field_size(capsys):
    code, _, err = run(capsys, "verify-eq2", "--datum", "PGL2", "2", "4")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize(
    "argv, count",
    [
        (("20", "7"), "7^20 points"),
        (("8", "3", "7"), "7^8 points"),
        (("1000000000", "3"), "3^1000000000 points"),
        (("0", "1000003"), "1000003^0 points, each with a ψ-value of 1000002 integers"),
    ],
    ids=["m20-q7", "m8-q7", "huge-m", "huge-q"],
)
def test_oversized_eq2_battery_is_refused_while_parsing(capsys, monkeypatch, argv, count):
    from satake import rank1_oracle
    from satake.rank1_oracle import Rank1Oracle

    def no_work(*args, **kwargs):
        raise AssertionError("the battery started")

    monkeypatch.setattr(rank1_oracle, "is_prime", no_work)
    monkeypatch.setattr(Rank1Oracle, "verify_eq2", no_work)
    start = time.monotonic()
    code, out, err = run(capsys, "verify-eq2", "--datum", "PGL2", *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert count in err


@pytest.mark.parametrize("argv", [("5", "3", "5", "7"), ("8", "3")])
def test_eq2_point_budget_admits_the_largest_batteries_in_use(capsys, monkeypatch, argv):
    from satake.rank1_oracle import Eq2Report, Rank1Oracle

    monkeypatch.setattr(Rank1Oracle, "verify_eq2", lambda self, m_max, primes: Eq2Report(()))
    assert run(capsys, "verify-eq2", "--datum", "PGL2", *argv) == (0, "PASS 0/0\n", "")


def test_value_error_inside_a_running_battery_is_exit_3(capsys, monkeypatch):
    from satake.rank1_oracle import Rank1Oracle

    def broken(self, lam, mu, nu, q):
        raise ValueError("library bug")

    monkeypatch.setattr(Rank1Oracle, "eq2_lhs", broken)
    code, out, err = run(capsys, "verify-eq2", "--datum", "PGL2", "1", "3")
    assert code == 3 and out == ""
    assert "internal error: library bug" in err


def test_verify_eq2_rejects_wrong_datum(capsys):
    code, _, err = run(capsys, "verify-eq2", "--datum", "SL3", "2", "3")
    assert code == 2


def test_verify_cs_pass(capsys):
    code, out, _ = run(capsys, "verify-cs", "--datum", "PGL2", "6", "--gammas", "2")
    assert code == 0
    assert "basis-compatibility: PASS" in out
    assert "module-axiom: PASS" in out
    assert "eigenfunction: PASS" in out


def test_verify_cs_json(capsys):
    code, out, _ = run(capsys, "verify-cs", "--datum", "SL3", "4", "--gammas", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(check.keys() == {"name", "cases", "failures"} for check in payload["checks"])


def test_unknown_datum_is_usage_error(capsys):
    code, _, err = run(capsys, "tensor", "--datum", "NOPE", "1", "1")
    assert code == 2
    assert "unknown datum" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_coweight_length_mismatch(capsys):
    code, _, err = run(capsys, "tensor", "--datum", "SL3", "1", "1")
    assert code == 2
    assert "coordinates" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "satake", "--datum", "SL3", "2,1")
    _, second, _ = run(capsys, "satake", "--datum", "SL3", "2,1")
    assert first == second
    _, third, _ = run(capsys, "verify-eq2", "--datum", "PGL2", "3", "3", "5", "--format", "json")
    _, fourth, _ = run(capsys, "verify-eq2", "--datum", "PGL2", "3", "3", "5", "--format", "json")
    assert third == fourth


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "tensor", "--datum", "PGL2", "1", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == '{"0":1,"2":1}\n'


# success in every output format, --out, nargs="+", argparse and command usage errors
# and --help; "OUT" stands for a file path
_PARSER_ARGVS = [
    ("tensor", "--datum", "SL3", "1,0", "0,1"),
    ("weights", "--datum", "G2", "--format", "csv", "1,0"),
    ("satake", "--datum", "PGL2", "--format", "pretty", "2"),
    ("whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "2"),
    ("verify-eq2", "--datum", "PGL2", "--format", "json", "2", "3", "5"),
    ("verify-eq2", "--datum", "PGL2", "1", "7"),
    ("predict", "--datum", "PGL2", "--out", "OUT", "2", "0", "2"),
    ("strata", "--datum", "SL3", "--format", "csv", "--out", "OUT", "1"),
    ("tensor", "--datum", "SL3", "1,0"),
    ("tensor", "--format", "xml", "1", "1"),
    ("frobnicate",),
    (),
    ("satake", "--datum", "SL3", "--", "-1,2"),
    ("--help",),
    ("verify-eq2", "--help"),
]


def _run_parser_argvs(capsys, out_path):
    """(exit code, stdout, stderr, text written to --out) for each of _PARSER_ARGVS."""
    results = []
    for argv in _PARSER_ARGVS:
        code = main([str(out_path) if arg == "OUT" else arg for arg in argv])
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        results.append((code, captured.out, captured.err, written))
    return results


def test_main_reuses_one_parser_with_unchanged_output(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "out.txt"
    monkeypatch.setenv("COLUMNS", "60")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser for every call
        fresh = _run_parser_argvs(capsys, out_path)
    assert {code for code, *_ in fresh} == {0, 2}
    assert sum(written is not None for *_, written in fresh) == 2

    # build the shared parser under another terminal width and other streams: help and
    # usage text must follow the width and streams in force when they are written
    build_parser, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    with monkeypatch.context() as patch:
        patch.setenv("COLUMNS", "200")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli._parser()
        wide_help = run(capsys, "--help")
    assert wide_help[1] != fresh[_PARSER_ARGVS.index(("--help",))][1]

    assert [_run_parser_argvs(capsys, out_path) for _ in range(2)] == [fresh, fresh]
    assert builds == [1]


def _parser_state(parser):
    """What parse_args could change: each parser's defaults and every action's settings."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (dict(p._defaults),
         [(a.dest, a.option_strings, a.default, a.nargs, a.choices, a.required, a.type)
          for a in p._actions])
        for p in [parser, *sub.choices.values()]
    ]


def test_shared_parser_holds_no_state_between_parses(capsys):
    parser = cli._parser()
    before = _parser_state(parser)
    defaults = [default for _, actions in before for _, _, default, *_ in actions]
    assert all(default is None or type(default) in (str, int) for default in defaults)

    first = parser.parse_args(["verify-eq2", "2", "3", "5"])
    first.primes.append(7)
    assert parser.parse_args(["verify-eq2", "2", "3", "5"]).primes == [3, 5]
    for argv in _PARSER_ARGVS:
        try:
            parser.parse_args(list(argv))
        except SystemExit:
            pass
    capsys.readouterr()
    assert _parser_state(parser) == before


def test_explicit_datum_file(tmp_path, capsys):
    datum_file = tmp_path / "datum.json"
    datum_file.write_text(json.dumps({"cartan": [[2]], "coroots": [[2]], "roots": [[1]]}))
    code, out, _ = run(capsys, "tensor", "--datum", str(datum_file), "1", "1")
    assert code == 0
    assert out == '{"0":1,"2":1}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("satake", "--datum", "PGL2", "2", "--format", "csv"),
        ("hecke-mul", "--datum", "PGL2", "1", "1", "--format", "pretty"),
        ("whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--format", "pretty"),
        ("strata", "--datum", "SL3", "1", "--format", "pretty"),
        ("verify-cs", "--datum", "PGL2", "2", "--format", "csv"),
        ("verify-eq2", "--datum", "PGL2", "1", "3", "--format", "csv"),
    ],
)
def test_unsupported_format_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "command", [("tensor", "1", "1"), ("satake", "2"), ("verify-eq2", "1", "3")]
)
def test_q_is_only_accepted_by_whittaker_eval(capsys, command):
    code, out, err = run(capsys, *command, "--datum", "PGL2", "--q", "9")
    assert code == 2
    assert out == ""
    assert "--q" in err


def test_jobs_flag_is_gone(capsys):
    code, _, err = run(capsys, "verify-eq2", "--datum", "PGL2", "2", "3", "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


def test_verify_cs_names_its_first_counterexample(capsys, monkeypatch):
    from satake.hecke import BasisElement
    from satake.laurent import ONE, ZERO
    from satake.whittaker import WhittakerModule

    honest_act = WhittakerModule.act
    honest_residual = WhittakerModule.eigen_residual

    def act(self, w, h):
        out = honest_act(self, w, h)
        if set(h.terms) == {(2,)}:  # corrupt every action of A_2
            out = BasisElement(out.basis, {**out.terms, (0,): out.terms.get((0,), ZERO) + ONE})
        return out

    def eigen_residual(self, gamma, lam_act, cutoff):
        residual = honest_residual(self, gamma, lam_act, cutoff)
        residual[(2,)] += 1
        return residual

    monkeypatch.setattr(WhittakerModule, "act", act)
    monkeypatch.setattr(WhittakerModule, "eigen_residual", eigen_residual)
    code, out, _ = run(capsys, "verify-cs", "--datum", "PGL2", "2", "--gammas", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "basis-compatibility: FAIL 1 (3 cases)"
    assert lines[1] == "  first failure lambda=2: lhs=PHI{0: 1; 2: 1} rhs=PHI{2: 1}"
    assert lines[2] == "module-axiom: FAIL 3 (9 cases)"
    assert lines[3].startswith("  first failure lambda=0 mu=2: lhs=PHI{2: 1} rhs=PHI{0: 1; 2: 1}")
    assert lines[5].startswith("  first failure gamma=")
    assert " lambda=1 nu=2: lhs=" in lines[5]

    code, out, _ = run(
        capsys, "verify-cs", "--datum", "PGL2", "2", "--gammas", "1", "--format", "json"
    )
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[0]["first_failure"] == {
        "inputs": {"lambda": "2"},
        "lhs": "PHI{0: 1; 2: 1}",
        "rhs": "PHI{2: 1}",
    }
    eigen = checks[2]["first_failure"]
    assert eigen["inputs"]["nu"] == "2"
    assert Fraction(eigen["lhs"]) - Fraction(eigen["rhs"]) == 1


def test_internal_invariant_violation_is_exit_3(capsys, monkeypatch):
    from satake import rep_ring

    def broken(self, lam, mu):
        raise AssertionError("negative tensor multiplicity")

    monkeypatch.setattr(rep_ring.RepRing, "tensor_decompose", broken)
    code, _, err = run(capsys, "tensor", "--datum", "PGL2", "1", "1")
    assert code == 3
    assert "internal invariant" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-eq2", "--datum", "PGL2", "-1", "3"), "m_max"),
        (("verify-eq2", "--datum", "PGL2", "3", "--"), "required: q"),
        (("verify-cs", "--datum", "PGL2", "--", "-1"), "window would be empty"),
        (("verify-cs", "--datum", "PGL2", "2", "--gammas", "0"), "--gammas"),
        (("verify-eq2", "--datum", "PGL2", "2", "3", "3"), "distinct primes"),
    ],
)
def test_empty_battery_is_usage_error(capsys, monkeypatch, argv, message):
    from satake.rank1_oracle import Rank1Oracle
    from satake.whittaker import WhittakerModule

    def no_work(*args, **kwargs):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(Rank1Oracle, "verify_eq2", no_work)
    monkeypatch.setattr(WhittakerModule, "act", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("datum, lam", [("GL2", "2"), ("GL3", "2")])
def test_verify_cs_refuses_central_torus_before_any_check(capsys, monkeypatch, datum, lam):
    from satake.hecke import HeckeAlgebra
    from satake.whittaker import WhittakerModule

    def no_work(*args, **kwargs):
        raise AssertionError("a check ran before the datum was refused")

    monkeypatch.setattr(WhittakerModule, "act", no_work)
    monkeypatch.setattr(WhittakerModule, "eigen_residual", no_work)
    monkeypatch.setattr(HeckeAlgebra, "mul", no_work)
    code, out, err = run(capsys, "verify-cs", "--datum", datum, lam)
    assert code == 2
    assert out == ""
    assert "central torus" in err


@pytest.mark.parametrize(
    "content",
    [
        '{"coroots": [[2]], "roots": [[1]]}',  # no Cartan matrix
        '[[2]]',
        '"PGL2"',
        '{"cartan": 5, "coroots": [[2]], "roots": [[1]]}',
        '{"cartan": [[2]], "coroots": [[2.5]], "roots": [[1]]}',
        '{"cartan": [[2]], "coroots": [[null]], "roots": [[1]]}',
        '{"cartan": [[2, -2], [-2, 2]], "coroots": [[2, -2], [-2, 2]], "roots": [[1, 0], [0, 1]]}',
        '{nope',
    ],
)
def test_malformed_datum_file_is_usage_error(tmp_path, capsys, content):
    datum_file = tmp_path / "datum.json"
    datum_file.write_text(content)
    code, out, err = run(capsys, "tensor", "--datum", str(datum_file), "1", "1")
    assert code == 2 and out == ""
    assert "datum" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tensor", "--datum", "SL3", "--", "1,1", "-1,2"),
        ("tensor", "--datum", "SL3", "--", "-1,2", "1,1"),
        ("weights", "--datum", "G2", "--", "1,-1"),
        ("satake", "--datum", "GL2", "--", "0,1"),
        ("hecke-mul", "--datum", "PGL2", "--", "2", "-1"),
        ("predict", "--datum", "PGL2", "--", "-1", "2", "2"),
    ],
)
def test_non_dominant_coweight_is_rejected_while_parsing(capsys, monkeypatch, argv):
    from satake.hecke import HeckeAlgebra
    from satake.rep_ring import RepRing

    def reached(*args, **kwargs):
        raise AssertionError("the computation ran on unchecked input")

    for cls, name in [(RepRing, "tensor_decompose"), (RepRing, "weight_table"),
                      (HeckeAlgebra, "satake_to_c"), (HeckeAlgebra, "mul")]:
        monkeypatch.setattr(cls, name, reached)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "is not dominant" in err


def test_negative_bound_is_usage_error(capsys, monkeypatch):
    from satake import grassmannian
    from satake.root_datum import RootDatum

    monkeypatch.setattr(grassmannian, "combinations", lambda pool, r: [][-1])
    monkeypatch.setattr(RootDatum, "dominant_box", lambda self, bound: [][bound])
    for argv in [("strata", "--datum", "SL3", "--", "-1"),
                 ("whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "-1")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nonnegative" in err


@pytest.mark.parametrize("argv, scan", [
    (("whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "100000"), 50001 ** 2),
    (("verify-cs", "--datum", "SL3", "100000"), 50001 ** 2),
    (("whittaker-eval", "--datum", "GL3", "--gamma=2,3,5", "--cutoff", "100000"), 200001 ** 3),
], ids=["whittaker-eval", "verify-cs", "whittaker-eval-central"])
def test_a_huge_cutoff_is_refused_before_the_dominant_box_is_scanned(capsys, argv, scan):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "scan of %d candidates, over the limit of 1000000" % scan in err


def test_verify_cs_refuses_an_oversized_module_axiom_battery(capsys, monkeypatch):
    from satake.whittaker import WhittakerModule

    def unreachable(self, w, h):
        raise AssertionError("a battery ran before the refusal")

    # SL3 at cutoff 100: 1326 dominant coweights, so 1326² pairs
    monkeypatch.setattr(WhittakerModule, "act", unreachable)
    code, out, err = run(capsys, "verify-cs", "--datum", "SL3", "100")
    assert code == 2 and out == ""
    assert "cutoff 100 gives 1758276 module-axiom pairs; the limit is 1000000" in err


def test_verify_cs_prints_the_same_under_python_O():
    # every contract is a raised exception, so stripping asserts changes no output
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "satake.cli", "verify-cs", "--datum", "SL3", "6", "--gammas", "2", "--format", "json"]
    outputs = [subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True,
                              text=True, timeout=60) for flags in ([], ["-O"])]
    assert [done.returncode for done in outputs] == [0, 0], [done.stderr for done in outputs]
    assert outputs[0].stdout == outputs[1].stdout
    assert json.loads(outputs[0].stdout)["pass"] is True


def test_strata_budget_is_checked_while_parsing(capsys, monkeypatch):
    from satake import grassmannian

    def no_work(pool, r):
        raise AssertionError("the strata were listed")

    monkeypatch.setattr(grassmannian, "combinations", no_work)
    start = time.monotonic()
    code, out, err = run(capsys, "strata", "--datum", "SL3", "1413")  # C(1415, 2) strata
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "bound 1413 gives 1000405 strata; the limit is 1000000" in err
    monkeypatch.setattr(grassmannian, "combinations", lambda pool, r: [])
    assert run(capsys, "strata", "--datum", "SL3", "1412") == (0, "[]\n", "")  # 998,991


def test_satake_refuses_an_oversized_weyl_group_while_parsing(tmp_path, capsys):
    # E7 on Z^7 with the simple coroots as unit vectors: |W| = 2,903,040
    cartan = [[2 * (i == j) for j in range(7)] for i in range(7)]
    for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]:
        cartan[i][j] = cartan[j][i] = -1
    datum_file = tmp_path / "e7.json"
    datum_file.write_text(json.dumps({
        "cartan": cartan, "coroots": [[int(i == j) for j in range(7)] for i in range(7)],
        "roots": cartan}))
    highest = "2,2,3,4,3,2,1"  # the highest coroot, whose weights are the 133 of the adjoint
    start = time.monotonic()
    code, out, err = run(capsys, "satake", "--datum", str(datum_file), highest)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "the Weyl group has 2903040 elements, over the limit of 1000000" in err
    code, out, _ = run(capsys, "weights", "--datum", str(datum_file), highest)
    assert code == 0 and sum(json.loads(out).values()) == 133


def test_weights_and_tensor_refuse_an_oversized_table_while_parsing(tmp_path, capsys, monkeypatch):
    from satake.rep_ring import RepRing

    def unreachable(self, lam):
        raise RuntimeError("a weight table was started before the refusal")

    monkeypatch.setattr(RepRing, "dominant_weights_below", unreachable)
    # E7 on Z^7 with the simple coroots as unit vectors, at λ = 2ρ̌: |W| = 2,903,040 alone
    cartan = [[2 * (i == j) for j in range(7)] for i in range(7)]
    for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]:
        cartan[i][j] = cartan[j][i] = -1
    datum_file = tmp_path / "e7.json"
    datum_file.write_text(json.dumps({
        "cartan": cartan, "coroots": [[int(i == j) for j in range(7)] for i in range(7)],
        "roots": cartan}))
    cases = [
        (("weights", "--datum", "SL3", "1001,1001"), "V^(1001, 1001) may hold 6024024 entries"),
        (("weights", "--datum", str(datum_file), "34,49,66,96,75,52,27"), "|W| = 2903040"),
        (("tensor", "--datum", "SL3", "1001,1001", "1001,1000"), "V^(1001, 1000) may hold"),
    ]
    for argv, message in cases:
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and message in err, argv
    monkeypatch.undo()
    # the factor Brauer–Klimyk reads is (1, 0), so the product is admitted
    code, out, _ = run(capsys, "tensor", "--datum", "SL3", "1001,1001", "1,0")
    assert code == 0 and json.loads(out) == {"1002,1001": 1, "1000,1002": 1, "1001,1000": 1}


def test_satake_refuses_an_oversized_q_kostant_box_while_parsing(capsys, monkeypatch):
    from satake.rep_ring import RepRing

    def unreachable(self, lam, mu):
        raise RuntimeError("a q-analog ran before the refusal")

    # SL3 at (1001, 1001): the row's box is ⌊C⁻¹·p(λ)⌋ = (1001, 1001), 1002² points
    monkeypatch.setattr(RepRing, "lusztig_q_analog", unreachable)
    start = time.monotonic()
    code, out, err = run(capsys, "satake", "--datum", "SL3", "1001,1001")
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "box (1001, 1001) would hold 1004004 points, over the limit of 1000000" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "satake", "--datum", "SL3", "20,20", "--format", "pretty")
    assert code == 0 and out.startswith("c_0,0: ") and out.endswith("(q = v^2)\n")


# one oversized input per subcommand, each refused before its work starts; hecke-mul and
# predict read the table of (1001, 1001), the smaller factor, and ran unbounded before
OVERSIZED = [
    (("tensor", "--datum", "SL3", "1001,1001", "1001,1000"), "V^(1001, 1000) may hold"),
    (("weights", "--datum", "SL3", "1001,1001"), "may hold 6024024 entries"),
    (("satake", "--datum", "SL3", "1001,1001"), "would hold 1004004 points"),
    (("hecke-mul", "--datum", "SL3", "1001,1001", "1001,1001"), "may hold 6024024 entries"),
    (("whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "100000"), "scan of"),
    (("predict", "--datum", "SL3", "1001,1001", "1001,1001", "0,0"), "may hold 6024024 entries"),
    (("strata", "--datum", "SL3", "1413"), "gives 1000405 strata"),
    (("verify-cs", "--datum", "SL3", "100"), "gives 1758276 module-axiom pairs"),
    (("verify-eq2", "--datum", "PGL2", "20", "7"), "7^20 points"),
]


def test_every_subcommand_has_an_oversized_case():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv, _ in OVERSIZED) == sorted(sub.choices)


@pytest.mark.parametrize("argv, message", OVERSIZED, ids=[argv[0] for argv, _ in OVERSIZED])
def test_every_subcommand_refuses_an_oversized_input(capsys, monkeypatch, argv, message):
    from satake import grassmannian, rank1_oracle
    from satake.rank1_oracle import Rank1Oracle
    from satake.rep_ring import RepRing
    from satake.whittaker import WhittakerModule

    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the refusal")

    for owner, name in [(RepRing, "dominant_weights_below"), (RepRing, "lusztig_q_analog"),
                        (grassmannian, "combinations"), (WhittakerModule, "act"),
                        (Rank1Oracle, "verify_eq2"), (rank1_oracle, "is_prime")]:
        monkeypatch.setattr(owner, name, no_work)
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert message in err and ("limit of 1000000" in err or "limit is 1000000" in err)


def test_library_value_error_is_exit_3(capsys, monkeypatch):
    from satake import rep_ring

    def broken(self, lam, mu):
        raise ValueError("library bug")

    monkeypatch.setattr(rep_ring.RepRing, "tensor_decompose", broken)
    code, _, err = run(capsys, "tensor", "--datum", "PGL2", "1", "1")
    assert code == 3
    assert "internal error: library bug" in err


# ⟨λ, 2ρ̌⟩ bounds of the coweights drawn for the JSON round trips
_JSON_BOUNDS = {"PGL2": 6, "SL2": 6, "GL2": 3, "SL3": 6, "GL3": 2, "Sp4": 8, "G2": 10}


def _json_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def _decode_element(wire, basis):
    """{μ: coefficient} from {"basis": b, "terms": [{"coweight": μ, "coeff": {"v": {e: c}}}]}."""
    assert wire["basis"] == basis
    return {tuple(term["coweight"]): LaurentPoly({int(e): c for e, c in term["coeff"]["v"].items()})
            for term in wire["terms"]}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)), data=st.data())
def test_json_output_decodes_to_the_library_values(name, data):
    box = build_root_datum(name).dominant_box(_JSON_BOUNDS[name])
    lam, mu = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    keys = [",".join(map(str, cw)) for cw in (lam, mu)]
    algebra = HeckeAlgebra(name)
    row = _json_main("satake", "--datum", name, "--format", "json", "--", keys[0])
    assert _decode_element(row, "C") == algebra.satake_row(lam)
    product = _json_main("hecke-mul", "--datum", name, "--", *keys)
    a_lam, a_mu = algebra.monomial(A_BASIS, lam), algebra.monomial(A_BASIS, mu)
    assert _decode_element(product, "A") == algebra.mul(a_lam, a_mu).terms
    tensor = _json_main("tensor", "--datum", name, "--format", "json", "--", *keys)
    decoded = {tuple(int(x) for x in key.split(",")): mult for key, mult in tensor.items()}
    assert decoded == RepRing(name).tensor_decompose(lam, mu)
