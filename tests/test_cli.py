import argparse
import contextlib
import csv
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
from satake.root_datum import PRESETS, RootDatum, build_root_datum

from conftest import SKEWED_SL3


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


@pytest.mark.parametrize("argv, message", [
    (("tensor", "--datum", "SL3", "1,x", "1,1"), "cannot parse coweight '1,x'"),
    (("whittaker-eval", "--datum", "SL3", "--gamma", "2,x"), "cannot parse torus point '2,x'"),
    (("whittaker-eval", "--datum", "SL3", "--gamma", "2,1/0"), "cannot parse torus point '2,1/0'"),
    (("whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--q", "nine"), "cannot parse q value 'nine'"),
    (("whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--q", "1/0"), "cannot parse q value '1/0'"),
    (("whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--q", "0"), "q must be a positive rational"),
    (("whittaker-eval", "--datum", "PGL2", "--gamma", "2", "--q=-4"), "q must be a positive rational"),
], ids=["coweight", "torus-point", "torus-point-zero-denominator", "q-text", "q-zero-denominator",
        "q-zero", "q-negative"])
def test_unparsable_or_nonpositive_text_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: " + message in err


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


def test_verify_eq2_names_each_failing_triple_with_both_sides(capsys, monkeypatch, corrupted_oracle):
    # the oracle reads p_{2,0} ← q from a corrupted base change, so λ = 2 fails at ν = 0
    monkeypatch.setattr(cli, "Rank1Oracle", lambda datum: corrupted_oracle)
    code, out, err = run(capsys, "verify-eq2", "--datum", "PGL2", "2", "3")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "FAIL 15/18",
        "FAIL lambda=2 mu=0 nu=0 q=3: lhs=2/3 rhs=0",
        "FAIL lambda=2 mu=1 nu=0 q=3: lhs=5/3 rhs=1",
        "FAIL lambda=2 mu=2 nu=0 q=3: lhs=5/3 rhs=1",
    ]
    code, out, _ = run(capsys, "verify-eq2", "--datum", "PGL2", "2", "3", "--format", "json")
    records = json.loads(out)
    assert code == 1 and len(records) == 18
    failing = [r for r in records if r["pass"] is False]
    assert [(r["lambda"], r["mu"], r["nu"]) for r in failing] == [(2, 0, 0), (2, 1, 0), (2, 2, 0)]
    assert failing[0] == {"lambda": 2, "mu": 0, "nu": 0, "q": 3, "lhs": "2/3", "rhs": "0", "pass": False}


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


def test_every_call_in_a_process_shares_one_datum_per_preset():
    for name in PRESETS:
        datum = cli._load_datum(name)
        assert cli._load_datum(name) is datum
        # build_root_datum still returns a fresh datum, equal to the shared one
        assert build_root_datum(name) == datum and build_root_datum(name) is not datum


def test_a_datum_file_is_read_at_every_call(tmp_path, capsys):
    datum_file = tmp_path / "datum.json"
    datum_file.write_text(json.dumps(PRESETS["PGL2"]))
    assert run(capsys, "tensor", "--datum", str(datum_file), "1", "1") == (0, '{"0":1,"2":1}\n', "")
    datum_file.write_text(json.dumps(PRESETS["SL2"]))
    assert run(capsys, "tensor", "--datum", str(datum_file), "1", "1") == (0, '{"0":1,"1":1,"2":1}\n', "")
    assert cli._load_datum(str(datum_file)) is not cli._load_datum(str(datum_file))


def _kind_argvs(name):
    """One argv per command kind on a preset, every other one writing to --out ("OUT").

    The coweights are the two dominant λ of least positive level, so on GL2 and GL3 they carry
    the center.
    """
    datum = build_root_datum(name)
    lam, mu = [",".join(map(str, nu)) for nu in datum.dominant_box(10) if datum.pairing_2rho(nu)][:2]
    zero = ",".join("0" * datum.lattice_rank)
    gamma = ",".join("235"[:datum.lattice_rank])
    argvs = [("tensor", (lam, mu), ()), ("weights", (lam,), ()), ("satake", (lam,), ()),
             ("hecke-mul", (mu, mu), ()), ("whittaker-eval", (), ("--gamma=" + gamma, "--cutoff", "2")),
             ("predict", (lam, mu, zero), ()), ("strata", ("2",), ()),
             ("verify-cs", ("2",), ("--gammas", "1")), ("verify-eq2", ("2", "3"), ())]
    return [(command, "--datum", name, *options, *(("--out", "OUT") if k % 2 else ()),
             *(("--", *positionals) if positionals else ()))
            for k, (command, positionals, options) in enumerate(argvs)]


_KIND_ARGVS = [argv for name in sorted(PRESETS) for argv in _kind_argvs(name)]


def _run_kinds(capsys, out_path, fresh):
    """(exit code, stdout, stderr, --out text) of each of _KIND_ARGVS; fresh clears the preset
    datum before every call."""
    results = []
    for argv in _KIND_ARGVS:
        if fresh:
            cli._preset_datum.cache_clear()
        code = main([str(out_path) if arg == "OUT" else arg for arg in argv])
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        results.append((code, captured.out, captured.err, written))
    return results


def test_a_shared_preset_datum_prints_what_a_fresh_one_prints(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    cli._preset_datum.cache_clear()
    shared = _run_kinds(capsys, out_path, fresh=False)
    assert cli._preset_datum.cache_info().misses == len(PRESETS)
    # shared, then fresh, then shared again: both orders print the same bytes
    assert _run_kinds(capsys, out_path, fresh=True) == shared
    assert _run_kinds(capsys, out_path, fresh=False) == shared
    # every kind succeeded somewhere, some calls were refused (verify-eq2 above rank 1, verify-cs
    # on GL2 and GL3), and each call with --out that succeeded wrote its output there
    assert {code for code, *_ in shared} == {0, 2}
    assert {argv[0] for argv, (code, *_) in zip(_KIND_ARGVS, shared) if code == 0} == set(
        argv[0] for argv in _KIND_ARGVS)
    assert [written is not None for *_, written in shared] == [
        "OUT" in argv and code == 0 for argv, (code, *_) in zip(_KIND_ARGVS, shared)]


def _fresh_process(*argv, flags=()):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter started with flags."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *flags, "-m", "satake.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_refused_call_leaves_later_calls_as_a_fresh_process_runs_them(capsys):
    refused, normal = ("satake", "--datum", "SL3", "1001,1001"), ("satake", "--datum", "SL3", "3,2")
    expected = {argv: _fresh_process(*argv) for argv in (refused, normal)}
    assert expected[refused][0] == 2 and "over the limit" in expected[refused][2]
    assert expected[normal][0] == 0
    for order in [(refused, normal), (normal, refused)]:
        cli._preset_datum.cache_clear()
        assert [run(capsys, *argv) for argv in order] == [expected[argv] for argv in order]


def test_every_call_builds_its_own_ring_on_the_shared_datum(capsys, monkeypatch):
    rings, init = [], RepRing.__init__
    monkeypatch.setattr(RepRing, "__init__", lambda self, datum: rings.append(self) or init(self, datum))
    calls = [("tensor", "--datum", "SL3", "1,0", "0,1"), ("tensor", "--datum", "SL3", "1,0", "0,1"),
             ("satake", "--datum", "SL3", "2,1"), ("verify-cs", "--datum", "SL3", "2", "--gammas", "1")]
    for argv in calls:
        assert run(capsys, *argv)[0] == 0
    assert len({id(ring) for ring in rings}) == len(rings) == len(calls)
    assert all(ring.datum is cli._load_datum("SL3") for ring in rings)


def test_explicit_datum_file(tmp_path, capsys):
    datum_file = tmp_path / "datum.json"
    datum_file.write_text(json.dumps({"cartan": [[2]], "coroots": [[2]], "roots": [[1]]}))
    code, out, _ = run(capsys, "tensor", "--datum", str(datum_file), "1", "1")
    assert code == 0
    assert out == '{"0":1,"2":1}\n'


def test_a_skewed_basis_of_the_lattice_keeps_every_dominant_weight(tmp_path, capsys):
    datum_file = tmp_path / "skewed.json"
    datum_file.write_text(json.dumps(SKEWED_SL3))
    code, out, _ = run(capsys, "whittaker-eval", "--datum", str(datum_file), "--gamma", "2,3",
                       "--cutoff", "4")
    assert code == 0
    # the six dominant λ of level ≤ 4, three of them with a coordinate above the level
    assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == [
        "0,0", "0,1", "1,5", "0,2", "1,6", "2,10"]
    code, out, _ = run(capsys, "verify-cs", "--datum", str(datum_file), "8", "--gammas", "2")
    assert code == 0 and "eigenfunction: PASS" in out, out


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


def _tampered_datum(monkeypatch, name, **cached):
    """Every call loads a fresh datum of the preset name whose cached properties are overridden."""
    def load(spec):
        datum = build_root_datum(name)
        datum.__dict__.update(cached)
        return datum

    monkeypatch.setattr(cli, "_load_datum", load)


def _fractional_weyl_dimension(monkeypatch):
    _tampered_datum(monkeypatch, "SL3", two_rho_dual=(2, 4))


def _truncated_w0_word(monkeypatch):
    _tampered_datum(monkeypatch, "SL3", _w0_word=build_root_datum("SL3")._w0_word[:-1])


def _wrong_weyl_order(monkeypatch):
    _tampered_datum(monkeypatch, "SL3", weyl_order=5)


def _zero_weight_once(monkeypatch):
    # V^(1,1) with its zero weight at multiplicity 1, not 2: every entry positive
    weights = RepRing._weights

    def tampered(self, lam):
        table = weights(self, lam)
        return tuple((tau, 1 if tau == (0, 0) else m) for tau, m in table) if lam == (1, 1) else table

    monkeypatch.setattr(RepRing, "_weights", tampered)


def _disagreeing_routes(monkeypatch):
    from satake.rank1_oracle import Cyclotomic

    monkeypatch.setattr(Cyclotomic, "to_integer", lambda self: self.vec[0] + 1)


def _mixed_parities(monkeypatch):
    from satake.laurent import V
    from satake.rank1_oracle import Rank1Oracle

    def build(datum):
        oracle = Rank1Oracle(datum)
        row = oracle.hecke.satake_row((2,))
        oracle._rows[2] = {**row, (0,): row[(0,)] + V.shift(-2)}
        return oracle

    monkeypatch.setattr(cli, "Rank1Oracle", build)


@pytest.mark.parametrize("tamper, argv, message", [
    (_fractional_weyl_dimension, ("weights", "--datum", "SL3", "1,0"),
     "Weyl dimension of (1, 0) is 128/48"),
    (_truncated_w0_word, ("weights", "--datum", "SL3", "1,1"),
     "V^(1, 1) multiplicities that sum to 5, the least 1, for dim V^λ = 8"),
    (_zero_weight_once, ("verify-cs", "--datum", "SL3", "4", "--gammas", "1"),
     "negative tensor multiplicity"),
    (_wrong_weyl_order, ("whittaker-eval", "--datum", "SL3", "--gamma", "2,3", "--cutoff", "4"),
     "a closure of 6 elements for |W| = 5"),
    (_disagreeing_routes, ("verify-eq2", "--datum", "PGL2", "2", "3"), "evaluation paths disagree"),
    (_mixed_parities, ("verify-eq2", "--datum", "PGL2", "2", "3"), "mixes v-parities"),
], ids=["weyl-dimension", "demazure", "walked-product", "weyl-closure", "charsum-routes",
        "v-parities"])
def test_a_broken_invariant_behind_a_command_exits_3(capsys, monkeypatch, tamper, argv, message):
    tamper(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("internal invariant violation: ") and message in err


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
        '{"cartan": [[2]], "coroots": [[2]], "roots": [[true]]}',
        '{"cartan": [[2]], "coroots": [["2"]], "roots": [[1]]}',
        '{"cartan": [[2, -2], [-2, 2]], "coroots": [[2, -2], [-2, 2]], "roots": [[1, 0], [0, 1]]}',
        '{nope',
        '{"cartan": [[2]], "coroots": [[2], [1]], "roots": [[1]]}',
        '{"cartan": [[2]], "coroots": [[2, 0]], "roots": [[1]]}',
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
    # GL3 walks its central coordinate over |z| ≤ 100000 and two pairings over 0 … 50000
    (("whittaker-eval", "--datum", "GL3", "--gamma=2,3,5", "--cutoff", "100000"), 200001 * 50001 ** 2),
], ids=["whittaker-eval", "verify-cs", "whittaker-eval-central"])
def test_a_huge_cutoff_is_refused_before_the_dominant_box_is_scanned(capsys, argv, scan):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "scan of %d candidates, over the limit of 1000000" % scan in err


def test_whittaker_eval_refuses_an_oversized_table_before_any_trace(capsys, monkeypatch):
    from satake.whittaker import WhittakerModule

    def unreachable(self, gamma, lam):
        raise RuntimeError("a trace was computed before the refusal")

    # SL3 at cutoff 1999: the scan of 1000² pairings is admitted, and its 500500 dominant
    # coweights, each a trace of level up to 1999, are counted, not built
    monkeypatch.setattr(WhittakerModule, "whittaker_value", unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, "whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "1999")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "cutoff 1999 gives 500500 traces × level 1999 = 1000499500, over the limit of 1000000" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "whittaker-eval", "--datum", "SL3", "--gamma=2,3", "--cutoff", "100")
    assert code == 0 and len(out.splitlines()) == 1 + 51 * 52 // 2


def test_whittaker_eval_on_central_data_refuses_an_oversized_table_before_the_box(capsys, monkeypatch):
    from satake.root_datum import RootDatum

    # GL3 at cutoff 49: 26975 dominant coweights in the box |λ_i| ≤ 49 are counted off the walk
    monkeypatch.setattr(RootDatum, "dominant_box", lambda self, bound: [][bound])
    start = time.perf_counter()
    code, out, err = run(capsys, "whittaker-eval", "--datum", "GL3", "--gamma=2,3,5", "--cutoff", "49")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "cutoff 49 gives 26975 traces × level 49 = 1321775, over the limit of 1000000" in err


def test_verify_cs_refuses_an_oversized_module_axiom_battery(capsys, monkeypatch):
    from satake.whittaker import WhittakerModule

    def unreachable(self, w, h):
        raise AssertionError("a battery ran before the refusal")

    # SL3 at cutoff 100: 1326 dominant coweights, so 1326² pairs
    monkeypatch.setattr(WhittakerModule, "act", unreachable)
    code, out, err = run(capsys, "verify-cs", "--datum", "SL3", "100")
    assert code == 2 and out == ""
    assert "cutoff 100 gives 1758276 module-axiom pairs, over the limit of 1000000" in err


def test_verify_cs_refuses_an_oversized_battery_without_building_the_box(capsys):
    # SL3 at cutoff 1999: the scan of 1000² pairings is admitted, and its 500500 dominant
    # coweights are counted, not built
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-cs", "--datum", "SL3", "1999")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "cutoff 1999 gives 250500250000 module-axiom pairs, over the limit of 1000000" in err


def test_verify_cs_refuses_too_many_torus_points_before_building_them(capsys, monkeypatch):
    from satake.whittaker import WhittakerModule

    def unreachable(*args):
        raise AssertionError("a check ran before the refusal")

    # SL3 at cutoff 6 acts by the 5 dominant coweights of level 2 and 4 at each torus point
    monkeypatch.setattr(WhittakerModule, "act", unreachable)
    monkeypatch.setattr(WhittakerModule, "eigen_residual", unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-cs", "--datum", "SL3", "6", "--gammas", "1000000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert ("--gammas 1000000000 × 5 acting weights gives 5000000000 eigenfunction checks, "
            "over the limit of 1000000") in err
    code, _, err = run(capsys, "verify-cs", "--datum", "SL3", "6", "--gammas", "200001")
    assert code == 2 and "gives 1000005 eigenfunction checks" in err


def test_verify_cs_prints_the_same_under_python_O():
    # every contract is a raised exception, so stripping asserts changes no output
    argv = ["verify-cs", "--datum", "SL3", "6", "--gammas", "2", "--format", "json"]
    outputs = [_fresh_process(*argv, flags=flags) for flags in ([], ["-O"])]
    assert [code for code, _, _ in outputs] == [0, 0], [err for _, _, err in outputs]
    assert outputs[0][1] == outputs[1][1]
    assert json.loads(outputs[0][1])["pass"] is True


def test_strata_budget_is_checked_while_parsing(capsys, monkeypatch):
    from satake import grassmannian

    def no_work(pool, r):
        raise AssertionError("the strata were listed")

    monkeypatch.setattr(grassmannian, "combinations", no_work)
    start = time.monotonic()
    code, out, err = run(capsys, "strata", "--datum", "SL3", "1413")  # C(1415, 2) strata
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert "bound 1413 gives 1000405 strata, over the limit of 1000000" in err
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
    def unreachable(self):
        raise RuntimeError("a weight table was started before the refusal")

    monkeypatch.setattr(RootDatum, "_w0_word", property(unreachable))  # every table reads it
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
    monkeypatch.setattr(RootDatum, "_w0_word", property(no_work))  # read by every weight table
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
