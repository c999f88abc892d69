"""CLI behavior: commands, determinism, exit codes, the mutant check."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import run_child

from fuchskit import jsonio
from fuchskit.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_exponents(self, capsys):
        code, out = run_cli(capsys, "exponents", "--json", '{"dim": 1, "matrix": [["1/2"]]}')
        assert code == 0
        assert json.loads(out) == {"exponents": ["1/2"]}

    def test_mon_of_unit(self, capsys):
        code, out = run_cli(capsys, "mon", "--json", '{"dim": 1, "matrix": [["0"]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 1
        assert doc["monodromy"][0][0] == {"conductor": 1, "coeffs": ["1"]}

    def test_rm_of_minus_one(self, capsys):
        v = '{"dim": 1, "monodromy": [["-1"]]}'
        code, out = run_cli(capsys, "rm", "--json", v)
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"][0][0] == {"0": {"conductor": 1, "coeffs": ["1/2"]}}

    def test_constant_form_shearing(self, capsys):
        m = '{"dim": 2, "matrix": [[{}, {"1": "1"}], [{}, {}]]}'
        code, out = run_cli(capsys, "constant-form", "--json", m)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"gauge", "constant"}

    def test_fuchs(self, capsys):
        code, out = run_cli(capsys, "fuchs", "--json", '{"dim": 1, "matrix": [["3/2"]]}')
        assert code == 0
        doc = json.loads(out)
        assert doc["exponents"] == ["1/2"]
        assert doc["factors"] == [{"conductor": 1, "coeffs": ["3/2"]}]

    def test_solve_dsigma(self, capsys):
        job = '{"operator": "dsigma", "target": {"ell_coeffs": [{"0": {"0": "1"}}]}}'
        code, out = run_cli(capsys, "solve", "--json", job)
        assert code == 0
        doc = json.loads(out)
        # the solution is ell
        assert doc["solution"]["ell_coeffs"][1] == {"0": {"0": {"conductor": 1, "coeffs": ["1"]}}}

    def test_solve_partial(self, capsys):
        job = '{"operator": "partial", "target": {"ell_coeffs": [{"0": {"0": "1"}}]}}'
        code, out = run_cli(capsys, "solve", "--json", job)
        assert code == 0
        # partial(ell) = 1
        assert json.loads(out)["solution"]["ell_coeffs"][1] == {"0": {"0": {"conductor": 1, "coeffs": ["1"]}}}

    def test_solve_unknown_operator(self, capsys):
        code, out = run_cli(capsys, "solve", "--json", '{"operator": "nope", "target": {"ell_coeffs": []}}')
        assert code == 2

    def test_hom_and_ext(self, capsys):
        pair = '{"left": {"dim": 1, "matrix": [["0"]]}, "right": {"dim": 1, "matrix": [["1"]]}}'
        code, out = run_cli(capsys, "hom", "--json", pair)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 1 and doc["mon_comparison"]["ok"]
        code, out = run_cli(capsys, "ext", "--json", pair)
        assert json.loads(out) == {"dimension": 1}

    def test_hom_searches_each_constant_form_once(self, capsys, monkeypatch):
        from fuchskit import functors, jsonio
        from fuchskit.diffmod import DiffModule, base_change, laurent_matrix
        from fuchskit.laurent import LaurentPoly

        calls = []
        search = functors.find_constant_form

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(functors, "find_constant_form", counted)
        t, t_inv = LaurentPoly.t_power(1), LaurentPoly.t_power(-1)
        c = DiffModule(laurent_matrix([["1/2", 1], [0, "1/2"]]))
        left = base_change(c, laurent_matrix([[t, 0], [1, t_inv]]))
        right = base_change(c, laurent_matrix([[1, t], [0, 1]]))
        pair = json.dumps({"left": jsonio.encode_diffmodule(left), "right": jsonio.encode_diffmodule(right)})
        code, out = run_cli(capsys, "hom", "--json", pair, "--exponent-candidates", "1/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 2 and doc["mon_comparison"]["ok"]
        assert len(calls) == 2

    def test_hom_computes_the_hom_space_once(self, capsys, monkeypatch):
        from fuchskit import diffmod, functors

        calls = []
        hom = diffmod._hom_basis

        def counted(*args, **kwargs):
            calls.append(args)
            return hom(*args, **kwargs)

        for module in (diffmod, functors):
            monkeypatch.setattr(module, "_hom_basis", counted)
        pair = json.dumps({
            "left": {"dim": 2, "matrix": [["1/2", "1"], ["0", "1/2"]]},
            "right": {"dim": 2, "matrix": [["1/2", "0"], ["0", "1/3"]]},
        })
        code, out = run_cli(capsys, "hom", "--json", pair)
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 1 and doc["mon_comparison"]["hom_dim"] == 1 and doc["mon_comparison"]["ok"]
        assert len(calls) == 1

    def test_trivialize(self, capsys):
        v = '{"dim": 1, "monodromy": [["-1"]]}'
        code, out = run_cli(capsys, "trivialize", "--json", v)
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"][0][0]["ell_coeffs"][0] == {"1/2": {"0": {"conductor": 1, "coeffs": ["1"]}}}

    def test_verify_subset(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "scalar", "--seed", "7", "--cases", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and all(p["id"].startswith("scalar") for p in doc["properties"])

    def test_input_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "matrix": [["1/3"]]}')
        code, out = run_cli(capsys, "exponents", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"exponents": ["1/3"]}

    def test_missing_input_file_is_invalid_input(self, capsys, tmp_path):
        code, out = run_cli(capsys, "exponents", "--input", str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"

    def test_non_utf8_input_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe")
        code, out = run_cli(capsys, "exponents", "--input", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ("mon", "--json", '{"dim": 2, "matrix": [["0", "1"], ["0", "0"]]}')
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_verify_deterministic(self, capsys):
        args = ("verify", "--suite", "laurent", "--seed", "11", "--cases", "4")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_verify_report_is_pinned(self):
        # byte for byte what `fuchs-kit verify --suite all --seed 42 --cases 8` prints
        from fuchskit.verify import run_suite

        report = json.dumps(run_suite(seed=42, cases=8), indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == "c7b9ec5e1bd2df20941307d8230f05547925524627cb4076e01da478f9cded03"

    def test_output_reparses_to_same_value(self, capsys):
        from fuchskit import jsonio
        from fuchskit.functors import rm
        from fuchskit.sigmamod import rank_one as v_rank_one
        from fuchskit.scalar import Cyclotomic

        _, out = run_cli(capsys, "rm", "--json", '{"dim": 1, "monodromy": [["-1"]]}')
        assert jsonio.decode_diffmodule(json.loads(out)) == rm(v_rank_one(Cyclotomic.from_rat(-1)))


class TestTwistOfOne:
    @pytest.mark.parametrize("command", ["exponents", "mon", "constant-form", "fuchs"])
    def test_same_bytes_as_the_standard_derivation(self, capsys, command):
        matrix = '"dim": 2, "matrix": [[{}, {"1": "1"}], [{}, {"0": "1/2"}]]'
        standard = run_cli(capsys, command, "--json", f"{{{matrix}}}")
        assert standard[0] == 0
        assert run_cli(capsys, command, "--json", f'{{{matrix}, "derivation": {{"twist": "1"}}}}') == standard


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out = run_cli(capsys, "constant-form", "--json",
                            '{"dim": 1, "matrix": [[{"0": "1", "1": "1"}]]}', "--degree-bound", "4")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotFoundWithinBounds"

    def test_negative_degree_bound_is_two(self, capsys):
        code, out = run_cli(capsys, "constant-form", "--json",
                            '{"dim": 1, "matrix": [[{"0": "1", "1": "1"}]]}', "--degree-bound", "-1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"

    def test_not_root_of_unity_is_one(self, capsys):
        code, out = run_cli(capsys, "rm", "--json", '{"dim": 1, "monodromy": [["2"]]}')
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotRootOfUnity"

    def test_non_unit_twist_is_one(self, capsys):
        code, out = run_cli(capsys, "exponents", "--json",
                            '{"dim": 1, "matrix": [["0"]], "derivation": {"twist": "0"}}')
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotAUnit"

    def test_malformed_json_is_two(self, capsys):
        code, out = run_cli(capsys, "exponents", "--json", "{nope")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"

    def test_unknown_field_is_two(self, capsys):
        code, out = run_cli(capsys, "exponents", "--json", '{"dim": 1, "matrix": [["0"]], "x": 0}')
        assert code == 2

    def test_missing_input_is_two(self, capsys):
        code, out = run_cli(capsys, "exponents")
        assert code == 2

    def test_input_and_json_together_is_two(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "matrix": [["1/3"]]}')
        code, out = run_cli(capsys, "exponents", "--input", str(path), "--json", '{"dim": 1, "matrix": [["0"]]}')
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidInput" and "not both" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("--suite", "nosuch"),
        ("--cases", "0"),
        ("--cases", "-2"),
        ("--max-dim", "0"),
    ])
    def test_malformed_verify_is_two(self, capsys, argv):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"

    @pytest.mark.parametrize("candidates", ["", " ", ","])
    def test_empty_exponent_candidates_is_two(self, capsys, candidates):
        code, out = run_cli(capsys, "mon", "--json", '{"dim": 1, "matrix": [[{"0": "1/2", "1": "1"}]]}',
                            "--exponent-candidates", candidates, "--degree-bound", "2")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidInput"

    def test_huge_conductor_is_two_without_factoring(self):
        # two 19-digit prime factors: Pollard rho would need ~10^9 steps,
        # but one coefficient cannot fill a conductor above 2
        cell = '{"conductor": 1000000001000000090000000003000000261, "coeffs": ["1"]}'
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fuchskit"].__file__)))
        proc = subprocess.run([sys.executable, "-m", "fuchskit.cli", "rm", "--json",
                               f'{{"dim": 1, "monodromy": [[{cell}]]}}'],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=2)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "InvalidInput"


_DATA_OPTIONS = ("-h", "--help", "--input", "--json")
_SEARCH_OPTIONS = _DATA_OPTIONS + ("--exponent-candidates", "--degree-bound")

# (command, help, option strings), in the order the parser lists them
PARSER_STRUCTURE = [
    ("exponents", "multiset of exponents of a differential module", _SEARCH_OPTIONS),
    ("mon", "monodromy representation of a differential module", _SEARCH_OPTIONS),
    ("rm", "differential module attached to a representation of Z", _DATA_OPTIONS),
    ("constant-form", "gauge to a constant connection matrix", _SEARCH_OPTIONS),
    ("fuchs", "Fuchs decomposition: triangularizing gauge and rank-one factors", _SEARCH_OPTIONS),
    ("solve", "solve d_sigma(x) = y or partial(x) = y in the exponent ring", _DATA_OPTIONS),
    ("hom", "basis of horizontal morphisms between two modules", _SEARCH_OPTIONS),
    ("ext", "dimension of the Yoneda extension group Ext(M, N)", _SEARCH_OPTIONS),
    ("trivialize", "trivializing matrix of a representation over the exponent ring", _DATA_OPTIONS),
    ("verify", "run the seeded property suites", ("-h", "--help", "--suite", "--seed", "--cases", "--max-dim")),
]


class TestParserStructure:
    """The sub-commands, read off the parser itself: --help text wraps
    differently across Python versions."""

    @staticmethod
    def subcommands():
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        helps = {a.dest: a.help for a in sub._choices_actions}
        return [(name, helps[name], tuple(s for a in p._actions for s in a.option_strings))
                for name, p in sub.choices.items()]

    def test_commands_help_and_options(self):
        assert self.subcommands() == PARSER_STRUCTURE

    @pytest.mark.parametrize("command", [name for name, _, options in PARSER_STRUCTURE if "--input" in options])
    def test_input_and_json_together_or_neither_is_two(self, capsys, tmp_path, command):
        path = tmp_path / "in.json"
        path.write_text("{}")
        for argv in ([command, "--input", str(path), "--json", "{}"], [command]):
            code, out = run_cli(capsys, *argv)
            assert code == 2, argv
            assert json.loads(out)["error"]["type"] == "InvalidInput"


class TestBeyondUnitRoots:
    """M = [[0, 2], [1, 0]] has the eigenvalues +-sqrt(2), in Q(zeta_8) but
    outside Q and the roots of unity: ext counts them through the Hom
    module's integer eigenvalues, while hom needs Jordan blocks of M."""

    MODULE = {"dim": 2, "matrix": [["0", "2"], ["1", "0"]]}
    PAIR = json.dumps({"left": MODULE, "right": MODULE})

    def test_ext(self, capsys):
        code, out = run_cli(capsys, "ext", "--json", self.PAIR)
        assert code == 0
        assert json.loads(out) == {"dimension": 2}

    def test_hom(self, capsys):
        code, out = run_cli(capsys, "hom", "--json", self.PAIR)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "EigenvalueNotFound"


def sheared_fifth_json():
    """The module [[1/5, 1], [0, 1/5]] sheared by [[t, 1], [0, 1]]: its
    constant-form search meets eigenvalues of conductor 5."""
    from fuchskit import jsonio
    from fuchskit.diffmod import DiffModule, base_change, laurent_matrix
    from fuchskit.laurent import LaurentPoly

    c = DiffModule(laurent_matrix([["1/5", 1], [0, "1/5"]]))
    m = base_change(c, laurent_matrix([[LaurentPoly.t_power(1), 1], [0, 1]]))
    return json.dumps(jsonio.encode_diffmodule(m))


class TestConductorBound:
    """The eigenvalue search is a decision, so no command takes a bound on
    the orders of the roots of unity it tries."""

    @pytest.mark.parametrize("command", ["exponents", "mon", "rm", "constant-form", "fuchs",
                                         "solve", "hom", "ext", "trivialize"])
    def test_flag_is_refused(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--conductor-bound", "3", "--json", "{}"])
        assert exc.value.code == 2

    def test_environment_default(self):
        # the variable that once set the bound's default changes nothing
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fuchskit"].__file__)))
        env = dict(os.environ, FUCHS_KIT_CONDUCTOR_BOUND="3", PYTHONPATH=src)
        argv = ["mon", "--json", sheared_fifth_json(), "--exponent-candidates", "1/5"]
        proc = subprocess.run([sys.executable, "-m", "fuchskit.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout)["monodromy"][0][0]["conductor"] == 5

    def test_verify_takes_no_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--conductor-bound", "3"])
        assert exc.value.code == 2


class TestMutantDetection:
    def test_broken_gamma_fails_suite(self, capsys, monkeypatch):
        # a gamma without the homomorphism property must be caught
        import fuchskit.scalar as scalar_mod
        from fuchskit.scalar import Cyclotomic, ExponentClass

        real_gamma = scalar_mod.gamma

        def mutant(a):
            a = ExponentClass(a)
            if a.value == 0:
                return Cyclotomic.one()
            return real_gamma(a) * Cyclotomic.from_rat(2)  # breaks multiplicativity

        monkeypatch.setattr(scalar_mod, "gamma", mutant)
        code, out = run_cli(capsys, "verify", "--suite", "scalar.gamma", "--seed", "3", "--cases", "6")
        doc = json.loads(out)
        assert not doc["ok"]
        failing = {p["id"] for p in doc["properties"] if p["failures"]}
        assert "scalar.gamma-homomorphism" in failing


# A sheared 3-dimensional module: J(1/2, 2) + (5/12), conjugated by a
# constant matrix with entries zeta_12 and zeta_12^3, then gauged by one with
# zeta_12 t^-1 and t entries.  G has conductor-12 coefficients and degrees
# -1, 0 and 1; the search classes are 1/2 and 7/12.  The expected stdout was
# recorded before the window search used the shift identity.
PINNED_INPUT = (
    '{"derivation": "t d/dt", "dim": 3, "matrix": [[{"0": {"coeffs": ["1/2"], "conductor": 1}}, '
    '{"-1": {"coeffs": ["0", "-1", "0", "0"], "conductor": 12}, "0": {"coeffs": ["1"], "conductor": 1}}, {}], '
    '[{}, {"0": {"coeffs": ["1/2"], "conductor": 1}}, {}], '
    '[{"0": {"coeffs": ["0", "0", "0", "1/12"], "conductor": 12}}, '
    '{"-1": {"coeffs": ["1/12", "0", "-1/12", "0"], "conductor": 12}, '
    '"0": {"coeffs": ["1/12", "0", "-1/12", "1"], "conductor": 12}, "1": {"coeffs": ["13/12"], "conductor": 1}}, '
    '{"0": {"coeffs": ["5/12"], "conductor": 1}}]]}'
)
PINNED_OUTPUT = {
    "constant-form": (
        '{"constant":[[{"coeffs":["1/2"],"conductor":1},{"coeffs":["1"],"conductor":1},'
        '{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["1/2"],"conductor":1},'
        '{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},'
        '{"coeffs":["5/12"],"conductor":1}]],'
        '"gauge":[[{"0":{"coeffs":["1"],"conductor":1}},{"-1":{"coeffs":["0","-1","0","0"],"conductor":12}},{}],'
        '[{},{"0":{"coeffs":["1"],"conductor":1}},{}],[{"0":{"coeffs":["0","0","0","1"],"conductor":12}},'
        '{"-1":{"coeffs":["1","0","-1","0"],"conductor":12},"0":{"coeffs":["1","0","-1","0"],"conductor":12},'
        '"1":{"coeffs":["1"],"conductor":1}},{"0":{"coeffs":["-1"],"conductor":1}}]]}'
    ),
    "fuchs": (
        '{"exponents":["5/12","1/2","1/2"],"factors":[{"coeffs":["5/12"],"conductor":1},'
        '{"coeffs":["1/2"],"conductor":1},{"coeffs":["1/2"],"conductor":1}],'
        '"gauge":[[{"0":{"coeffs":["0","0","0","1"],"conductor":12}},{"-1":{"coeffs":["1","0","-1","0"],"conductor":12},'
        '"0":{"coeffs":["1","0","-1","0"],"conductor":12},"1":{"coeffs":["1"],"conductor":1}},'
        '{"0":{"coeffs":["-1"],"conductor":1}}],[{"0":{"coeffs":["1"],"conductor":1}},'
        '{"-1":{"coeffs":["0","-1","0","0"],"conductor":12}},{}],[{},{"0":{"coeffs":["1"],"conductor":1}},{}]],'
        '"triangular":[[{"coeffs":["5/12"],"conductor":1},{"coeffs":["0"],"conductor":1},'
        '{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["1/2"],"conductor":1},'
        '{"coeffs":["1"],"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},'
        '{"coeffs":["1/2"],"conductor":1}]]}'
    ),
}

# A sheared 3-dimensional module over Q(zeta_3) and Q(i): J(1/6, 2) + (0),
# with a zeta_3 and an i above the diagonal, gauged by one with zeta_3 t and
# i t^-1 entries.  G mixes coefficients of conductors 3, 4 and 12, and the
# search classes are 0 and 1/6.  The expected stdout was recorded before the
# window images were evaluated by Horner's rule in integers.
PINNED_MIXED_INPUT = (
    '{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["-1","0","1","0"],"conductor":12}},'
    '{"0":{"coeffs":["0","1"],"conductor":3},"1":{"coeffs":["-7/6","1","13/6","0"],"conductor":12}},'
    '{"1":{"coeffs":["0","-1","0","0"],"conductor":12}}],[{"-1":{"coeffs":["1"],"conductor":1}},'
    '{"0":{"coeffs":["7/6","0","-1","-1"],"conductor":12}},{"0":{"coeffs":["0","1"],"conductor":4}}],'
    '[{"-1":{"coeffs":["1","-7/6"],"conductor":4}},{"-1":{"coeffs":["0","-1","0","0"],"conductor":12},'
    '"0":{"coeffs":["1","-7/6","-1","-1"],"conductor":12}},{"0":{"coeffs":["1/6","1"],"conductor":4}}]]}'
)
PINNED_MIXED_OUTPUT = {
    "constant-form": (
        '{"constant":[[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],'
        '"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["1/6"],"conductor":1},{"coeffs":["1"],'
        '"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["1/6"],'
        '"conductor":1}]],"gauge":[[{"-1":{"coeffs":["-36"],"conductor":1},"0":{"coeffs":["0","0","1","0"],'
        '"conductor":12}},{"0":{"coeffs":["-30","0","36","36"],"conductor":12},"1":{"coeffs":["1"],'
        '"conductor":1}},{"0":{"coeffs":["0","0","0","-36"],"conductor":12}}],[{"-1":{"coeffs":["1","-2","1",'
        '"0"],"conductor":12}},{},{"0":{"coeffs":["2","-1","-2","2"],"conductor":12}}],[{"-1":{"coeffs":["0",'
        '"1","-1","0"],"conductor":12}},{"0":{"coeffs":["0","-1"],"conductor":6}},{"0":{"coeffs":["-1","1",'
        '"1","-1"],"conductor":12}}]]}'
    ),
    "fuchs": (
        '{"exponents":["0","1/6","1/6"],"factors":[{"coeffs":["0"],"conductor":1},{"coeffs":["1/6"],'
        '"conductor":1},{"coeffs":["1/6"],"conductor":1}],"gauge":[[{"-1":{"coeffs":["-36"],"conductor":1},'
        '"0":{"coeffs":["0","0","1","0"],"conductor":12}},{"0":{"coeffs":["-30","0","36","36"],'
        '"conductor":12},"1":{"coeffs":["1"],"conductor":1}},{"0":{"coeffs":["0","0","0","-36"],'
        '"conductor":12}}],[{"-1":{"coeffs":["1","-2","1","0"],"conductor":12}},{},{"0":{"coeffs":["2","-1",'
        '"-2","2"],"conductor":12}}],[{"-1":{"coeffs":["0","1","-1","0"],"conductor":12}},'
        '{"0":{"coeffs":["0","-1"],"conductor":6}},{"0":{"coeffs":["-1","1","1","-1"],"conductor":12}}]],'
        '"triangular":[[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],'
        '"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["1/6"],"conductor":1},{"coeffs":["1"],'
        '"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["1/6"],'
        '"conductor":1}]]}'
    ),
}


# A representation and a pair of constant modules with Q(zeta_3) and Q(i)
# entries, none in Jordan shape, so that trivialize and hom run the Jordan
# elimination, the inverse and (for hom) the Sylvester kernel.  The monodromy
# is J(zeta_3, 2) + (i) with an i and a 2 zeta_3 above the diagonal; the
# constants have the exponents 3/2, 1/2, 0 and 1/2, 3/2, -2/3.  The expected
# stdout was recorded while Matrix.rref was a dense Gauss-Jordan elimination,
# before it and Matrix.nullspace were read off linalg.column_kernel.
PINNED_TRIVIALIZE_INPUT = (
    '{"dim":3,"monodromy":[[{"coeffs":["0","1"],"conductor":3},{"coeffs":["0","2"],"conductor":3},'
    '{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0","1"],"conductor":4},'
    '{"coeffs":["0"],"conductor":1}],[{"coeffs":["1"],"conductor":1},{"coeffs":["0","1"],"conductor":4},'
    '{"coeffs":["0","1"],"conductor":3}]]}'
)

PINNED_HOM_INPUT = (
    '{"left":{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["3/2"],"conductor":1}},'
    '{"0":{"coeffs":["0","1"],"conductor":4}},{"0":{"coeffs":["3/2"],"conductor":1}}],[{},'
    '{"0":{"coeffs":["1/2"],"conductor":1}},{"0":{"coeffs":["1","-2"],"conductor":3}}],[{},{},{}]]},'
    '"right":{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["1/2"],"conductor":1}},{},{}],'
    '[{"0":{"coeffs":["1"],"conductor":1}},{"0":{"coeffs":["3/2"],"conductor":1}},{}],'
    '[{"0":{"coeffs":["1","-1/3"],"conductor":3}},{"0":{"coeffs":["1","1/3"],"conductor":3}},'
    '{"0":{"coeffs":["-2/3"],"conductor":1}}]]}}'
)

PINNED_ELIMINATION_OUTPUT = {
    "trivialize": (
        '{"basis":[[{"ell_coeffs":[]},{"ell_coeffs":[{"2/3":{"0":{"coeffs":["0","1"],"conductor":3}}}]},'
        '{"ell_coeffs":[{"3/4":{"0":{"coeffs":["16/61","30/61","-36/61","24/61"],"conductor":12}}}]}],'
        '[{"ell_coeffs":[]},{"ell_coeffs":[]},{"ell_coeffs":[{"3/4":{"0":{"coeffs":["7/61","-25/61","30/61",'
        '"-20/61"],"conductor":12}}}]}],[{"ell_coeffs":[{"2/3":{"0":{"coeffs":["1"],"conductor":1}}}]},'
        '{"ell_coeffs":[{},{"2/3":{"0":{"coeffs":["-1"],"conductor":1}}}]},'
        '{"ell_coeffs":[{"3/4":{"0":{"coeffs":["1"],"conductor":1}}}]}]]}'
    ),
    "hom": (
        '{"basis":[[[{},{},{}],[{},{"-1":{"coeffs":["26/49","39/196"],"conductor":3}},'
        '{"-1":{"coeffs":["13/7","-13/14"],"conductor":3}}],[{},{"-1":{"coeffs":["3/14","1/7"],'
        '"conductor":3}},{"-1":{"coeffs":["1"],"conductor":1}}]],[[{},{"0":{"coeffs":["-3024/12913",'
        '"-21735/25826","-36785/51652","8757/25826"],"conductor":12}},{"0":{"coeffs":["-54929/12913",'
        '"-47691/12913","-12593/25826","52227/12913"],"conductor":12}}],[{"0":{"coeffs":["-10413/12913",'
        '"-21684/12913","-4563/12913","-32136/12913"],"conductor":12}},{"0":{"coeffs":["56844/12913",'
        '"30861/25826","-49951/51652","-38709/25826"],"conductor":12}},{"0":{"coeffs":["123244/12913",'
        '"15165/12913","-168965/25826","-100431/12913"],"conductor":12}}],[{"0":{"coeffs":["-2502/12913",'
        '"-1728/12913","-3708/12913","-18168/12913"],"conductor":12}},{"0":{"coeffs":["1"],"conductor":1}},'
        '{}]],[[{},{"0":{"coeffs":["-4326/12913","5607/51652","7245/12913","2457/51652"],"conductor":12}},'
        '{"0":{"coeffs":["3024/12913","21735/25826","31794/12913","-8757/25826"],"conductor":12}}],'
        '[{"0":{"coeffs":["1287/180782","-3042/12913","34515/180782","9984/12913"],"conductor":12}},'
        '{"0":{"coeffs":["-2616/12913","-108279/361564","-10287/12913","54405/361564"],"conductor":12}},'
        '{"0":{"coeffs":["-292209/180782","-30861/25826","-309409/180782","38709/25826"],"conductor":12}}],'
        '[{"0":{"coeffs":["-351/12913","-2472/12913","1152/12913","4140/12913"],"conductor":12}},{},'
        '{"0":{"coeffs":["1"],"conductor":1}}]],[[{"1":{"coeffs":["-504/937","1953/1874","1827/3748",'
        '"-1155/1874"],"conductor":12}},{"1":{"coeffs":["-399/937","-1827/3748","1953/1874","-189/3748"],'
        '"conductor":12}},{"1":{"coeffs":["0","0","7/4","0"],"conductor":12}}],[{"1":{"coeffs":["504/937",'
        '"-1953/1874","-1827/3748","1155/1874"],"conductor":12}},{"1":{"coeffs":["399/937","1827/3748",'
        '"-1953/1874","189/3748"],"conductor":12}},{"1":{"coeffs":["0","0","-7/4","0"],"conductor":12}}],'
        '[{"1":{"coeffs":["-27/937","228/937","288/937","-558/937"],"conductor":12}},'
        '{"1":{"coeffs":["330/937","-288/937","228/937","261/937"],"conductor":12}},{"1":{"coeffs":["1"],'
        '"conductor":1}}]]],"dimension":4,"mon_comparison":{"dual_exponents_match":true,"hom_dim":4,'
        '"hom_match":true,"mon_hom_dim":4,"ok":true,"tensor_exponents_match":true}}'
    ),
}


class TestPinnedConductor12:
    """Conductor labels depend on the order of additions, so these bytes
    guard every regrouping of the sums in the constant-form search."""

    @pytest.mark.parametrize("command", ["constant-form", "fuchs"])
    def test_bytes(self, capsys, command):
        code, out = run_cli(
            capsys, command, "--json", PINNED_INPUT, "--exponent-candidates", "1/2,5/12", "--degree-bound", "3"
        )
        assert code == 0
        # the CLI prints json.dumps(doc, indent=2, sort_keys=True), which
        # these compact documents render to byte for byte
        assert out == json.dumps(json.loads(PINNED_OUTPUT[command]), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["constant-form", "fuchs"])
    def test_mixed_conductor_bytes(self, capsys, command):
        code, out = run_cli(
            capsys, command, "--json", PINNED_MIXED_INPUT, "--exponent-candidates", "0,1/6", "--degree-bound", "3"
        )
        assert code == 0
        assert out == json.dumps(json.loads(PINNED_MIXED_OUTPUT[command]), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["trivialize", "hom"])
    def test_elimination_bytes(self, capsys, command):
        doc = {"trivialize": PINNED_TRIVIALIZE_INPUT, "hom": PINNED_HOM_INPUT}[command]
        code, out = run_cli(capsys, command, "--json", doc)
        assert code == 0
        assert out == json.dumps(json.loads(PINNED_ELIMINATION_OUTPUT[command]), indent=2, sort_keys=True) + "\n"


# Sheared mixed Q(zeta_3)/Q(i) input whose window search keeps the Laurent
# operator: with G packed at the lcm label 12, the gauge entry
# (-29/38 - 3/19 z3) t^-2, labelled 3 here, would print at label 12.
PINNED_MIXED_WINDOW_INPUT = (
    '{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["-2/3","-1"],"conductor":3}},{"-4":{"coeff'
    's":["-2/3","1/2"],"conductor":3}},{"-1":{"coeffs":["-11/6","0","1","-1"],"conductor":12}}],[{"4":{"c'
    'oeffs":["4/3","-2"],"conductor":3}},{"0":{"coeffs":["4/3","1"],"conductor":3}},{"3":{"coeffs":["-10/'
    '3","0","2","-1"],"conductor":12}}],[{},{},{"0":{"coeffs":["-1/2"],"conductor":1}}]]}'
)

PINNED_MIXED_WINDOW_OUTPUT = {
    "constant-form": (
        '{"constant":[[{"coeffs":["1/2"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"condu'
        'ctor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor"'
        ':1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["2/3"],"conductor":1}'
        ']],"gauge":[[{},{},{"1":{"coeffs":["1"],"conductor":1}}],[{"2":{"coeffs":["1"],"conductor":1}},{"-2"'
        ':{"coeffs":["-29/38","-3/19"],"conductor":3}},{"1":{"coeffs":["-1","6/19","0","9/19"],"conductor":12'
        '}}],[{"2":{"coeffs":["1"],"conductor":1}},{"-2":{"coeffs":["-1/2"],"conductor":1}},{"1":{"coeffs":["'
        '-1","0","0","-3"],"conductor":12}}]]}'
    ),
    "fuchs": (
        '{"exponents":["0","1/2","2/3"],"factors":[{"coeffs":["0"],"conductor":1},{"coeffs":["1/2"],"conducto'
        'r":1},{"coeffs":["2/3"],"conductor":1}],"gauge":[[{"2":{"coeffs":["1"],"conductor":1}},{"-2":{"coeff'
        's":["-29/38","-3/19"],"conductor":3}},{"1":{"coeffs":["-1","6/19","0","9/19"],"conductor":12}}],[{},'
        '{},{"1":{"coeffs":["1"],"conductor":1}}],[{"2":{"coeffs":["1"],"conductor":1}},{"-2":{"coeffs":["-1/'
        '2"],"conductor":1}},{"1":{"coeffs":["-1","0","0","-3"],"conductor":12}}]],"triangular":[[{"coeffs":['
        '"0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],'
        '"conductor":1},{"coeffs":["1/2"],"conductor":1},{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"co'
        'nductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["2/3"],"conductor":1}]]}'
    ),
}


class TestPinnedMixedWindow:
    """Mixed-label G keeps the Laurent window search and the Cyclotomic
    elimination; these bytes fail if it is packed at one label."""

    @pytest.mark.parametrize("command", ["constant-form", "fuchs"])
    def test_bytes(self, capsys, command):
        code, out = run_cli(
            capsys, command, "--json", PINNED_MIXED_WINDOW_INPUT, "--exponent-candidates", "0,1/2,2/3",
            "--degree-bound", "3"
        )
        assert code == 0
        assert out == json.dumps(json.loads(PINNED_MIXED_WINDOW_OUTPUT[command]), indent=2, sort_keys=True) + "\n"


# A sheared module over Q and Q(zeta_5): J(0, 2) + (1/2) with zeta_5 on the
# superdiagonal of diag(0, 1/2, 0), gauged by a diag(t^k) P of
# generate.rand_shearing_gauge.  G mixes rationals with the one irrational
# label 5.  The stdout below was recorded when such a G
# took the packed window search at label 5.
PINNED_CONDUCTOR5_INPUT = (
    '{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["-2","-1","0","0"],"conductor":5}},{},{"0"'
    ':{"coeffs":["0","-1","0","0"],"conductor":5}}],[{"4":{"coeffs":["-1/2","5","0","0"],"conductor":5}},'
    '{"0":{"coeffs":["2","1","0","0"],"conductor":5}},{"4":{"coeffs":["-1/2","3","0","0"],"conductor":5}}'
    '],[{"0":{"coeffs":["1/2","-2","0","0"],"conductor":5}},{"-4":{"coeffs":["0","-1","0","0"],"conductor'
    '":5}},{"0":{"coeffs":["-3/2"],"conductor":1}}]]}'
)

PINNED_CONDUCTOR5_OUTPUT = {
    "constant-form": (
        '{"constant":[[{"coeffs":["1/2"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"condu'
        'ctor":1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["1"],"conductor"'
        ':1}],[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1}]]'
        ',"gauge":[[{"2":{"coeffs":["63/31","-28/31","-24/31","-16/31"],"conductor":5}},{"-2":{"coeffs":["16/'
        '31","-14/31","-12/31","-8/31"],"conductor":5}},{"2":{"coeffs":["1"],"conductor":1}}],[{},{"-2":{"coe'
        'ffs":["1/9","1/9","1/9","1/18"],"conductor":5}},{"2":{"coeffs":["-2/9","-2/9","-2/9","-5/18"],"condu'
        'ctor":5}}],[{"2":{"coeffs":["-1"],"conductor":1}},{"-2":{"coeffs":["-1/3"],"conductor":1}},{"2":{"co'
        'effs":["-1/3"],"conductor":1}}]]}'
    ),
    "fuchs": (
        '{"exponents":["0","0","1/2"],"factors":[{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1'
        '},{"coeffs":["1/2"],"conductor":1}],"gauge":[[{},{"-2":{"coeffs":["1/9","1/9","1/9","1/18"],"conduct'
        'or":5}},{"2":{"coeffs":["-2/9","-2/9","-2/9","-5/18"],"conductor":5}}],[{"2":{"coeffs":["-1"],"condu'
        'ctor":1}},{"-2":{"coeffs":["-1/3"],"conductor":1}},{"2":{"coeffs":["-1/3"],"conductor":1}}],[{"2":{"'
        'coeffs":["63/31","-28/31","-24/31","-16/31"],"conductor":5}},{"-2":{"coeffs":["16/31","-14/31","-12/'
        '31","-8/31"],"conductor":5}},{"2":{"coeffs":["1"],"conductor":1}}]],"triangular":[[{"coeffs":["0"],"'
        'conductor":1},{"coeffs":["1"],"conductor":1},{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"condu'
        'ctor":1},{"coeffs":["0"],"conductor":1},{"coeffs":["0"],"conductor":1}],[{"coeffs":["0"],"conductor"'
        ':1},{"coeffs":["0"],"conductor":1},{"coeffs":["1/2"],"conductor":1}]]}'
    ),
}


class TestPinnedConductor5:
    """G with one odd irrational label: these bytes guard the route its
    window search and gauge checks take."""

    @pytest.mark.parametrize("command", ["constant-form", "fuchs"])
    def test_bytes(self, capsys, command):
        code, out = run_cli(
            capsys, command, "--json", PINNED_CONDUCTOR5_INPUT, "--exponent-candidates", "0,1/2", "--degree-bound", "3"
        )
        assert code == 0
        assert out == json.dumps(json.loads(PINNED_CONDUCTOR5_OUTPUT[command]), indent=2, sort_keys=True) + "\n"


# Constants of the same kind whose hom basis has an i-valued entry that the
# dense Gauss-Jordan elimination left at label 4 and column_kernel computes
# through a zeta_3 factor, so at label 12.  The stdout below was recorded with
# the dense elimination.
DRIFT_HOM_INPUT = (
    '{"left":{"derivation":"t d/dt","dim":3,"matrix":[[{"0":{"coeffs":["1/2"],"conductor":1}},'
    '{"0":{"coeffs":["0","-1/2"],"conductor":4}},{}],[{},{"0":{"coeffs":["1/3"],"conductor":1}},{}],'
    '[{"0":{"coeffs":["0","1"],"conductor":3}},{"0":{"coeffs":["0","1"],"conductor":4}},'
    '{"0":{"coeffs":["1/2"],"conductor":1}}]]},"right":{"derivation":"t d/dt","dim":3,'
    '"matrix":[[{"0":{"coeffs":["1/2"],"conductor":1}},{"0":{"coeffs":["0","3"],"conductor":3}},{}],[{},'
    '{"0":{"coeffs":["1/3"],"conductor":1}},{}],[{"0":{"coeffs":["0","1"],"conductor":4}},'
    '{"0":{"coeffs":["0","1"],"conductor":3}},{"0":{"coeffs":["3/2"],"conductor":1}}]]}}'
)

DRIFT_HOM_DENSE_OUTPUT = (
    '{"basis":[[[{},{},{}],[{},{},{}],[{"-1":{"coeffs":["0","1/3"],"conductor":4}},{"-1":{"coeffs":["1"],'
    '"conductor":1}},{}]],[[{"0":{"coeffs":["0","1"],"conductor":4}},{"0":{"coeffs":["-159/325","0","0",'
    '"63/325"],"conductor":12}},{}],[{},{"0":{"coeffs":["0","-7/650","-63/325","7/650"],"conductor":12}},'
    '{}],[{"0":{"coeffs":["1"],"conductor":1}},{},{}]],[[{},{"0":{"coeffs":["21/325","0","0","378/325"],'
    '"conductor":12}},{}],[{},{"0":{"coeffs":["0","-21/325","7/1950","21/325"],"conductor":12}},{}],[{},'
    '{"0":{"coeffs":["1"],"conductor":1}},{}]]],"dimension":3,'
    '"mon_comparison":{"dual_exponents_match":true,"hom_dim":3,"hom_match":true,"mon_hom_dim":3,'
    '"ok":true,"tensor_exponents_match":true}}'
)


def _same_values(got, expected):
    """Equal JSON documents up to conductor labels, which may differ only as
    3 or 4 against 12 (the rule of test_column_kernel)."""
    if isinstance(expected, dict) and "conductor" in expected:
        x, y = jsonio.decode_cyclotomic(got), jsonio.decode_cyclotomic(expected)
        return x == y and (x.n == y.n or {x.n, y.n} in ({3, 12}, {4, 12}))
    if isinstance(expected, dict):
        return got.keys() == expected.keys() and all(_same_values(got[k], expected[k]) for k in expected)
    if isinstance(expected, list):
        return len(got) == len(expected) and all(_same_values(a, b) for a, b in zip(got, expected))
    return got == expected


class TestMixedConductorLabels:
    def test_hom_values_match_the_dense_elimination(self, capsys):
        code, out = run_cli(capsys, "hom", "--json", DRIFT_HOM_INPUT)
        assert code == 0
        assert _same_values(json.loads(out), json.loads(DRIFT_HOM_DENSE_OUTPUT))


class TestClosedStdout:
    """A reader that closes stdout early (`fuchs-kit ... | head`) gets exit
    code 1 and no traceback, for a result and for an error document."""

    @pytest.mark.parametrize("argv", [
        ("constant-form", "--json", PINNED_INPUT, "--exponent-candidates", "1/2,5/12", "--degree-bound", "3"),
        ("exponents", "--json", "{"),
    ], ids=["result", "error"])
    def test_exit_one_without_traceback(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fuchskit"].__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            proc = subprocess.run([sys.executable, "-m", "fuchskit.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestStartUp:
    """Every CLI process pays for what `import fuchskit.cli` loads."""

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # a fresh interpreter, compared with the modules present before the
        # import, as in the "Standard library only" CI step
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fuchskit"].__file__)))
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import fuchskit.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "fuchskit.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})


# Two dim-5 constant modules at conductor 12, drawn by
# perfbench.cases.constant_module twice (left, then right) from
# random.Random("cliff:5:12").  The characteristic polynomial of their
# 25-dim tensor has repeated roots, so its end coefficients are high powers
# with many divisors: the divisor-pair search for its rational roots took
# minutes for hom and seconds for ext.  The stdout digests were recorded from
# that search.
CLIFF_PAIR_INPUT = (
    '{"left":{"derivation":"t d/dt","dim":5,"matrix":[[{"0":{"coeffs":["85/12"],"conductor":1}},'
    '{"0":{"coeffs":["-37/12"],"conductor":1}},{"0":{"coeffs":["-7/4"],"conductor":1}},'
    '{"0":{"coeffs":["8/3"],"conductor":1}},{"0":{"coeffs":["-1/3"],"conductor":1}}],'
    '[{"0":{"coeffs":["8"],"conductor":1}},{"0":{"coeffs":["-91/12"],"conductor":1}},'
    '{"0":{"coeffs":["-31/6"],"conductor":1}},{"0":{"coeffs":["9/2"],"conductor":1}},'
    '{"0":{"coeffs":["5/3"],"conductor":1}}],[{"0":{"coeffs":["-35/3"],"conductor":1}},'
    '{"0":{"coeffs":["77/4"],"conductor":1}},{"0":{"coeffs":["73/6"],"conductor":1}},'
    '{"0":{"coeffs":["-19/3"],"conductor":1}},{"0":{"coeffs":["-9/2"],"conductor":1}}],'
    '[{"0":{"coeffs":["-53/6"],"conductor":1}},{"0":{"coeffs":["155/12"],"conductor":1}},'
    '{"0":{"coeffs":["20/3"],"conductor":1}},{"0":{"coeffs":["-13/6"],"conductor":1}},'
    '{"0":{"coeffs":["-7/3"],"conductor":1}}],[{"0":{"coeffs":["13/3"],"conductor":1}},'
    '{"0":{"coeffs":["-7/12"],"conductor":1}},{"0":{"coeffs":["-1/2"],"conductor":1}},'
    '{"0":{"coeffs":["8/3"],"conductor":1}},{"0":{"coeffs":["7/6"],"conductor":1}}]]},'
    '"right":{"derivation":"t d/dt","dim":5,"matrix":[[{"0":{"coeffs":["19/4"],"conductor":1}},'
    '{"0":{"coeffs":["1"],"conductor":1}},{"0":{"coeffs":["4/3"],"conductor":1}},{"0":{"coeffs":["-3/4"],'
    '"conductor":1}},{"0":{"coeffs":["-25/12"],"conductor":1}}],[{"0":{"coeffs":["-5"],"conductor":1}},'
    '{"0":{"coeffs":["-11/12"],"conductor":1}},{"0":{"coeffs":["-1"],"conductor":1}},'
    '{"0":{"coeffs":["3/2"],"conductor":1}},{"0":{"coeffs":["7/2"],"conductor":1}}],'
    '[{"0":{"coeffs":["-17/3"],"conductor":1}},{"0":{"coeffs":["-2"],"conductor":1}},'
    '{"0":{"coeffs":["-1/4"],"conductor":1}},{"0":{"coeffs":["-1/4"],"conductor":1}},'
    '{"0":{"coeffs":["25/12"],"conductor":1}}],[{"0":{"coeffs":["-7/3"],"conductor":1}},{},'
    '{"0":{"coeffs":["-5/3"],"conductor":1}},{"0":{"coeffs":["13/12"],"conductor":1}},'
    '{"0":{"coeffs":["2/3"],"conductor":1}}],[{"0":{"coeffs":["7/3"],"conductor":1}},{},'
    '{"0":{"coeffs":["5/3"],"conductor":1}},{"0":{"coeffs":["-7/4"],"conductor":1}},'
    '{"0":{"coeffs":["-4/3"],"conductor":1}}]]}}'
)

CLIFF_PAIR_SHA256 = "29ed0e9a54a789e008a19b3e229a343200fb5ac2aaa335ff37642924eef3841a"

CLIFF_STDOUT_SHA256 = {
    "hom": "98f366ee02a983df4991de051d3179c7a415771d6956492294aff94b67dceb1f",
    "ext": "e61877a3bd47e2e80ff54cb29378d80e7bcc227261d81a70aff7bbdc03295304",
}

_CLIFF_SETUP = """
import contextlib, hashlib, io
from fuchskit.cli import main
"""

_CLIFF_WORK = """
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main([sys.argv[1], "--json", sys.argv[2]])
assert code == 0, code
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
assert digest == sys.argv[3], digest
"""


class TestRootSearchCliff:
    """hom and ext of the pair above, timed in a child process."""

    def test_pair_is_the_drawn_one(self):
        text = json.dumps(json.loads(CLIFF_PAIR_INPUT), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CLIFF_PAIR_SHA256

    @pytest.mark.parametrize("command", ["hom", "ext"])
    def test_dim5_conductor12_pair(self, command):
        elapsed, _ = run_child(_CLIFF_SETUP, _CLIFF_WORK, command, CLIFF_PAIR_INPUT, CLIFF_STDOUT_SHA256[command])
        assert elapsed < 10, elapsed
