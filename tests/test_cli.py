"""CLI behavior: commands, determinism, exit codes, the mutant check."""

import json
import os
import subprocess
import sys

import pytest

from fuchskit.cli import main


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
        from fuchskit import cli, diffmod, functors

        calls = []
        hom = diffmod.horizontal_hom

        def counted(*args, **kwargs):
            calls.append(args)
            return hom(*args, **kwargs)

        for module in (cli, diffmod, functors):
            monkeypatch.setattr(module, "horizontal_hom", counted)
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

    def test_output_reparses_to_same_value(self, capsys):
        from fuchskit import jsonio
        from fuchskit.functors import rm
        from fuchskit.sigmamod import rank_one as v_rank_one
        from fuchskit.scalar import Cyclotomic

        _, out = run_cli(capsys, "rm", "--json", '{"dim": 1, "monodromy": [["-1"]]}')
        assert jsonio.decode_diffmodule(json.loads(out)) == rm(v_rank_one(Cyclotomic.from_rat(-1)))


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
