"""Wire-format round trips and strict validation."""

import pytest
from hypothesis import given, settings

from conftest import cyclotomics, exprings, laurents

from fuchskit import jsonio
from fuchskit.diffmod import DiffModule, laurent_matrix, rank_one, twist_derivation
from fuchskit.errors import InputError
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix
from fuchskit.ratio import Rat, rat_str
from fuchskit.scalar import Cyclotomic
from fuchskit.sigmamod import SigmaModule


class TestRoundTrips:
    @given(cyclotomics())
    @settings(max_examples=40, deadline=None)
    def test_cyclotomic(self, c):
        assert jsonio.decode_cyclotomic(jsonio.encode_cyclotomic(c)) == c

    @given(cyclotomics())
    @settings(max_examples=80, deadline=None)
    def test_cyclotomic_coordinates_are_reduced_rationals(self, c):
        assert jsonio.encode_cyclotomic(c) == {"conductor": c.n, "coeffs": [rat_str(x) for x in c.c]}

    def test_cyclotomic_with_negative_numerators_over_a_denominator(self):
        c = Cyclotomic(12, [Rat(-3, 4), Rat(1, 2), 0, Rat(-5, 6)])
        assert jsonio.encode_cyclotomic(c) == {"conductor": 12, "coeffs": ["-3/4", "1/2", "0", "-5/6"]}
        assert jsonio.encode_cyclotomic(Cyclotomic.from_rat(Rat(-6, 4))) == {"conductor": 1, "coeffs": ["-3/2"]}

    @given(laurents())
    @settings(max_examples=40, deadline=None)
    def test_laurent(self, f):
        assert jsonio.decode_laurent(jsonio.encode_laurent(f)) == f

    @given(exprings())
    @settings(max_examples=40, deadline=None)
    def test_expring(self, x):
        assert jsonio.decode_expring(jsonio.encode_expring(x)) == x

    def test_diffmodule(self):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, Rat(1, 2)]]))
        assert jsonio.decode_diffmodule(jsonio.encode_diffmodule(m)) == m

    def test_twisted_diffmodule(self):
        m = twist_derivation(rank_one(Rat(1, 3)), LaurentPoly.t_power(1, -2))
        assert jsonio.decode_diffmodule(jsonio.encode_diffmodule(m)) == m

    def test_sigmamodule(self):
        v = SigmaModule(Matrix([[Cyclotomic.root_of_unity(3), Cyclotomic.one()],
                                [Cyclotomic.zero(), Cyclotomic.root_of_unity(3)]]))
        assert jsonio.decode_sigmamodule(jsonio.encode_sigmamodule(v)) == v


class TestShorthands:
    def test_rational_string_as_cyclotomic(self):
        assert jsonio.decode_cyclotomic("-3/4") == Cyclotomic.from_rat(Rat(-3, 4))

    def test_rational_string_as_laurent(self):
        assert jsonio.decode_laurent("2") == LaurentPoly.from_scalar(2)

    def test_matrix_entry_shorthand(self):
        m = jsonio.decode_diffmodule({"dim": 1, "matrix": [["1/2"]]})
        assert m == rank_one(Rat(1, 2))


class TestValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(InputError):
            jsonio.decode_diffmodule({"dim": 1, "matrix": [["0"]], "extra": 1})

    def test_missing_fields_rejected(self):
        with pytest.raises(InputError):
            jsonio.decode_diffmodule({"dim": 1})

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            jsonio.decode_diffmodule({"dim": 2, "matrix": [["0"]]})

    def test_bad_rational(self):
        with pytest.raises(InputError):
            jsonio.decode_cyclotomic("1.5")

    def test_float_conductor_rejected(self):
        with pytest.raises(InputError):
            jsonio.decode_cyclotomic({"conductor": 2.0, "coeffs": ["1"]})

    def test_coeff_length_checked(self):
        with pytest.raises(InputError):
            jsonio.decode_cyclotomic({"conductor": 12, "coeffs": ["1", "0"]})

    def test_degree_keys_canonical(self):
        with pytest.raises(InputError):
            jsonio.decode_laurent({"01": "1"})

    def test_class_keys_canonical(self):
        with pytest.raises(InputError):
            jsonio.decode_groupalg({"2/4": {"0": "1"}})

    def test_class_keys_in_unit_interval(self):
        with pytest.raises(InputError):
            jsonio.decode_groupalg({"3/2": {"0": "1"}})

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InputError):
            jsonio.decode_matrix([["0"], ["0", "1"]], jsonio.decode_laurent)
