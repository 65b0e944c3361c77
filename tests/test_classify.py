"""End-to-end classification: golden reports for the model curve, refusal
behaviour, eigenvalue invariants, the trace consistency gate, determinism."""

import json
import math
import sys
from fractions import Fraction

import pytest

from oracles import plain, power

from galrep.classify import (_SHARED_ITEMS, ClassificationRefused, _assumption_texts, _gauss_sum_power, _model_texts,
                             classify, verify_consistency)
from galrep.config import CACHE_SIZE, Budgets
from galrep.cyclotomic import Cyclotomic
from galrep.errors import InputError
from galrep.groups import FULL, SIGMA_PHI, build_group, class_index, gauss_sum
from galrep.json_writer import dump_json
from galrep.padic import BaseField, InputPolynomial


def model_input(p):
    return InputPolynomial.from_string(p, f"x^{p}-{p}")


def signed_p(p):
    return -p if (p - 1) // 2 % 2 else p


@pytest.fixture(scope="module")
def odd_report():
    return classify(model_input(5), BaseField(5, 1))


@pytest.fixture(scope="module")
def even_report():
    return classify(model_input(5), BaseField(5, 2))


class TestGoldenOddCase:
    @pytest.fixture()
    def report(self, odd_report):
        return odd_report

    def test_assumptions(self, report):
        assert report.assumptions.maximal_inertia
        assert report.assumptions.disc_valuation == 9

    def test_groups(self, report):
        assert (report.inertia_group.order, report.inertia_group.class_count) == (40, 10)
        assert (report.full_group.order, report.full_group.class_count) == (80, 14)

    def test_psi(self, report):
        assert report.psi.label == "wild--"
        assert report.psi.dimension == 4 and report.psi.faithful
        assert report.psi.construction_json() == {"kind": "induced", "nu": -1, "phi": -1}
        assert report.psi.values[class_index(build_group(5, FULL), SIGMA_PHI)] == -gauss_sum(5)

    def test_chi(self, report):
        assert report.chi_frobenius == gauss_sum(5)

    def test_eigenvalues(self, report):
        g5 = gauss_sum(5)
        assert [(e.value, e.multiplicity) for e in report.eigenvalues] == [(g5, 2), (-g5, 2)]

    def test_conductor(self, report):
        assert report.conductor == 9

    def test_verification(self, report):
        v = report.verification
        assert v.status == "ok" and v.match
        assert v.trace_counted == -5 and v.trace_predicted == -5

    def test_golden_json_fields(self, report):
        data = plain(report.to_json_dict())
        assert data["schema"] == 1
        assert data["input"] == {"p": 5, "n": 1, "f": ["-5", "0", "0", "0", "0", "1"]}
        assert data["conductor"] == {"status": "computed", "exponent": 9}
        assert data["psi"]["label"] == "wild--"
        assert data["chi"]["frobenius_value"] == plain(gauss_sum(5))
        assert data["verification"]["match"] is True


class TestGoldenEvenCase:
    @pytest.fixture()
    def report(self, even_report):
        return even_report

    def test_psi_is_the_unique_faithful_inertia_row(self, report):
        assert report.psi.label == "wild-"
        assert report.psi.dimension == 4 and report.psi.faithful

    def test_chi_is_scalar_five(self, report):
        assert report.chi_frobenius == Cyclotomic.rational(5, 5)

    def test_single_eigenvalue(self, report):
        assert [(e.value, e.multiplicity) for e in report.eigenvalues] == [
            (Cyclotomic.rational(5, 5), 4)
        ]

    def test_no_full_group_and_skipped_verification(self, report):
        assert report.full_group is None
        assert report.verification.status == "skipped"

    def test_conductor(self, report):
        assert report.conductor == 9


class TestRefusalAndErrors:
    def test_undetermined_is_refused(self):
        with pytest.raises(ClassificationRefused) as err:
            classify(InputPolynomial.from_string(5, "x^5+x+1"), BaseField(5, 1))
        assert "irreducibility" in err.value.failures
        assert err.value.to_json_dict()["refused"]["failures"] == err.value.failures

    def test_all_failures_listed(self):
        f = InputPolynomial.from_coefficients(5, [1, 1, -2, -2, 1, 1])  # repeated roots
        with pytest.raises(ClassificationRefused) as err:
            classify(f, BaseField(5, 1))
        assert set(err.value.failures) >= {"squarefree", "irreducibility", "gcd_condition"}

    def test_input_errors_propagate(self):
        with pytest.raises(InputError) as err:
            classify(model_input(5), BaseField(3, 2))
        assert err.value.code == "p_mismatch"

    def test_group_bound_checked_before_assumptions(self, monkeypatch):
        def fail(*args):
            raise AssertionError("validate_assumptions ran before the bound check")

        # classify calls it through galrep.padic
        monkeypatch.setattr(sys.modules["galrep.padic"], "validate_assumptions", fail)
        with pytest.raises(InputError) as err:
            classify(model_input(17), BaseField(17, 1))
        assert err.value.code == "p_beyond_bound"

    def test_printable_bound_follows_the_digit_limit(self):
        # 3^1350 has 645 digits: printable under the default limit of 4300, not under 640
        f, K = model_input(3), BaseField(3, 2700)
        old = sys.get_int_max_str_digits()
        assert classify(f, K).n == 2700
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(InputError) as err:
                classify(f, K)
        finally:
            sys.set_int_max_str_digits(old)
        assert err.value.code == "residue_degree_too_large"
        assert classify(f, K).n == 2700


class TestInvariants:
    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (5, 2), (7, 1), (3, 4)])
    def test_chi_squared_identity(self, p, n):
        report = classify(model_input(p), BaseField(p, n))
        lhs = report.chi_frobenius * report.chi_frobenius
        assert lhs == Cyclotomic.rational(p, signed_p(p) ** n)

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (5, 2), (7, 1), (3, 4), (3, 3)])
    def test_eigenvalue_square_multiset(self, p, n):
        report = classify(model_input(p), BaseField(p, n))
        g = (p - 1) // 2
        squares = []
        for e in report.eigenvalues:
            squares.extend([e.value * e.value] * e.multiplicity)
        assert squares == [Cyclotomic.rational(p, signed_p(p) ** n)] * (2 * g)

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (5, 2), (7, 1), (3, 4)])
    def test_determinant_is_residue_field_size_to_g(self, p, n):
        report = classify(model_input(p), BaseField(p, n))
        g = (p - 1) // 2
        det = Cyclotomic.rational(p, 1)
        for e in report.eigenvalues:
            det = det * power(e.value, e.multiplicity)
        assert det == Cyclotomic.rational(p, p ** (n * g))

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1)])
    def test_predicted_traces_are_rational_integers(self, p, n):
        v = verify_consistency(p, n)
        assert isinstance(v.trace_predicted, int)

    @pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 3)])
    def test_report_values_stay_in_bounded_conductor(self, p, n):
        report = classify(model_input(p), BaseField(p, n))
        bound = 2 * p * (p - 1)
        values = [report.chi_frobenius, *report.psi.values]
        values += [e.value for e in report.eigenvalues]
        assert all(bound % v.m == 0 for v in values)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_gauss_sum_power_against_repeated_products(self, p):
        for n in range(1, 8):
            assert _gauss_sum_power(p, n) == power(gauss_sum(p), n)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_report_values_have_int_coordinates(self, p, n):
        # chi(Frob) = G^n and psi's values are algebraic integers, held in Z[zeta_m]
        report = classify(model_input(p), BaseField(p, n))
        values = [report.chi_frobenius, *report.psi.values, *(e.value for e in report.eigenvalues)]
        for value in values:
            assert all(type(c) is int for c in value.coeffs)

    def test_residue_degree_bounded_before_assumptions(self, monkeypatch):
        def fail(*args):
            raise AssertionError("validate_assumptions ran before the residue-degree check")

        monkeypatch.setattr(sys.modules["galrep.padic"], "validate_assumptions", fail)
        with pytest.raises(InputError) as err:
            classify(model_input(5), BaseField(5, 20001))
        assert err.value.code == "residue_degree_too_large"

    @pytest.mark.parametrize("p,n", [(5, 5), (11, 3)])
    def test_verified_wherever_the_coset_budget_allows(self, p, n):
        verification = classify(model_input(p), BaseField(p, n)).verification
        assert verification.status == "ok" and verification.match
        assert verification.trace_counted == verification.trace_predicted == -(signed_p(p) ** ((n + 1) // 2))

    def test_skip_reason_writes_the_size_as_a_power(self):
        report = classify(model_input(5), BaseField(5, 2001))
        assert report.verification.reason == "subfield size 5^2001 exceeds the coset budget 1000000"


class TestConsistencyGate:
    @pytest.mark.parametrize(
        "p,n,predicted",
        [(5, 1, -5), (3, 1, 3), (7, 1, 7), (3, 3, -9), (5, 3, -25)],
    )
    def test_match(self, p, n, predicted):
        v = verify_consistency(p, n)
        assert v.status == "ok" and v.match
        assert v.trace_predicted == predicted == v.trace_counted

    def test_wrong_closed_form_alone_is_a_mismatch(self, monkeypatch):
        module = sys.modules["galrep.classify"]
        closed_form = module._twisted_closed_form
        monkeypatch.setattr(module, "_twisted_closed_form", lambda p, n: closed_form(p, n) + 1)
        v = verify_consistency(3, 1)
        assert v.trace_counted == v.trace_predicted == 3
        assert v.status == "mismatch" and v.match is False


class TestCountedTraceCache:
    def test_counted_once_per_p_and_n(self, monkeypatch):
        module = sys.modules["galrep.classify"]
        calls = []
        counting_module = sys.modules["galrep.counting"]  # _twisted_trace imports from it when it counts
        count = counting_module.count_twisted_fixed

        def counting(p, n, budgets=None):
            calls.append((p, n))
            return count(p, n, budgets)

        monkeypatch.setattr(counting_module, "count_twisted_fixed", counting)
        module._twisted_trace.cache_clear()
        try:
            reports = [classify(model_input(5), BaseField(5, 1)).to_json() for _ in range(3)]
            assert calls == [(5, 1)]
            assert reports[0] == reports[1] == reports[2]
        finally:
            module._twisted_trace.cache_clear()


def record_calls(monkeypatch, name):
    """The argument lists of every call to galrep.padic's ``name``."""
    module = sys.modules["galrep.padic"]
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


class TestOneCertificatePerCall:
    """classify computes the certificate once, in validate_assumptions; the
    conductor exponent reads the slope off the report."""

    def test_accepted_input(self, monkeypatch):
        calls = record_calls(monkeypatch, "_certificate")
        classify(InputPolynomial.from_string(5, "x^5+5*x^4+10*x^3+10*x^2+5*x-4"), BaseField(5, 1))
        assert len(calls) == 1

    def test_refused_input(self, monkeypatch):
        calls = record_calls(monkeypatch, "_certificate")
        with pytest.raises(ClassificationRefused):
            classify(InputPolynomial.from_string(5, "x^5+x+1"), BaseField(5, 1))
        assert len(calls) == 1


class TestDiscriminantRoute:
    """Only inputs without a certificate reach the difference polynomial of
    the integer model, which gives their discriminant; certified ones are
    decided from valuations."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        return record_calls(monkeypatch, "_difference_model")

    def test_certified_input_never_reaches_them(self, calls):
        classify(model_input(13), BaseField(13, 2))
        assert calls == []

    def test_uncertified_input_reaches_each_once(self, calls):
        f = InputPolynomial.from_string(5, "x^5+x+1")
        with pytest.raises(ClassificationRefused) as refused:
            classify(f, BaseField(5, 1))
        assert "irreducibility" in refused.value.failures
        assert calls == [(list(f.coeffs),)]  # integer coefficients: M is f

    def test_repeated_root_reaches_it_once(self, calls):
        # (x-1)^2 (x+1)^3: the zero constant term alone says not squarefree
        f = InputPolynomial.from_coefficients(5, [1, 1, -2, -2, 1, 1])
        with pytest.raises(ClassificationRefused) as refused:
            classify(f, BaseField(5, 1))
        assert "squarefree" in refused.value.failures
        assert calls == [(list(f.coeffs),)]  # integer coefficients: M is f


def oracle(report):
    return json.dumps(plain(report.to_json_dict()), indent=2, sort_keys=True)


def eisenstein(p, i, unit=1):
    """x^p + unit p x^i + unit p for i < p, and x^p + unit p for i = p: its
    v(disc) is p + i - 1."""
    coeffs = [unit * p] + [0] * (p - 1) + [1]
    if i < p:
        coeffs[i] = unit * p
    return InputPolynomial.from_coefficients(p, coeffs)


# the certified Eisenstein records under the default group bound: each p <= 13
# and each v(disc) = p + i - 1 coprime to p - 1
EISENSTEIN = [(p, i) for p in (3, 5, 7, 11, 13) for i in range(1, p + 1) if math.gcd(p + i - 1, p - 1) == 1]


class TestSharedText:
    """to_json writes the entries that depend on the model curve (groups,
    chi, eigenvalues, psi, schema, verification) once per model, and those
    that depend on the assumption report (assumptions, conductor) once per
    record, and keeps their text, keyed on the records they are written
    from, in bounded caches.  Only the input entry is written per report."""

    @pytest.fixture()
    def kept(self):
        _model_texts.cache_clear()
        yield _model_texts.cache_info
        _model_texts.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_same_bytes_as_the_tree(self, p, n, kept):
        report = classify(model_input(p), BaseField(p, n), Budgets(group_p_bound=17))
        for hits in range(2):  # the second call reads the kept text
            assert report.to_json() == dump_json(report.to_json_dict()) == oracle(report)
            assert kept() == (hits, 1, CACHE_SIZE, 1)

    def _writes_its_own(self, report, replaced):
        report.to_json()
        text = replaced.to_json()
        assert text == oracle(replaced) != oracle(report)
        return json.loads(text)

    def test_replaced_verification_writes_its_own(self, odd_report):
        mismatch = odd_report.verification._replace(status="mismatch", match=False)
        data = self._writes_its_own(odd_report, odd_report._replace(verification=mismatch))
        assert data["verification"]["status"] == "mismatch"

    def test_replaced_chi_writes_its_own(self, odd_report):
        # n = 3 has psi and the groups of n = 1, but chi and the eigenvalues scaled by -5
        other = classify(model_input(5), BaseField(5, 3))
        data = self._writes_its_own(odd_report, odd_report._replace(chi_frobenius=other.chi_frobenius,
                                                                    eigenvalues=other.eigenvalues))
        assert data["chi"]["frobenius_value"] == plain(other.chi_frobenius)

    def test_replaced_psi_writes_its_own_values(self, odd_report, even_report):
        replaced = odd_report._replace(psi=even_report.psi, psi_classes=even_report.psi_classes)
        data = self._writes_its_own(odd_report, replaced)
        assert data["psi"]["values"] == plain(list(even_report.psi.values))
        assert data["psi"]["classes"] == plain(list(even_report.psi_classes))

    def test_stays_at_its_bound(self, kept):
        # even n leave the count out, so each model is cheap to classify
        reports = [classify(model_input(3), BaseField(3, 2 * i)) for i in range(1, CACHE_SIZE + 6)]
        for report in reports:
            assert report.to_json() == oracle(report)
        assert kept() == (0, CACHE_SIZE + 5, CACHE_SIZE, CACHE_SIZE)
        for report in reports[-CACHE_SIZE:]:
            report.to_json()
        assert kept().hits == CACHE_SIZE  # the newest are kept
        for report in reports[:5]:
            report.to_json()
        assert kept().misses == CACHE_SIZE + 10  # the oldest were dropped

    @pytest.fixture()
    def kept_assumptions(self):
        _assumption_texts.cache_clear()
        yield _assumption_texts.cache_info
        _assumption_texts.cache_clear()

    @pytest.mark.parametrize("p, i", EISENSTEIN)
    def test_same_bytes_for_each_eisenstein_record(self, p, i, kept_assumptions):
        report = classify(eisenstein(p, i), BaseField(p, 2))
        assert (report.assumptions.disc_valuation, report.conductor) == (p + i - 1, p + i - 1)
        for hits in range(2):  # the second call reads the kept text
            assert report.to_json() == dump_json(report.to_json_dict()) == oracle(report)
            assert kept_assumptions() == (hits, 1, CACHE_SIZE, 1)
        # another f of the same record reads the same text, and writes its own input
        other = classify(eisenstein(p, i, unit=-2), BaseField(p, 2))
        assert other.to_json() == oracle(other) != oracle(report)
        assert kept_assumptions() == (2, 1, CACHE_SIZE, 1)

    def test_all_eisenstein_records_are_kept(self, kept_assumptions):
        assert len(EISENSTEIN) == 18 <= CACHE_SIZE
        reports = [classify(eisenstein(p, i), BaseField(p, 2)) for p, i in EISENSTEIN]
        for hits in range(2):
            for report in reports:
                assert report.to_json() == oracle(report)
            assert kept_assumptions() == (18 * hits, 18, CACHE_SIZE, 18)

    def test_slope_above_one_is_kept_without_a_conductor(self, kept_assumptions):
        report = classify(InputPolynomial.from_string(5, "x^5-25"), BaseField(5, 1))
        assert (report.assumptions.slope_numerator, report.conductor) == (2, None)
        for hits in range(2):
            assert report.to_json() == dump_json(report.to_json_dict()) == oracle(report)
            assert kept_assumptions() == (hits, 1, CACHE_SIZE, 1)
        assert json.loads(report.to_json())["conductor"] == {"status": "not_computed"}

    def test_replaced_assumptions_write_their_own(self, odd_report):
        other = classify(eisenstein(5, 3), BaseField(5, 1))
        data = self._writes_its_own(odd_report, odd_report._replace(assumptions=other.assumptions,
                                                                    conductor=other.conductor))
        assert (data["assumptions"]["disc_valuation"], data["conductor"]["exponent"]) == ("7", 7)
        data = self._writes_its_own(odd_report, odd_report._replace(conductor=None))
        assert data["conductor"] == {"status": "not_computed"}

    @pytest.mark.parametrize("field, value, equal", [("disc_valuation", 7, 7.0), ("one_cluster", True, 1)])
    def test_equal_field_of_another_type_writes_its_own(self, odd_report, kept_assumptions, field, value, equal):
        # 7 == 7.0 and True == 1, but each is read its own way: gcd refuses a float
        first, second = (odd_report._replace(assumptions=odd_report.assumptions._replace(**{field: x}))
                         for x in (value, equal))
        assert first.to_json() == dump_json(first.to_json_dict()) == oracle(first)
        if type(equal) is float:
            for write in (second.to_json, lambda: dump_json(second.to_json_dict())):
                with pytest.raises(TypeError):
                    write()
        else:
            assert second.to_json() == dump_json(second.to_json_dict()) == oracle(second)
        assert kept_assumptions().misses == 2

    # a record of the model, a field of it, and a value equal to the field's that is written another way
    MODEL_FIELDS = [("verification", "match", 1), ("psi", "faithful", 1), ("verification", "trace_counted", -5.0),
                    ("inertia_group", "order", 40.0), ("full_group", "b", 2.0)]

    @pytest.mark.parametrize("record, field, equal", MODEL_FIELDS)
    def test_equal_model_field_of_another_type_writes_its_own(self, odd_report, kept, record, field, equal):
        assert getattr(getattr(odd_report, record), field) == equal
        replaced = odd_report._replace(**{record: getattr(odd_report, record)._replace(**{field: equal})})
        odd_report.to_json()  # keeps the model's text
        if type(equal) is float:  # the writer knows no floats
            for write in (replaced.to_json, lambda: dump_json(replaced.to_json_dict())):
                with pytest.raises(TypeError):
                    write()
        else:
            assert replaced.to_json() == dump_json(replaced.to_json_dict()) == oracle(replaced) != oracle(odd_report)
        assert kept().misses == 2

    def test_equal_multiplicity_of_another_type_writes_its_own(self, odd_report, kept):
        first, *rest = odd_report.eigenvalues
        replaced = odd_report._replace(eigenvalues=(first._replace(multiplicity=float(first.multiplicity)), *rest))
        odd_report.to_json()
        with pytest.raises(TypeError):
            replaced.to_json()

    def test_input_coefficients_are_written_as_str_writes_them(self, odd_report):
        f = InputPolynomial.from_coefficients(5, [5, Fraction(-15, 2), 0, Fraction(5, 3), 0, 1])
        report = classify(f, BaseField(5, 1))
        assert json.loads(report.to_json())["input"]["f"] == ["5", "-15/2", "0", "5/3", "0", "1"]
        # a hand-built polynomial of ints, and one with a Fraction among them
        for coeffs in ((-5, 0, 0, 0, 0, 1), (-5, Fraction(0), 0, 0, 0, 1)):
            replaced = odd_report._replace(f=InputPolynomial(5, coeffs))
            assert replaced.to_json() == dump_json(replaced.to_json_dict()) == oracle(replaced)
            assert json.loads(replaced.to_json())["input"]["f"] == ["-5", "0", "0", "0", "0", "1"]

    def test_long_list_is_not_kept(self, kept, odd_report):
        for count in (_SHARED_ITEMS, _SHARED_ITEMS + 1):
            psi = odd_report.psi._replace(values=(odd_report.psi.values * count)[:count])
            report = odd_report._replace(psi=psi, psi_classes=(odd_report.psi_classes * count)[:count])
            assert report.to_json() == oracle(report)
        assert kept() == (0, 1, CACHE_SIZE, 1)  # the longer psi was not even looked up


class TestDeterminism:
    def test_byte_identical_reports(self):
        a = classify(model_input(5), BaseField(5, 1)).to_json()
        b = classify(model_input(5), BaseField(5, 1)).to_json()
        assert a == b
        assert a.encode() == b.encode()

    def test_json_round_trip(self):
        import json

        data = json.loads(classify(model_input(5), BaseField(5, 1)).to_json())
        assert data["chi"]["frobenius_value"] == plain(gauss_sum(5))
