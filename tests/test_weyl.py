"""Group layer: calibration, parameter actions, translations, sampled relations."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from painleve_d32 import weyl
from painleve_d32.models import ParameterAction
from painleve_d32.ring import SingularPointError
from painleve_d32.weyl import (
    GroupWord,
    PhasePoint,
    WordError,
    apply_word_to_point,
    calibrate_convention,
    parameter_action,
    parse_word,
    random_point,
    translation_shift,
    verify_group_relations,
)


def test_calibration_is_left_to_right():
    assert calibrate_convention() == "left-to-right"


def test_t1_shift_printed_and_swapped():
    t1 = parse_word("s1 s2 s1 s0", "th1")
    shift = translation_shift(t1)
    assert shift is not None
    assert shift.vector == (-2, 2, 0)
    assert shift.eta_sign == 1 and shift.indep_sign == 1
    # frozen by hand: the matrix itself is not the identity in the linear
    # representation, only its restriction to the normalization plane is
    assert parameter_action(t1).matrix == ((-1, -2, -2), (2, 3, 2), (0, 0, 1))
    # the opposite reading direction lands on the opposite shift
    swapped = weyl._compose(("s1", "s2", "s1", "s0"), "th1", "right-to-left")
    assert weyl._shift_on_hyperplane(swapped) == (2, -2, 0)


def test_t2_shift():
    t2 = parse_word("s1 s1 s2 s1 s0 s1", "th1")
    shift = translation_shift(t2)
    assert shift is not None
    assert shift.vector == (0, -2, 2)
    assert shift.eta_sign == 1 and shift.indep_sign == 1


def test_generators_are_not_translations():
    for letter in ("s0", "s1", "s2"):
        assert translation_shift(parse_word(letter, "th1")) is None


def test_single_generator_matrix_examples():
    s0 = parameter_action(parse_word("s0", "th1"))
    assert s0.matrix[0] == (-1, 0, 0)
    assert s0.eta_sign == -1 and s0.indep_sign == +1
    assert s0.offset == (0, 0, 0)
    # involution at matrix level
    assert s0.then(s0) == ParameterAction.identity(3)
    s0_4d = parameter_action(parse_word("s0", "th2"))
    assert s0_4d.eta_sign == +1 and s0_4d.indep_sign == -1


def test_braid_power_matrices():
    # frozen by hand: (s0 s1)^2 is a sign flip plus shear, (s0 s1)^4 = id
    sq = weyl._compose(("s0", "s1") * 2, "th1", "left-to-right")
    assert sq.matrix == ((-1, 0, 0), (0, -1, 0), (2, 2, 1))
    quad = weyl._compose(("s0", "s1") * 4, "th1", "left-to-right")
    assert quad == ParameterAction.identity(3)


def test_word_context_validation():
    with pytest.raises(WordError):
        parse_word("s0 pi", "th1")
    with pytest.raises(WordError):
        parse_word("s3", "th1")


def test_direct_word_construction_is_validated():
    with pytest.raises(WordError, match="'s3' not a generator"):
        GroupWord(("s3",), "th1")
    with pytest.raises(WordError, match="unknown context 'th9'"):
        GroupWord(("s0",), "th9")
    assert GroupWord(letters=("pi",), context="th2") == parse_word("pi")


def test_random_point_refuses_an_unknown_context():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(WordError, match="unknown context 'th3'; known contexts: th1, th2"):
        random_point(rng, "th3")
    # nothing was drawn
    assert rng.getstate() == state


def test_records_are_immutable():
    word = parse_word("s1 s2 s1 s0")
    point = random_point(random.Random(1), "th1")
    for record in (word, translation_shift(word), point):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert parse_word("pi", "th2").letters == ("pi",)
    assert parse_word("π", "th2").letters == ("pi",)
    # without a context, a word that uses pi lives in th2
    assert parse_word("π s1 π").context == "th2"
    assert parse_word("s1 s0").context == "th1"


def test_relations_all_pass():
    reports = verify_group_relations(sample_count=20, seed=20321)
    assert len(reports) == 15
    for r in reports:
        assert r.passed, r.check_id
        assert r.sampled and r.seed == 20321


def test_relation_detail_counts_resamples(monkeypatch):
    drawn = []

    def first_on_pole(rng, context):
        point = random_point(rng, context)
        if not drawn:
            # the first 5d reflection divides by z
            point = PhasePoint({**point.state, "z": Fraction(0)}, point.alphas,
                               point.eta, point.indep)
        drawn.append(point)
        return point

    monkeypatch.setattr(weyl, "random_point", first_on_pole)
    reports = verify_group_relations(sample_count=3, seed=1)
    assert reports[0].check_id == "relation:th1:s0^2" and reports[0].passed
    assert reports[0].detail == "3 samples, seed 1, left-to-right, 1 resamples"
    assert all(r.detail.endswith(", 0 resamples") for r in reports[1:])


@pytest.mark.parametrize("count, error, message", [
    *((c, TypeError, f"an int, not {c!r}") for c in (2.5, 3.0, True, False, "3", None)),
    *((c, ValueError, f"at least 1, not {c}") for c in (0, -1)),
])
def test_relations_refuse_a_sample_count_that_is_no_count(count, error, message):
    with pytest.raises(error, match=f"^sample_count must be {message}$"):
        verify_group_relations(count, 1)


def test_translation_report():
    report = weyl.translation_report()
    assert report.passed
    # conjugating t1 by the diagram automorphism lands on the inverse of t2
    assert "pi t1 pi shift (0, 2, -2)" in report.detail


def test_parameter_action_is_homomorphism():
    rng = random.Random(7)
    alphabet = ("s0", "s1", "s2", "pi")
    for _ in range(25):
        w1 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        a1 = parameter_action(GroupWord(w1, "th2"))
        a2 = parameter_action(GroupWord(w2, "th2"))
        joint = parameter_action(GroupWord(w1 + w2, "th2"))
        assert joint == a1.then(a2)


def test_translations_commute():
    t1 = ("s1", "s2", "s1", "s0")
    t2 = ("s1",) + t1 + ("s1",)
    a = parameter_action(GroupWord(t1 + t2, "th1"))
    b = parameter_action(GroupWord(t2 + t1, "th1"))
    assert a == b


def test_apply_word_examples():
    rng = random.Random(5)
    point = random_point(rng, "th1")
    empty = apply_word_to_point(GroupWord((), "th1"), point)
    assert empty == point
    # involution at a sample point
    twice = apply_word_to_point(parse_word("s0 s0", "th1"), point)
    assert twice == point
    # alpha1 = 0 makes every correction of the middle reflection vanish
    frozen = PhasePoint(
        state=point.state, alphas=(point.alphas[0], Fraction(0),
                                   1 - point.alphas[0]),
        eta=point.eta, indep=point.indep,
    )
    image = apply_word_to_point(parse_word("s1", "th1"), frozen)
    assert image.state == frozen.state
    assert image.alphas == frozen.alphas


def test_normalization_preserved_along_orbits():
    rng = random.Random(11)
    for context in ("th1", "th2"):
        for _ in range(10):
            point = random_point(rng, context)
            word = GroupWord(
                tuple(rng.choice(("s0", "s1", "s2")) for _ in range(5)), context
            )
            try:
                image = apply_word_to_point(word, point)
            except SingularPointError:
                continue
            assert sum(image.alphas) == 1


def test_format_point_is_exact_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer-string conversion is unlimited here")
    # limit and limit + 1 decimal digits: the first is written in decimal
    at, past = 10 ** (limit - 1), 10**limit
    point = random_point(random.Random(2), "th1")._replace(
        eta=Fraction(at, 3), indep=Fraction(-3, past)
    )
    line = weyl.format_point(point, "th1")
    assert f" eta={at}/3 " in line and line.endswith(f"=-3/{past:#x}")
    assert int(f"{past:#x}", 0) == past and sys.get_int_max_str_digits() == limit


def test_singular_point_names_generator():
    # the outer 5d reflection divides by x
    point = PhasePoint(
        state={"x": Fraction(0), "y": Fraction(1), "z": Fraction(1),
               "w": Fraction(1), "q": Fraction(1)},
        alphas=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        eta=Fraction(1), indep=Fraction(1),
    )
    with pytest.raises(SingularPointError) as err:
        apply_word_to_point(parse_word("s2", "th1"), point)
    assert "s2" in str(err.value)


def _param_images(bmap, table):
    """A map's images of its parameters, read from its pull-back bindings."""
    bindings = bmap.pullback_bindings(table, table)
    return {p: bindings[p] for p in bmap.param_names}


def _compose_symbolically(map_ids):
    """Left-to-right symbolic composition of same-family maps."""
    from painleve_d32.models import load_map, load_model
    from painleve_d32.ring import RatExpr, substitute

    maps = [load_map(mid, "resolved") for mid in map_ids]
    table = load_model(maps[0].source).table
    state = dict(maps[0].var_map)
    params = _param_images(maps[0], table)
    eta_sign, indep_sign = maps[0].action.eta_sign, maps[0].action.indep_sign
    indep = load_model(maps[0].source).indep
    for m in maps[1:]:
        bind = dict(state)
        bind.update(params)
        bind["eta"] = eta_sign * RatExpr.sym(table, "eta")
        bind[indep] = indep_sign * RatExpr.sym(table, indep)
        state = {n: substitute(e, bind) for n, e in m.var_map.items()}
        params = {p: substitute(img, params) for p, img in _param_images(m, table).items()}
        eta_sign *= m.action.eta_sign
        indep_sign *= m.action.indep_sign
    return state, params, eta_sign, indep_sign


def test_conjugation_identity_holds_symbolically():
    # pi s0 pi = s2 as exact birational maps, not only at sampled points
    from painleve_d32.models import load_map, load_model

    state, params, eta_sign, indep_sign = _compose_symbolically(
        ["pi_4d", "s0_4d", "pi_4d"]
    )
    s2 = load_map("s2_4d", "resolved")
    table = load_model("ham_4d").table
    for name, expr in s2.var_map.items():
        assert state[name].equals(expr), name
    for p, img in _param_images(s2, table).items():
        assert (params[p] - img).is_zero, p
    assert eta_sign == s2.action.eta_sign
    assert indep_sign == s2.action.indep_sign


def test_parameter_and_map_level_verdicts_consistent():
    # a word that is the identity on sampled field points must be the
    # identity on parameters: spot-check with s1 s1 at random points
    rng = random.Random(3)
    word = parse_word("s1 s1", "th1")
    action = parameter_action(word)
    assert action == ParameterAction.identity(3)
    for _ in range(5):
        point = random_point(rng, "th1")
        try:
            assert apply_word_to_point(word, point) == point
        except SingularPointError:
            continue
