"""Exact point evaluation: the compiled integer kernel against a per-term
``Fraction`` reference, over the whole map registry and along orbits."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve_d32 import ring, weyl
from painleve_d32.models import DISPUTED_MAP_IDS, MAP_IDS, load_map, load_model
from painleve_d32.ring import (
    PointMap,
    Poly,
    RatExpr,
    RingError,
    SingularPointError,
    SymbolTable,
    evaluate,
    syms,
)
from painleve_d32.weyl import (
    GroupWord,
    ParameterAction,
    PhasePoint,
    apply_word_to_point,
    calibrate_convention,
    parameter_action,
    parse_word,
    random_point,
)

from conftest import random_nonzero_poly, random_poly

POINTS_PER_MAP = 60


# -- the reference: term by term in Fraction arithmetic ------------------------------


def _reference_poly(p: Poly, point) -> Fraction:
    vals = {}
    for name, v in point.items():
        if name in p.table:
            vals[p.table.index(name)] = Fraction(v)
    total = Fraction(0)
    for m, c in p.terms:
        term = c
        for i, e in enumerate(m):
            if not e:
                continue
            if i not in vals:
                raise RingError(f"symbol {p.table.symbols[i]!r} unbound in evaluation")
            term *= vals[i] ** e
        total += term
    return total


def _reference(e: RatExpr, point) -> Fraction:
    den = _reference_poly(e.den, point)
    if den == 0:
        raise SingularPointError("denominator vanishes at the evaluation point")
    return _reference_poly(e.num, point) / den


def _reference_map(exprs, point):
    """Values of every component, or None when some denominator vanishes."""
    try:
        return tuple(_reference(e, point) for e in exprs)
    except SingularPointError:
        return None


def _registered_maps():
    for mid in MAP_IDS:
        variants = ("printed", "corrected") if mid in DISPUTED_MAP_IDS else ("printed",)
        for variant in variants:
            yield load_map(mid, variant)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 30))


def _vanishing_point(den: Poly, point: dict) -> dict | None:
    """The point moved along one symbol until ``den`` vanishes there, if it can.

    A symbol dividing every term of ``den`` is set to zero; a symbol of
    degree one is solved for.
    """
    table = den.table
    for name in den.occurring_names():
        i = table.index(name)
        moved = dict(point)
        if all(m[i] for m, _ in den.terms):
            moved[name] = Fraction(0)
            return moved
        if max(m[i] for m, _ in den.terms) == 1:
            slope = Poly(table, {m: c for m, c in den.terms if m[i]}).partial(name)
            rest = Poly(table, {m: c for m, c in den.terms if not m[i]})
            a, b = _reference_poly(slope, point), _reference_poly(rest, point)
            if a:
                moved[name] = -b / a
                return moved
    return None


# -- registry-wide differential test -------------------------------------------------


@pytest.mark.parametrize(
    "bmap", list(_registered_maps()), ids=lambda m: f"{m.id}:{m.variant}"
)
def test_kernel_matches_reference_on_every_map(bmap):
    exprs = list(bmap.var_map.values())
    table = exprs[0].table
    names = table.symbols
    kernel = PointMap(exprs, names)
    rng = random.Random(f"{bmap.id}:{bmap.variant}")
    compared = 0
    for _ in range(POINTS_PER_MAP):
        point = {n: _rational(rng) for n in names}
        expected = _reference_map(exprs, point)
        if expected is None:
            with pytest.raises(SingularPointError):
                kernel([point[n] for n in names])
            continue
        got = kernel([point[n] for n in names])
        assert got == expected
        assert all(type(v) is Fraction for v in got)
        for e, want in zip(exprs, expected):
            assert evaluate(e, point) == want
            assert e.num.evaluate(point) == _reference_poly(e.num, point)
        compared += 1
    assert compared >= POINTS_PER_MAP // 2

    for e in exprs:
        if e.den.is_const:
            continue
        singular = 0
        for _ in range(5):
            start = {n: _rational(rng) for n in names}
            point = _vanishing_point(e.den, start)
            if point is None:
                continue
            assert _reference_poly(e.den, point) == 0
            with pytest.raises(SingularPointError):
                _reference(e, point)
            with pytest.raises(SingularPointError):
                evaluate(e, point)
            with pytest.raises(SingularPointError):
                kernel([point[n] for n in names])
            singular += 1
        assert singular, f"no vanishing point built for a component of {bmap.id}"


def test_kernel_reads_single_inputs_and_checks_bindings():
    t = SymbolTable([("x", "state"), ("z", "state"), ("a", "parameter")])
    x, z, a = syms(t, "x z a")
    kernel = PointMap([x, -z, a * x / (z - 1), RatExpr.const(t, Fraction(3, 4)),
                       a / z, x / (a * z**2)], ("z", "x", "a"))
    got = kernel((2, Fraction(-1, 3), Fraction(5, 7)))
    assert got == (Fraction(-1, 3), Fraction(-2), Fraction(-5, 21), Fraction(3, 4),
                   Fraction(5, 14), Fraction(-7, 60))
    assert all(type(v) is Fraction for v in got)
    # int inputs divide exactly: 3/2 is not 1.5
    got = kernel((2, 1, 3))
    assert got == (1, -2, 3, Fraction(3, 4), Fraction(3, 2), Fraction(1, 12))
    assert all(type(v) is Fraction for v in got)
    for singular in ((1, 1, 1), (0, 1, 1), (2, 1, 0)):
        with pytest.raises(SingularPointError, match="denominator vanishes"):
            kernel(singular)
    with pytest.raises(ValueError):
        kernel((1, 1))
    with pytest.raises(RingError):
        PointMap([x * a], ("x",))
    assert evaluate(RatExpr(Poly.zero(t)), {}) == 0


PT = SymbolTable([("x", "state"), ("z", "state"), ("a", "parameter")])


def test_kernel_matches_fraction_arithmetic_on_20_kbit_inputs():
    # a 10 kbit factor shared by x's numerator and z's denominator makes the
    # kernel's gcd reductions divide 20 kbit integers by 10 kbit ones, which
    # Python 3.12 hands to its _pylong module: the import that triggers reads
    # __builtins__ from the globals of the kernel's frame
    rng = random.Random(20)
    g = rng.getrandbits(10_000) | 1
    x, z, a = (Fraction(rng.getrandbits(10_000) * m, rng.getrandbits(10_000) * n | 1)
               for m, n in ((g, 1), (1, g), (1, 1)))
    assert x.numerator.bit_length() > 19_000 and z.denominator.bit_length() > 19_000
    X, Z, A = syms(PT, "x z a")
    kernel = PointMap([X * Z, X + Z, X / Z, A * X * Z - X], ("x", "z", "a"))
    assert kernel((x, z, a)) == (x * z, x + z, x / z, a * x * z - x)


def _input_value(rng: random.Random):
    """An int or a Fraction: a kernel must not divide ints as floats."""
    if rng.random() < 0.4:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_output(rng: random.Random):
    num = random_poly(rng, PT, max_terms=4, max_exp=3)
    if rng.random() < 0.2:
        return num
    if rng.random() < 0.5:
        mono = tuple(rng.randint(0, 2) for _ in PT.symbols)
        den = Poly(PT, {mono: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))})
    else:
        den = random_nonzero_poly(rng, PT, max_terms=3, max_exp=2)
    return RatExpr(num, den)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_on_random_expressions(seed):
    """Monomial and other denominators, several outputs sharing subexpressions,
    int and Fraction inputs, and points where a denominator vanishes."""
    rng = random.Random(seed)
    exprs = [_random_output(rng) for _ in range(rng.randint(1, 3))]
    quotients = [e if isinstance(e, RatExpr) else RatExpr(e) for e in exprs]
    names = list(PT.symbols)
    rng.shuffle(names)
    kernel = PointMap(exprs, names)
    points = [{n: _input_value(rng) for n in names} for _ in range(4)]
    for e in quotients:
        if not e.den.is_const:
            moved = _vanishing_point(e.den, points[0])
            if moved is not None:
                points.append(moved)
    for point in points:
        expected = _reference_map(quotients, point)
        if expected is None:
            with pytest.raises(SingularPointError):
                kernel([point[n] for n in names])
            continue
        got = kernel([point[n] for n in names])
        assert got == expected
        for v in got:
            assert type(v) is Fraction
            assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
        assert evaluate(quotients[0], point) == expected[0]


def test_each_kernel_text_is_compiled_once(monkeypatch):
    x, z, a = syms(PT, "x z a")
    exprs = [x / z, a * x / (z - 1), x]
    names = ("x", "z", "a")
    ring._code.cache_clear()
    weyl._generator_kernel.cache_clear()
    texts = []
    monkeypatch.setattr(ring, "exec", lambda text, namespace: texts.append(text)
                        or exec(text, namespace), raising=False)
    first = PointMap(exprs, names)
    assert PointMap(exprs, names)((1, 3, 2)) == first((1, 3, 2))
    PointMap(exprs[:1], names)
    # one-shot evaluation compiles nothing
    for value in range(1, 4):
        evaluate(exprs[1], {"x": value, "z": 3, "a": 2})
    assert len(texts) == len(set(texts)) == 2
    point = random_point(random.Random(3), "th2")
    for _ in range(2):
        weyl._generator_kernel.cache_clear()
        apply_word_to_point(parse_word("s0 s1 s2 pi"), point)
    assert len(texts) == len(set(texts)) == 6


def test_one_shot_evaluation_compiles_nothing():
    # fresh polynomials and quotients are evaluated by an interpreted pass:
    # the compile cache does not grow, and the values equal the reference
    # and a compiled kernel of the same expression
    rng = random.Random(11)
    names = list(PT.symbols)
    size = ring._code.cache_info().currsize
    for _ in range(50):
        p = random_poly(rng, PT, max_terms=6, max_exp=4)
        e = RatExpr(p, random_nonzero_poly(rng, PT, max_terms=3, max_exp=2))
        point = {n: _input_value(rng) for n in names}
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == _reference_poly(p, point) == evaluate(RatExpr(p), point)
        expected = _reference_map([e], point)
        if expected is None:
            with pytest.raises(SingularPointError, match="denominator vanishes"):
                evaluate(e, point)
        else:
            assert (evaluate(e, point),) == expected
        assert ring._code.cache_info().currsize == size
        kernel = PointMap([p, e], names)
        if expected is not None:
            assert kernel([point[n] for n in names]) == (value, expected[0])
        size = ring._code.cache_info().currsize
    x, z = syms(PT, "x z")
    with pytest.raises(RingError, match="'z' unbound"):
        evaluate(x / z, {"x": 1})


# -- generators along orbits ----------------------------------------------------------


def _reference_generator(point: PhasePoint, letter: str, context: str) -> PhasePoint:
    bmap = load_map(weyl._GENERATOR_MAPS[context][letter], "resolved")
    indep = next(iter(bmap.var_map.values())).table.indep_name
    bindings = dict(point.state)
    bindings.update(zip(("alpha0", "alpha1", "alpha2"), point.alphas))
    bindings["eta"] = point.eta
    bindings[indep] = point.indep
    alphas = tuple(
        sum((Fraction(c) * a for c, a in zip(row, point.alphas)), Fraction(off))
        for row, off in zip(bmap.action.matrix, bmap.action.offset)
    )
    return PhasePoint(
        state={n: _reference(e, bindings) for n, e in bmap.var_map.items()},
        alphas=alphas,
        eta=point.eta * bmap.action.eta_sign,
        indep=point.indep * bmap.action.indep_sign,
    )


def _reference_word(word: GroupWord, point: PhasePoint) -> PhasePoint:
    assert calibrate_convention() == "left-to-right"
    for letter in word.letters:
        point = _reference_generator(point, letter, word.context)
    return point


@pytest.mark.parametrize("context", ["th1", "th2"])
@pytest.mark.parametrize("text", ["s1 s2 s1 s0", "s1 s1 s2 s1 s0 s1"])
def test_translation_orbits_match_reference(text, context):
    word = parse_word(text, context)
    rng = random.Random(f"{text}:{context}")
    full_orbits = 0
    for _ in range(6):
        point = random_point(rng, context)
        for _ in range(8):
            try:
                expected = _reference_word(word, point)
            except SingularPointError:
                with pytest.raises(SingularPointError):
                    apply_word_to_point(word, point)
                break
            point = apply_word_to_point(word, point)
            assert point == expected
        else:
            full_orbits += 1
    assert full_orbits >= 3


def test_pi_words_match_reference():
    rng = random.Random(41)
    word = parse_word("π s1 π s0 s2 pi")
    assert word.context == "th2"
    for _ in range(10):
        point = random_point(rng, "th2")
        try:
            expected = _reference_word(word, point)
        except SingularPointError:
            continue
        assert apply_word_to_point(word, point) == expected


def _small_point(rng: random.Random, context: str) -> PhasePoint:
    """A point of small values, zeros among them, where generators often divide
    by zero; alpha1 = 1 - alpha0 - alpha2."""
    state = load_model(weyl._SYSTEM_OF_CONTEXT[context]).state

    def value() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

    a0, a2 = value(), value()
    alphas = (a0, 1 - a0 - a2, a2)
    return PhasePoint({n: value() for n in state}, alphas, value(), value())


def _reference_failure(word: GroupWord, point: PhasePoint):
    """The reference image of ``point``, or the letter at which it is singular."""
    for letter in word.letters:
        try:
            point = _reference_generator(point, letter, word.context)
        except SingularPointError:
            return letter
    return point


@pytest.mark.parametrize("context", ["th1", "th2"])
def test_word_images_match_reference_on_random_words(context):
    letters = sorted(weyl._GENERATOR_MAPS[context])
    rng = random.Random(f"words:{context}")
    singular = regular = 0
    for i in range(300):
        word = GroupWord(tuple(rng.choice(letters) for _ in range(i % 9)), context)
        point = (_small_point if i % 2 else random_point)(rng, context)
        expected = _reference_failure(word, point)
        if isinstance(expected, str):
            with pytest.raises(SingularPointError) as err:
                apply_word_to_point(word, point)
            assert str(err.value) == (
                f"generator {expected}: denominator vanishes at the evaluation point"
            )
            singular += 1
            continue
        image = apply_word_to_point(word, point)
        assert image == expected
        for v in (*image.state.values(), *image.alphas, image.eta, image.indep):
            assert type(v) is Fraction
            assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
        # the empty word is the point, and a coordinate that every letter
        # fixes keeps the point's own value
        if not word.letters:
            assert image is point
        kept = set(_flat_values(point))
        for letter in word.letters:
            kept &= _fixed_names(letter, context)
        for name in kept:
            assert _flat_values(image)[name] is _flat_values(point)[name]
        regular += 1
    assert singular >= 30 and regular >= 100


def _reference_random_point(rng: random.Random, context: str) -> PhasePoint:
    state = load_model(weyl._SYSTEM_OF_CONTEXT[context]).state

    def frac() -> Fraction:
        num = 0
        while num == 0:
            num = rng.randint(-50, 50)
        return Fraction(num, rng.randint(1, 50))

    a0, a2 = frac(), frac()
    return PhasePoint({n: frac() for n in state}, (a0, 1 - a0 - a2, a2), frac(), frac())


@pytest.mark.parametrize("context", ["th1", "th2"])
def test_random_point_matches_a_randint_reference(context):
    for seed in (0, 1, 7, 20321, 4201):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(40):
            point = random_point(rng, context)
            assert point == _reference_random_point(reference, context)
            assert rng.getstate() == reference.getstate()
            values = (*point.state.values(), *point.alphas, point.eta, point.indep)
            for v in values:
                assert type(v) is Fraction
                assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
            assert sum(point.alphas) == 1


def test_point_map_returns_an_inputs_own_value():
    x, z, a = syms(PT, "x z a")
    names = ("x", "z", "a")
    # x and a stay, z is moved, a fourth output has no input at its position
    kernel = PointMap([x, x * z, a, z], names)
    assert kernel.moved == 0b1010
    values = (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 9))
    got = kernel(values)
    assert got == (values[0], values[0] * values[1], values[2], values[1])
    assert got[0] is values[0] and got[2] is values[2]
    assert got[3] is not values[1]
    # an int input is converted once and that Fraction is returned
    got = kernel((4, 3, -1))
    assert got == (4, 12, -1, 3) and all(type(v) is Fraction for v in got)
    assert kernel.pairs((2, 3, -5, 7, 1, 9)) == (2, 3, -10, 21, 1, 9, -5, 7)


def _flat_values(point: PhasePoint) -> dict:
    alphas = dict(zip(("alpha0", "alpha1", "alpha2"), point.alphas))
    return {**point.state, **alphas, "eta": point.eta, "indep": point.indep}


def _fixed_names(letter: str, context: str) -> set[str]:
    """The coordinates (named as :func:`_flat_values` names them) whose image
    under the generator is the coordinate itself."""
    system = load_model(weyl._SYSTEM_OF_CONTEXT[context])
    bmap = load_map(weyl._GENERATOR_MAPS[context][letter], "resolved")
    images = bmap.pullback_bindings(system.table, system.table)
    return {
        "indep" if n == system.indep else n
        for n, e in images.items() if e == RatExpr.sym(system.table, n)
    }


@pytest.mark.parametrize("context", ["th1", "th2"])
def test_generator_kernels_mark_exactly_the_coordinates_they_move(context):
    state = load_model(weyl._SYSTEM_OF_CONTEXT[context]).state
    names = (*state, "alpha0", "alpha1", "alpha2", "eta", "indep")
    for letter in weyl._GENERATOR_MAPS[context]:
        fixed = _fixed_names(letter, context)
        kernel = weyl._generator_kernel(letter, context)
        assert kernel.moved == sum(1 << i for i, n in enumerate(names) if n not in fixed)
        assert fixed and len(fixed) < len(names), letter


def test_parameter_action_apply_matches_matrix_product():
    rng = random.Random(13)
    actions = [ParameterAction(((0, 0, 0), (0, 1, 0), (1, 0, 1)), (2, 0, -2), 1, 1)]
    for _ in range(30):
        letters = tuple(
            rng.choice(("s0", "s1", "s2", "pi")) for _ in range(rng.randint(0, 6))
        )
        actions.append(parameter_action(GroupWord(letters, "th2")))
    with_zeros = [a for a in actions if any(0 in row for row in a.matrix)]
    assert len(with_zeros) >= 10
    for action in actions:
        alphas = (_rational(rng), _rational(rng), _rational(rng))
        expected = tuple(
            sum((Fraction(c) * a for c, a in zip(row, alphas)), Fraction(0)) + off
            for row, off in zip(action.matrix, action.offset)
        )
        got = action.apply(alphas)
        assert got == expected
        assert all(type(v) is Fraction for v in got)
    # the one apply on every number type, also for the maps' 1- and
    # 2-parameter actions; dyadic values keep the float sums exact
    actions += [load_map(mid).action
                for mid in ("scale_step", "order2_xzw", "order2_ham_4d")]
    table = SymbolTable([(f"a{i}", "parameter") for i in range(3)])
    for action in actions:
        n = len(action.offset)
        point = [Fraction(rng.randint(-640, 640), 64) for _ in range(n)]
        exact = tuple(
            sum((c * v for c, v in zip(row, point)), Fraction(off))
            for row, off in zip(action.matrix, action.offset)
        )
        assert action.apply(point) == exact
        floats = action.apply([float(v) for v in point])
        assert floats == tuple(map(float, exact))
        assert all(type(v) is float for v in floats)
        images = action.apply([RatExpr.sym(table, f"a{i}") for i in range(n)])
        assert all(type(e) is RatExpr for e in images)
        at = dict(zip(table.symbols, point))
        assert tuple(evaluate(e, at) for e in images) == exact
    assert {len(a.offset) for a in actions} == {1, 2, 3}
    for bmap in _registered_maps():
        a = bmap.action
        identity = ParameterAction.identity(len(a.offset))
        assert a.then(identity) == a == identity.then(a)
