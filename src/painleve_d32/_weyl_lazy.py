"""The half of the Weyl layer that the set-up never runs.

Words (:class:`GroupWord`, :func:`parse_word`), translation shifts, exact
point actions (:func:`_point_image`, the work of
:func:`.weyl.apply_word_to_point`), the sampled relation check and the
translation report live here.  :mod:`.weyl` serves whatever this module
defines, binding each name in its own namespace on its first lookup there.

A call from here to a function that the benchmark's layer trace wraps or
that a test replaces goes through ``weyl``, where they rebind it:
``weyl.parameter_action``, ``weyl.apply_word_to_point`` and
``weyl.random_point``.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from . import ring, weyl
from .models import load_map, load_model
from .ring import SingularPointError
from .weyl import (
    _GENERATOR_MAPS,
    _SYSTEM_OF_CONTEXT,
    _T1_SHIFT,
    _T2_SHIFT,
    CONTEXTS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    MAX_RESAMPLES,
    Vec3,
    _shift_on_hyperplane,
    calibrate_convention,
)

if TYPE_CHECKING:
    from .ring import PointMap
    from .verify import VerificationReport


# -- words ---------------------------------------------------------------------------


class WordError(ValueError):
    pass


class _Word(NamedTuple):
    letters: tuple[str, ...]
    context: str  # th1 | th2


class GroupWord(_Word):
    """A word in the generators of one context, checked when it is built."""

    __slots__ = ()

    def __new__(cls, letters: tuple[str, ...], context: str) -> GroupWord:
        cls._check_context(context)
        for letter in letters:
            if letter not in _GENERATOR_MAPS[context]:
                raise WordError(
                    f"letter {letter!r} not a generator in context {context}"
                )
        return super().__new__(cls, letters, context)

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "(empty)"

    @staticmethod
    def _check_context(context: str) -> None:
        if context not in CONTEXTS:
            raise WordError(
                f"unknown context {context!r}; known contexts: {', '.join(CONTEXTS)}"
            )


def parse_word(text: str, context: Optional[str] = None) -> GroupWord:
    """Word from space-separated letters (``π`` is read as ``pi``).

    Without a context the word lives in th2 when it uses pi, else in th1.
    """
    letters = tuple({"π": "pi"}.get(raw, raw) for raw in text.split())
    if context is None:
        context = "th2" if "pi" in letters else "th1"
    return GroupWord(letters, context)




class TranslationShift(NamedTuple):
    vector: Vec3
    eta_sign: int
    indep_sign: int


def translation_shift(word: GroupWord) -> Optional[TranslationShift]:
    """Shift vector when the word acts on parameters as a pure translation."""
    action = weyl.parameter_action(word)
    shift = _shift_on_hyperplane(action)
    if shift is None:
        return None
    return TranslationShift(shift, action.eta_sign, action.indep_sign)


# -- exact point actions -------------------------------------------------------------


class PhasePoint(NamedTuple):
    """Exact rational point: state values, parameters, eta, independent var."""

    state: Mapping[str, Fraction]
    alphas: tuple[Fraction, Fraction, Fraction]
    eta: Fraction
    indep: Fraction


@functools.cache
def _generator_kernel(letter: str, context: str) -> PointMap:
    """One generator compiled as a map of the flat values (state, alpha0..2,
    eta, indep): the map's pullback bindings of the same names, in order."""
    from .ring import PointMap  # the ring's lazy half

    bmap = load_map(_GENERATOR_MAPS[context][letter], variant="resolved")
    system = load_model(_SYSTEM_OF_CONTEXT[context])
    names = system.state + bmap.param_names + ("eta", system.indep)
    images = bmap.pullback_bindings(system.table, system.table)
    return PointMap([images[n] for n in names], names)


def _point_image(word: GroupWord, point: PhasePoint) -> PhasePoint:
    """:func:`.weyl.apply_word_to_point`: exact image of a point, generator by generator.

    The empty word returns the point itself.  Otherwise the flat values
    (state, alpha0..2, eta, indep) are unboxed once into integer pairs,
    which pass through each generator's :attr:`.ring.PointMap.pairs` in
    turn; only the coordinates that some letter moved (the union of the
    kernels' ``moved`` masks) become new ``Fraction``s
    (:meth:`.ring.PointMap.box`), and the others keep the point's own
    values.  Raises :class:`SingularPointError` naming the failing
    generator when an intermediate denominator vanishes.
    """
    if not word.letters:
        return point
    letters = word.letters
    if calibrate_convention() == "right-to-left":
        letters = letters[::-1]
    state = load_model(_SYSTEM_OF_CONTEXT[word.context]).state
    values = (*(point.state[n] for n in state), *point.alphas, point.eta, point.indep)
    flat = [x for v in values for x in (v.numerator, v.denominator)]
    moved = 0
    for letter in letters:
        kernel = _generator_kernel(letter, word.context)
        try:
            flat = kernel.pairs(flat)
        except SingularPointError as exc:
            raise SingularPointError(f"generator {letter}: {exc}") from exc
        moved |= kernel.moved
    values = ring.PointMap.box(flat, moved, values)
    n = len(state)
    return PhasePoint(
        state=dict(zip(state, values)),
        alphas=tuple(values[n:n + 3]),
        eta=values[n + 3],
        indep=values[n + 4],
    )


def random_point(rng: random.Random, context: str) -> PhasePoint:
    """Random exact point on the normalization hyperplane, away from zero.

    Each value is n/d with n nonzero in [-50, 50] and d in [1, 50]: the
    values of ``rng.randint(-50, 50)``, redrawn while zero, and of
    ``rng.randint(1, 50)``.  They are drawn as ``randint`` draws them on a
    :class:`random.Random`, from ``rng.getrandbits``: a value below m takes
    ``m.bit_length()`` bits and is redrawn while it is not below m.  So the
    points, and the generator's state after each, are those of ``randint``,
    without its argument checks, on a :class:`random.Random` or a subclass
    that keeps its ``getrandbits``-based ``_randbelow``, as on CPython
    3.10-3.13; a subclass that overrides ``random()`` alone draws otherwise
    under ``randint``.  alpha1 = 1 - alpha0 - alpha2 is computed
    on the integer pairs.  An unknown context raises :class:`WordError`."""
    GroupWord._check_context(context)
    system = load_model(_SYSTEM_OF_CONTEXT[context])
    bits, gcd, box = rng.getrandbits, math.gcd, ring._COPRIME

    def pair() -> tuple[int, int]:
        num = bits(7)  # 50 + n, below 101; n = 0 is redrawn
        while num > 100 or num == 50:
            num = bits(7)
        den = bits(6)  # d - 1, below 50
        while den > 49:
            den = bits(6)
        num, den = num - 50, den + 1
        g = gcd(num, den)
        return num // g, den // g

    (n0, d0), (n2, d2) = pair(), pair()
    # alpha1 = 1 - n0/d0 - n2/d2 = num/den, reduced by one gcd
    num, den = d0 * d2 - n0 * d2 - n2 * d0, d0 * d2
    g = gcd(num, den)
    return PhasePoint(
        state={name: box(*pair()) for name in system.state},
        alphas=(box(n0, d0), box(num // g, den // g), box(n2, d2)),
        eta=box(*pair()),
        indep=box(*pair()),
    )


def _int(n: int) -> str:
    """Decimal, or hexadecimal (``0x...``) where the decimal form would exceed
    ``sys.get_int_max_str_digits()``; ``int(text, 0)`` reads back either."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


def _frac(v: Fraction) -> str:
    return f"{_int(v.numerator)}/{_int(v.denominator)}"


def format_point(point: PhasePoint, context: str) -> str:
    """Structured one-line dump with exact rationals as num/den pairs, each
    integer written exactly (:func:`_int`) whatever its size."""
    system = load_model(_SYSTEM_OF_CONTEXT[context])
    state = " ".join(f"{n}={_frac(point.state[n])}" for n in system.state)
    alphas = " ".join(
        f"alpha{i}={_frac(a)}" for i, a in enumerate(point.alphas)
    )
    return (
        f"{state} | {alphas} | eta={_frac(point.eta)} | "
        f"{system.indep}={_frac(point.indep)}"
    )


# -- relations ---------------------------------------------------------------------------

# (name, left word, right word); the empty right word is the identity
RELATIONS: dict[str, list[tuple[str, tuple[str, ...], tuple[str, ...]]]] = {
    "th1": [
        ("s0^2", ("s0", "s0"), ()),
        ("s1^2", ("s1", "s1"), ()),
        ("s2^2", ("s2", "s2"), ()),
        ("(s0 s1)^4", ("s0", "s1") * 4, ()),
        ("(s1 s2)^4", ("s1", "s2") * 4, ()),
        ("(s0 s2)^2", ("s0", "s2") * 2, ()),
    ],
}
# th2 adds the diagram automorphism pi to th1's Coxeter relations
RELATIONS["th2"] = [
    *RELATIONS["th1"],
    ("pi^2", ("pi", "pi"), ()),
    ("pi s0 pi = s2", ("pi", "s0", "pi"), ("s2",)),
    ("pi s1 pi = s1", ("pi", "s1", "pi"), ("s1",)),
]


def _relation_holds_on_parameters(
    left: tuple[str, ...], right: tuple[str, ...], context: str
) -> bool:
    la = weyl.parameter_action(GroupWord(left, context))
    ra = weyl.parameter_action(GroupWord(right, context))
    return la == ra


def _relation_holds_at_samples(
    left: tuple[str, ...],
    right: tuple[str, ...],
    context: str,
    sample_count: int,
    rng: random.Random,
) -> tuple[bool, int]:
    """Whether both words agree at ``sample_count`` nonsingular random points.

    Also returns the number of singular points that were drawn and skipped.
    """
    lword = GroupWord(left, context)
    rword = GroupWord(right, context)
    done = 0
    failures = 0
    while done < sample_count:
        point = weyl.random_point(rng, context)
        try:
            li = weyl.apply_word_to_point(lword, point)
            ri = weyl.apply_word_to_point(rword, point)
        except SingularPointError:
            failures += 1
            if failures >= MAX_RESAMPLES:
                raise SingularPointError(
                    f"persistent singular sampling for relation over {context}"
                )
            continue
        if li != ri:
            return False, failures
        done += 1
    return True, failures


def verify_group_relations(
    sample_count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    """Certify the relation list in both contexts.

    Parameter-level verdicts are exact integer identities (including the eta
    and time signs); map-level verdicts evaluate both sides at ``sample_count``
    random exact rational points and are labeled as sampled.  A
    ``sample_count`` that is not an ``int`` (``bool`` included) raises
    ``TypeError``, and one below 1 ``ValueError``.
    """
    from .verify import VerificationReport, _Timer

    # bool is an int, but True samples is no count
    if type(sample_count) is not int:
        raise TypeError(f"sample_count must be an int, not {sample_count!r}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, not {sample_count}")
    convention = calibrate_convention()
    rng = random.Random(seed)
    reports = []
    for context in CONTEXTS:
        for name, left, right in RELATIONS[context]:
            with _Timer() as tm:
                exact = _relation_holds_on_parameters(left, right, context)
                sampled, resamples = (
                    _relation_holds_at_samples(left, right, context, sample_count, rng)
                    if exact else (False, 0)
                )
            reports.append(
                VerificationReport(
                    check_id=f"relation:{context}:{name}",
                    status="pass" if (exact and sampled) else "fail",
                    residuals=[
                        ("parameters", "zero" if exact else "mismatch"),
                        ("map_samples", "zero" if sampled else "mismatch"),
                    ],
                    duration_ms=tm.ms,
                    detail=f"{sample_count} samples, seed {seed}, {convention}, "
                           f"{resamples} resamples",
                    sampled=True,
                    seed=seed,
                )
            )
    return reports


def translation_report() -> VerificationReport:
    """Shifts of the translation words against their printed values.

    Also reports (without asserting) whether conjugating t1 by the diagram
    automorphism reproduces t2; the computed answer is its inverse.
    """
    from .verify import VerificationReport, _Timer

    with _Timer() as tm:
        convention = calibrate_convention()
        t1 = parse_word("s1 s2 s1 s0", "th1")
        t2 = parse_word("s1 s1 s2 s1 s0 s1", "th1")
        r1 = translation_shift(t1)
        r2 = translation_shift(t2)
        ok = (
            r1 is not None and r1.vector == _T1_SHIFT
            and r1.eta_sign == 1 and r1.indep_sign == 1
            and r2 is not None and r2.vector == _T2_SHIFT
            and r2.eta_sign == 1 and r2.indep_sign == 1
        )
        conj = translation_shift(parse_word("pi s1 s2 s1 s0 pi", "th2"))
        conj_note = (
            f"pi t1 pi shift {conj.vector}" if conj is not None
            else "pi t1 pi is not a translation"
        )
    return VerificationReport(
        check_id="translations",
        status="pass" if ok else "fail",
        residuals=[
            ("t1", str(r1.vector) if r1 else "not a translation"),
            ("t2", str(r2.vector) if r2 else "not a translation"),
        ],
        duration_ms=tm.ms,
        detail=f"{convention}; {conj_note} (reported, not asserted)",
    )
