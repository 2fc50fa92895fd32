"""The half of the Weyl layer that the set-up never runs.

Words (:class:`GroupWord`, :func:`parse_word`), translation shifts, exact
point actions (:func:`_point_image`, the work of
:func:`.weyl.apply_word_to_point`), the sampled relation check and the
translation report live here.  :mod:`.weyl` serves every name this module
defines (``weyl._LAZY``) and binds them all in its own namespace the first
time one is looked up there.

A call from here to a function that the benchmark's layer trace wraps or
that a test replaces goes through ``weyl``, where they rebind it:
``weyl.parameter_action``, ``weyl.apply_word_to_point`` and
``weyl.random_point``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from . import weyl
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
        if context not in CONTEXTS:
            raise WordError(f"unknown context {context!r}")
        for letter in letters:
            if letter not in _GENERATOR_MAPS[context]:
                raise WordError(
                    f"letter {letter!r} not a generator in context {context}"
                )
        return super().__new__(cls, letters, context)

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "(empty)"


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

    The flat values (state, alpha0..2, eta, indep) pass through each
    generator's kernel in turn, and one :class:`PhasePoint` is built from the
    last.  Raises :class:`SingularPointError` naming the failing generator
    when an intermediate denominator vanishes.
    """
    letters = list(word.letters)
    if calibrate_convention() == "right-to-left":
        letters = letters[::-1]
    state = load_model(_SYSTEM_OF_CONTEXT[word.context]).state
    values = (*(point.state[n] for n in state), *point.alphas, point.eta, point.indep)
    for letter in letters:
        try:
            values = _generator_kernel(letter, word.context)(values)
        except SingularPointError as exc:
            raise SingularPointError(f"generator {letter}: {exc}") from exc
    n = len(state)
    return PhasePoint(
        state=dict(zip(state, values)),
        alphas=values[n:n + 3],
        eta=values[n + 3],
        indep=values[n + 4],
    )


def random_point(rng: random.Random, context: str) -> PhasePoint:
    """Random exact point on the normalization hyperplane, away from zero."""
    system = load_model(_SYSTEM_OF_CONTEXT[context])

    def frac() -> Fraction:
        num = 0
        while num == 0:
            num = rng.randint(-50, 50)
        return Fraction(num, rng.randint(1, 50))

    a0, a2 = frac(), frac()
    return PhasePoint(
        state={name: frac() for name in system.state},
        alphas=(a0, 1 - a0 - a2, a2),
        eta=frac(),
        indep=frac(),
    )


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def format_point(point: PhasePoint, context: str) -> str:
    """Structured one-line dump with exact rationals as num/den pairs."""
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
    "th2": [
        ("s0^2", ("s0", "s0"), ()),
        ("s1^2", ("s1", "s1"), ()),
        ("s2^2", ("s2", "s2"), ()),
        ("(s0 s1)^4", ("s0", "s1") * 4, ()),
        ("(s1 s2)^4", ("s1", "s2") * 4, ()),
        ("(s0 s2)^2", ("s0", "s2") * 2, ()),
        ("pi^2", ("pi", "pi"), ()),
        ("pi s0 pi = s2", ("pi", "s0", "pi"), ("s2",)),
        ("pi s1 pi = s1", ("pi", "s1", "pi"), ("s1",)),
    ],
}


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
    random exact rational points and are labeled as sampled.
    """
    from .verify import VerificationReport, _Timer

    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
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
