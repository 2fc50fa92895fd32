"""Group-theoretic layer: words in the generators and their exact actions.

The parameter action of each generator is its registry map's ``action``
(:class:`.models.ParameterAction`): an exact integer affine map with signs
on eta and the independent variable.  A word's action composes those values
in integer arithmetic.  The composition-order convention for words is not
assumed: it is calibrated against the printed parameter shift of the
translation word t1 = s1 s2 s1 s0 and recorded in the report.  Relations
between the generators are certified exactly on parameters.  On the
birational actions themselves they are still only sampled (exact rational
points, Schwartz-Zippel style), although the involutions compose
symbolically in a few hundredths of a second; exact certificates of the
map-level relations are not written yet.

Relation list: the three generators are involutions with braid orders 4, 4
between adjacent pairs and 2 between the ends (two double bonds, ends
non-adjacent); the diagram automorphism squares to the identity, commutes
with the middle node and swaps the end nodes.  The named type fixes the
diagram; the relation list itself is an assumption recorded in reports.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from .models import ParameterAction, load_map, load_model
from .ring import PointMap, SingularPointError

# the report functions import verify when called, so set-up never loads it
if TYPE_CHECKING:
    from .verify import VerificationReport

Vec3 = tuple[int, int, int]

CONTEXTS = ("th1", "th2")
_GENERATOR_MAPS = {
    "th1": {"s0": "s0_5d", "s1": "s1_5d", "s2": "s2_5d"},
    "th2": {"s0": "s0_4d", "s1": "s1_4d", "s2": "s2_4d", "pi": "pi_4d"},
}
_SYSTEM_OF_CONTEXT = {"th1": "five_dim", "th2": "ham_4d"}

DEFAULT_SAMPLES = 20
DEFAULT_SEED = 20321
MAX_RESAMPLES = 100  # singular draws tolerated per relation before giving up


class CalibrationError(Exception):
    """Neither (or both) composition orders reproduce the printed shift."""


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


_T1_WORD = ("s1", "s2", "s1", "s0")
_T1_SHIFT: Vec3 = (-2, 2, 0)
_T2_SHIFT: Vec3 = (0, -2, 2)

_CONVENTION: Optional[str] = None


def _compose(letters: Iterable[str], context: str, order: str) -> ParameterAction:
    seq = list(letters)
    if order == "right-to-left":
        seq = seq[::-1]
    action = ParameterAction.identity(3)
    for letter in seq:
        bmap = load_map(_GENERATOR_MAPS[context][letter], "resolved")
        action = action.then(bmap.action)
    return action


def _shift_on_hyperplane(action: ParameterAction) -> Optional[Vec3]:
    """Translation vector when the action restricts to one on the hyperplane.

    The raw matrices are linear, so "pure translation" means M fixes every
    direction of the normalization plane (vectors with zero coordinate sum);
    the shift is then the displacement of any base point of the plane.
    """
    if not action.preserves_normalization():
        return None
    for delta in ((1, -1, 0), (0, 1, -1)):
        image = tuple(a - v for a, v in zip(action.apply(delta), action.offset))
        if image != delta:
            return None
    base = (Fraction(1), Fraction(0), Fraction(0))
    moved = action.apply(base)
    shift = tuple(m - b for m, b in zip(moved, base))
    assert all(s.denominator == 1 for s in shift)
    return tuple(int(s) for s in shift)


def calibrate_convention() -> str:
    """Word-composition order that reproduces the printed shift of t1.

    Tries both readings of s1 s2 s1 s0 and returns the unique one whose
    hyperplane action is the translation by (-2, 2, 0); raises
    :class:`CalibrationError` on ambiguity or mismatch.
    """
    global _CONVENTION
    if _CONVENTION is not None:
        return _CONVENTION
    matches = []
    for order in ("left-to-right", "right-to-left"):
        action = _compose(_T1_WORD, "th1", order)
        if _shift_on_hyperplane(action) == _T1_SHIFT:
            matches.append(order)
    if len(matches) != 1:
        raise CalibrationError(
            f"composition order calibration failed: candidates {matches}"
        )
    _CONVENTION = matches[0]
    return _CONVENTION


def parameter_action(word: GroupWord) -> ParameterAction:
    """Exact integer action of a word under the calibrated convention."""
    return _compose(word.letters, word.context, calibrate_convention())


class TranslationShift(NamedTuple):
    vector: Vec3
    eta_sign: int
    indep_sign: int


def translation_shift(word: GroupWord) -> Optional[TranslationShift]:
    """Shift vector when the word acts on parameters as a pure translation."""
    action = parameter_action(word)
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
    bmap = load_map(_GENERATOR_MAPS[context][letter], variant="resolved")
    system = load_model(_SYSTEM_OF_CONTEXT[context])
    names = system.state + bmap.param_names + ("eta", system.indep)
    images = bmap.pullback_bindings(system.table, system.table)
    return PointMap([images[n] for n in names], names)


def apply_word_to_point(word: GroupWord, point: PhasePoint) -> PhasePoint:
    """Exact image of a point, generator by generator.

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
    la = parameter_action(GroupWord(left, context))
    ra = parameter_action(GroupWord(right, context))
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
        point = random_point(rng, context)
        try:
            li = apply_word_to_point(lword, point)
            ri = apply_word_to_point(rword, point)
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
