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

This module holds what the set-up runs, :func:`calibrate_convention` and
the composition of generator actions it needs, and the two functions the
benchmark's layer trace wraps here, :func:`parameter_action` and
:func:`apply_word_to_point`.  Words, translation shifts, the work of the
point actions, the relation check and the translation report live in
:mod:`._weyl_lazy`, which loads the first time one of its names is looked
up here (module ``__getattr__``, PEP 562) and then binds them all in this
namespace; its report functions import :mod:`.verify` when called.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .models import ParameterAction, load_map
# callers catch the point actions' SingularPointError as weyl's
from .ring import SingularPointError, _lazy_getattr

if TYPE_CHECKING:
    from ._weyl_lazy import GroupWord, PhasePoint

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


# The benchmark's layer trace wraps these two where this module binds them, so
# they are defined here, and calls from the lazy half go through ``weyl``.


def parameter_action(word: GroupWord) -> ParameterAction:
    """Exact integer action of a word under the calibrated convention."""
    return _compose(word.letters, word.context, calibrate_convention())


def apply_word_to_point(word: GroupWord, point: PhasePoint) -> PhasePoint:
    """Exact image of a point under a word (:func:`._weyl_lazy._point_image`)."""
    return _weyl._point_image(word, point)


# -- the half loaded on first use ---------------------------------------------------

# every name _weyl_lazy defines, served from here
_LAZY = frozenset({
    "WordError", "_Word", "GroupWord", "parse_word", "TranslationShift",
    "translation_shift", "PhasePoint", "_generator_kernel", "_point_image",
    "random_point", "_frac", "format_point",
    "RELATIONS", "_relation_holds_on_parameters", "_relation_holds_at_samples",
    "verify_group_relations", "translation_report",
})
__getattr__ = _lazy_getattr(globals(), "_weyl_lazy", _LAZY)

# this module as an object: its attribute lookups reach __getattr__
_weyl = sys.modules[__name__]
