"""Deterministic suffix-rule lemmatizer.

A small, self-contained stemmer-grade lemmatizer: an exceptions table for
common English irregulars (data/lemma_exceptions.txt) followed by ordered
suffix rules for plural nouns and -ing/-ed verb forms.  It is an
approximation; what matters for bag-of-words modeling is that it is
deterministic and maps every occurrence of a form to the same string, not
that every output is a dictionary lemma.
"""
from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .artifact import read_text

_VOWELS = set("aeiou")


@lru_cache(maxsize=1)
def _exceptions() -> dict:
    with read_text(resources.files("ginopic").joinpath("data/lemma_exceptions.txt"),
                   "lemma exceptions") as fh:
        rows = [line.split() for line in fh if line.strip() and not line.lstrip().startswith("#")]
    return {form: lemma for form, lemma in rows}


def _dedouble(stem: str) -> str:
    # stopped -> stopp -> stop; keep -ll/-ss/-zz which are usually real
    if (
        len(stem) >= 3
        and stem[-1] == stem[-2]
        and stem[-1] not in _VOWELS
        and stem[-1] not in "lsz"
    ):
        return stem[:-1]
    return stem


def lemmatize(token: str) -> str:
    """Map one lowercase token to its lemma (or a consistent stand-in)."""
    hit = _exceptions().get(token)
    if hit is not None:
        return hit
    n = len(token)
    if n <= 3:
        return token

    # plural nouns / 3rd-person verbs
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies"):
        return token[:-3] + "y" if n >= 5 else token[:-1]
    if token.endswith("es") and token[-4:-2] in ("ch", "sh") or token.endswith(("xes", "zes")):
        return token[:-2]
    if token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]

    # progressive / past forms; only strip when a plausible stem remains
    if token.endswith("ying") and n >= 6:
        return token[:-4] + "y"
    if token.endswith("ing") and n >= 6:
        stem = _dedouble(token[:-3])
        return stem if len(stem) >= 3 else token
    if token.endswith("ied") and n >= 5:
        return token[:-3] + "y"
    if token.endswith("ed") and n >= 5:
        stem = _dedouble(token[:-2])
        return stem if len(stem) >= 3 else token
    return token
