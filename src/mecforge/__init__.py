"""S-box and pseudo-random sequence generation from ordered Mordell elliptic
curves over F_p (p = 2 mod 3), plus the standard cryptographic test battery."""

from .field import PrimeModulus, is_prime
from .mec import CurveClass, MordellCurve, representative
from .ordering import Ordering
from .generator import (
    CompleteSet,
    SBox,
    SprnSequence,
    count_sboxes,
    enumerate_family,
    pstar,
    sbox_direct,
    sbox_iso,
    sprn,
)
from .analysis import AnalysisReport, analyze_sbox, entropy, histogram, period

__all__ = [
    "AnalysisReport",
    "CompleteSet",
    "CurveClass",
    "MordellCurve",
    "Ordering",
    "PrimeModulus",
    "SBox",
    "SprnSequence",
    "analyze_sbox",
    "count_sboxes",
    "entropy",
    "enumerate_family",
    "histogram",
    "is_prime",
    "period",
    "pstar",
    "representative",
    "sbox_direct",
    "sbox_iso",
    "sprn",
]

__version__ = "0.1.0"
