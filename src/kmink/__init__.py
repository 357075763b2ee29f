"""Exact symbolic engine for the kappa-Minkowski algebra, its momentum
dual, the five-dimensional bicovariant calculus, Dirac operators and the
deformed U(1) gauge theory.  Every identity is an exact statement in an
arbitrary-precision coefficient ring; there is no floating point."""

from .scalars import GaussianRational, ScalarValue
from .minkowski import PlaneWave, PositionElement, PositionTensor
from .momentum import (
    METRIC5,
    MomentumElement,
    MomentumTensor,
    box,
    derivatives,
    f_lowered,
    f_matrix,
    vector_fields,
)
from .action import (
    HeisenbergElement,
    act,
    act_derivative,
    act_f,
    act_f_lowered,
    word,
)
from .forms import OneForm, TwoForm, exterior_d
from .dirac import Gamma4, GAMMA4_ZERO, build_dirac, clifford_image
from .gauge import GaugeConfig, field_strength, gauge_transform
from .expr import evaluate, evaluate_text, parse, render

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "ScalarValue",
    "PlaneWave", "PositionElement", "PositionTensor",
    "MomentumElement", "MomentumTensor", "METRIC5",
    "f_matrix", "f_lowered", "derivatives", "vector_fields", "box",
    "HeisenbergElement", "act", "act_derivative", "act_f", "act_f_lowered",
    "word",
    "OneForm", "TwoForm", "exterior_d",
    "Gamma4", "GAMMA4_ZERO", "build_dirac", "clifford_image",
    "GaugeConfig", "field_strength", "gauge_transform",
    "parse", "render", "evaluate", "evaluate_text",
]
