"""Operator expansions over a truncated S-symmetric Fock space on a rapidity lattice."""

from .config import ConfigError, RunConfig, parse_config
from .contractions import Contraction, compose, enumerate_contractions
from .expansion import (CoefficientFamily, extract_family, fmn_coefficients,
                        reconstruct)
from .fock import FockState, Indicatrix, RapidityGrid
from .io import (load_family, load_form, load_kernel, load_state, save_family,
                 save_form, save_kernel, save_state)
from .scattering import Permutation, ScatteringModel
from .suites import CheckRecord, Report, run_suites
from .warped import SkewSymmetricQ, q_commutator, warp
from .zops import (KernelTensor, OrbitKernel, QuadraticForm, annihilate, compress_kernel,
                   create, zmzn_form)

__all__ = [
    "CheckRecord", "CoefficientFamily", "ConfigError", "Contraction",
    "FockState", "Indicatrix", "KernelTensor", "OrbitKernel", "Permutation",
    "QuadraticForm", "RapidityGrid", "Report", "RunConfig", "ScatteringModel",
    "SkewSymmetricQ", "annihilate", "compose", "compress_kernel", "create",
    "enumerate_contractions",
    "extract_family", "fmn_coefficients", "load_family", "load_form",
    "load_kernel", "load_state", "parse_config", "q_commutator", "reconstruct",
    "run_suites", "save_family", "save_form", "save_kernel", "save_state",
    "warp", "zmzn_form",
]

__version__ = "0.1.0"
